"""Seeded input generators and their expected answers.

Every expected answer is derived from how a family is built, never from
fairchk's output. A family function returns the source text of one `.ft`
file and a list of queries on it; each query is a CLI argument tail (the
file path is prepended later) and an `Expect` that says what the output
must be. The seed only picks identifiers and labels, so the amount of work
in a family member depends on its size alone.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

KEYWORDS = {"type", "done", "close", "wait", "new", "in", "end"}


@dataclass
class Expect:
    """What one CLI invocation must produce.

    `exit` is the exit code. `fields` are top-level JSON fields that must
    match exactly. `ranks` maps every definition to its rendered rank in a
    `check --json` report, all of them accepted; `codes` maps definitions
    of a rejected program to diagnostic codes each must carry. `outcome`
    is the required `run --json` outcome.
    """
    exit: int
    fields: dict = field(default_factory=dict)
    ranks: dict | None = None
    codes: dict | None = None
    outcome: str | None = None

    def mismatch(self, code: int, out: dict) -> str | None:
        if code != self.exit:
            return f"exit code {code}, expected {self.exit}"
        for k, v in self.fields.items():
            if out.get(k) != v:
                return f"{k} is {out.get(k)!r}, expected {v!r}"
        if self.ranks is not None:
            got = {d["name"]: d["rank"] for d in out["definitions"]}
            if got != self.ranks:
                return f"ranks {got}, expected {self.ranks}"
            bad = [d["name"] for d in out["definitions"]
                   if d["status"] != "accepted" or d["diagnostics"]]
            if bad or out["verdict"] != "accepted":
                return f"rejected definitions {bad}"
        if self.codes is not None:
            if out["verdict"] != "rejected":
                return "program accepted, expected rejected"
            got = {d["name"]: {g["code"] for g in d["diagnostics"]}
                   for d in out["definitions"]}
            for name, want in self.codes.items():
                if not set(want) <= got.get(name, set()):
                    return f"{name} has codes {sorted(got.get(name, ()))}, expected {want}"
        if self.outcome is not None and out.get("outcome") != self.outcome:
            return f"outcome {out.get('outcome')!r}, expected {self.outcome!r}"
        return None


@dataclass
class Family:
    name: str
    source: str
    queries: list[tuple[list[str], Expect]]


class Names:
    """Fresh identifiers and labels drawn from the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set(KEYWORDS)

    def word(self, upper: bool = False) -> str:
        # one length for every name, so that output sizes do not vary by seed
        while True:
            w = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(5))
            if upper:
                w = w.capitalize()
            if w not in self.used:
                self.used.add(w)
                return w


def accepted(ranks: dict) -> Expect:
    return Expect(0, {"verdict": "accepted"}, ranks=ranks)


# -- programs for `check` and `run` -------------------------------------------

SLOT_TYPES = """\
type {S} = ?{{{play}: !{{{win}: {S}, {lose}: {S}}}, {quit}: end!}}
type {R} = !{{{play}: ?{{{win}: {Q}, {lose}: {R}}}}}
type {Q} = !{{{quit}: end?}}
{M}(x: {S}) = x?{{{play}: x!{{{win}: {M}(x), {lose}: {M}(x)}}, {quit}: close x}}
{P}(y: {R}, z: end!) = y!{play}. y?{{{win}: y!{quit}. wait y. close z, {lose}: {P}(y, z)}}
"""


def _slot(nm: Names) -> dict:
    """Names for the slot game: machine M against a player P that closes
    its link z after the first win. Both have rank 0."""
    return {"S": nm.word(upper=True), "R": nm.word(upper=True),
            "Q": nm.word(upper=True), "M": nm.word(upper=True),
            "P": nm.word(upper=True), "play": nm.word(), "win": nm.word(),
            "lose": nm.word(), "quit": nm.word()}


def call_dag(rng: random.Random, n: int) -> Family:
    """F_i(x: T) = x?{a: F_{i+1}(x), b: F_{i+2}(x), c: wait x. done}.

    Calls past F_{n-1} go to a self-looping E of the same shape; Main opens
    one session against an output loop O. Every choice can take c, so all
    definitions are accepted; F_i, E and O open no session (rank 0) and
    Main opens one (rank 1).
    """
    nm = Names(rng)
    a, b, c = nm.word(), nm.word(), nm.word()
    T, U, E, O = (nm.word(upper=True) for _ in range(4))
    F = [nm.word(upper=True) for _ in range(n)] + [E, E]
    lines = [f"type {T} = ?{{{a}: {T}, {b}: {T}, {c}: end?}}",
             f"type {U} = !{{{a}: {U}, {b}: {U}, {c}: end!}}",
             f"{E}(x: {T}) = x?{{{a}: {E}(x), {b}: {E}(x), {c}: wait x. done}}",
             f"{O}(y: {U}) = y!{{{a}: {O}(y), {b}: {O}(y), {c}: close y}}"]
    for i in range(n):
        lines.append(f"{F[i]}(x: {T}) = x?{{{a}: {F[i + 1]}(x), "
                     f"{b}: {F[i + 2]}(x), {c}: wait x. done}}")
    lines.append(f"Main() = new x: {T} / {U} in ({F[0]}(x) | {O}(x))")
    ranks = {name: 0 for name in F[:n] + [E, O]}
    ranks["Main"] = 1
    return Family(f"dag-{n}", "\n".join(lines) + "\n",
                  [(["check", "--json"], accepted(ranks))])


def session_chain(rng: random.Random, k: int) -> Family:
    """k definitions D_1..D_k, each opening a slot game and a link to D_{i+1}.

    D_i(z) = new x: S/R in (M(x) | new y: end!/end? in (D_{i+1}(y) | wait y. P(x, z)))
    and D_{k+1}(z) = close z. Each D_i adds two sessions to the rank of the
    next, so D_i has rank 2(k-i+1), and Main, which opens the outer link,
    has rank 2k+1.
    """
    nm = Names(rng)
    s = _slot(nm)
    D = [nm.word(upper=True) for _ in range(k + 1)]
    lines = [SLOT_TYPES.format(**s).rstrip("\n")]
    for i in range(k):
        lines.append(
            f"{D[i]}(z: end!) = new x: {s['S']} / {s['R']} in ({s['M']}(x) | "
            f"new y: end! / end? in ({D[i + 1]}(y) | wait y. {s['P']}(x, z)))")
    lines.append(f"{D[k]}(z: end!) = close z")
    lines.append(f"Main() = new z: end! / end? in ({D[0]}(z) | wait z. done)")
    ranks = {D[i]: 2 * (k - i) for i in range(k + 1)}
    ranks.update({s["M"]: 0, s["P"]: 0, "Main": 2 * k + 1})
    return Family(f"chain-{k}", "\n".join(lines) + "\n",
                  [(["check", "--json"], accepted(ranks))])


def swarm(rng: random.Random, d: int, seeds: list[int]) -> Family:
    """Tree spawner: D_j forks two copies of D_{j+1}; D_d plays one slot game.

    D_j(z) = new u: end!/end? in (D_{j+1}(u) | new v: end!/end? in
    (D_{j+1}(v) | wait u. wait v. close z)), so r(D_j) = 2 + 2 r(D_{j+1}),
    and the leaf opens one game, r(D_d) = 1. Hence r(D_j) = 3*2^(d-j) - 2
    and Main, which opens the root link, has rank 3*2^d - 1. An accepted
    program terminates on every seed.
    """
    nm = Names(rng)
    s = _slot(nm)
    D = [nm.word(upper=True) for _ in range(d + 1)]
    lines = [SLOT_TYPES.format(**s).rstrip("\n")]
    for j in range(d):
        lines.append(
            f"{D[j]}(z: end!) = new u: end! / end? in ({D[j + 1]}(u) | "
            f"new v: end! / end? in ({D[j + 1]}(v) | wait u. wait v. close z))")
    lines.append(f"{D[d]}(z: end!) = new x: {s['S']} / {s['R']} in "
                 f"({s['M']}(x) | {s['P']}(x, z))")
    lines.append(f"Main() = new z: end! / end? in ({D[0]}(z) | wait z. done)")
    ranks = {D[j]: 3 * 2 ** (d - j) - 2 for j in range(d + 1)}
    ranks.update({s["M"]: 0, s["P"]: 0, "Main": 3 * 2 ** d - 1})
    queries = [(["run", "--json", "--seed", str(sd)],
                Expect(0, {"seed": sd}, outcome="terminated")) for sd in seeds]
    return Family(f"swarm-{d}", "\n".join(lines) + "\n",
                  [(["check", "--json"], accepted(ranks))] + queries)


# -- type pairs for `subtype`, `compatible` and `rank` --------------------------

def _chain_types(names: list[str], body) -> list[str]:
    return [f"type {names[i]} = {body(i)}" for i in range(len(names))]


def cascade(rng: random.Random, n: int) -> Family:
    """Two input chains of n states that agree until their last step, where
    the subtype ends in end! and the supertype in end?.

    The mismatched end pair is the only shape violation; its removal
    cascades up the chain to the root, so the simulation fails with a
    polarity mismatch and no witness.
    """
    nm = Names(rng)
    a = nm.word()
    A = [nm.word(upper=True) for _ in range(n)]
    B = [nm.word(upper=True) for _ in range(n)]
    lines = (_chain_types(A, lambda i: f"?{{{a}: {A[i + 1] if i + 1 < n else 'end!'}}}")
             + _chain_types(B, lambda i: f"?{{{a}: {B[i + 1] if i + 1 < n else 'end?'}}}"))
    want = Expect(1, {"holds": False, "failure": "not-simulated",
                      "detail": "polarity mismatch", "simulationSize": 0,
                      "weight": "inf"})
    return Family(f"cascade-{n}", "\n".join(lines) + "\n",
                  [(["subtype", "--json", A[0], B[0]], want)])


def diverging_ladder(rng: random.Random, n: int, shared: bool = False) -> Family:
    """A loop of n strict narrowings, each with an end! exit branch.

    Sub U_i = !{a: U_{i+1}, b: end!}, super V_i = !{a: V_{i+1}}, indices mod
    n. Every pair is simulated (n witness pairs) but every one is a strict
    output narrowing, rk = 1 + rk(next) around the loop, so the weight is
    infinite and fair subtyping diverges. With `shared`, a second label c
    leads to the same child as a in both types; the verdict is unchanged
    but rendering a type unfolds the shared child twice per level.
    """
    nm = Names(rng)
    a, b, c = nm.word(), nm.word(), nm.word()
    U = [nm.word(upper=True) for _ in range(n)]
    V = [nm.word(upper=True) for _ in range(n)]
    extra_u = (lambda i: f", {c}: {U[(i + 1) % n]}") if shared else (lambda i: "")
    extra_v = (lambda i: f", {c}: {V[(i + 1) % n]}") if shared else (lambda i: "")
    lines = (_chain_types(U, lambda i: f"!{{{a}: {U[(i + 1) % n]}{extra_u(i)}, {b}: end!}}")
             + _chain_types(V, lambda i: f"!{{{a}: {V[(i + 1) % n]}{extra_v(i)}}}"))
    want = Expect(1, {"holds": False, "failure": "diverges", "simulationSize": n,
                      "weight": "inf"})
    kind = "shared" if shared else "diverging"
    return Family(f"{kind}-{n}", "\n".join(lines) + "\n",
                  [(["subtype", "--json", U[0], V[0]], want)])


def holding_ladder(rng: random.Random, n: int) -> Family:
    """n strict narrowings in a row, then both types end.

    Sub W_i = !{a: W_{i+1}, b: end!}, super Z_i = !{a: Z_{i+1}}, with
    W_n = Z_n = end!. Each pair costs one narrowing on top of the next, so
    the weight is n and the witness has the n+1 pairs of the two chains.
    """
    nm = Names(rng)
    a, b = nm.word(), nm.word()
    W = [nm.word(upper=True) for _ in range(n)]
    Z = [nm.word(upper=True) for _ in range(n)]
    lines = (_chain_types(W, lambda i: f"!{{{a}: {W[i + 1] if i + 1 < n else 'end!'}, {b}: end!}}")
             + _chain_types(Z, lambda i: f"!{{{a}: {Z[i + 1] if i + 1 < n else 'end!'}}}"))
    want = Expect(0, {"holds": True, "weight": n, "simulationSize": n + 1})
    return Family(f"holding-{n}", "\n".join(lines) + "\n",
                  [(["subtype", "--json", W[0], Z[0]], want)])


def dual_pair(rng: random.Random, n: int) -> Family:
    """L_i = !{a: L_{i+1}, r: L_0} with L_n = end!, and its dual C.

    From every configuration the a-steps lead to the end pair, so the pair
    is compatible; the fastest joint finish takes the n a-synchronizations,
    so the session rank is n + 1.
    """
    nm = Names(rng)
    a, r = nm.word(), nm.word()
    L = [nm.word(upper=True) for _ in range(n)]
    C = [nm.word(upper=True) for _ in range(n)]
    lines = (_chain_types(L, lambda i: f"!{{{a}: {L[i + 1] if i + 1 < n else 'end!'}, {r}: {L[0]}}}")
             + _chain_types(C, lambda i: f"?{{{a}: {C[i + 1] if i + 1 < n else 'end?'}, {r}: {C[0]}}}"))
    return Family(f"dual-{n}", "\n".join(lines) + "\n", [
        (["compatible", "--json", L[0], C[0]], Expect(0, {"compatible": True})),
        (["rank", "--json", L[0], C[0]], Expect(0, {"rank": n + 1})),
    ])


# -- the corpus ------------------------------------------------------------------

# Verdicts and ranks copied from the README and the test suite's corpus table.
CORPUS_CHECK = {
    "bsc.ft": accepted({"Buyer": 0, "Seller": 0, "Carrier": 0, "Main": 3}),
    "slot.ft": accepted({"Machine": 0, "Player": 0, "Main": 1}),
    "rank_example.ft": accepted({}),
    "delegation.ft": accepted({"Sender": 0, "Receiver": 0, "Peer": 0, "Main": 2}),
    "infinite_sessions.ft": accepted({"C": 0, "Main": 1}),
    "action_unbounded.ft": Expect(1, codes={"A": ["E-UNBOUNDED-ACTION"],
                                            "B": ["E-UNBOUNDED-ACTION"]}),
    "session_unbounded.ft": Expect(1, codes={"B1": ["E-UNSAFE-LOOP"],
                                             "B2": ["E-UNSAFE-LOOP"]}),
    "cast_unbounded.ft": Expect(1, codes={"A": ["E-UNSAFE-LOOP", "E-INFINITE-RANK"],
                                          "B": ["E-UNSAFE-LOOP", "E-INFINITE-RANK"]}),
    "finite_unfair.ft": Expect(1, codes={"Main": ["E-SUBTYPE"]}),
    "fwd.ft": Expect(1, codes={"Fwd": ["E-UNSAFE-LOOP", "E-INFINITE-RANK"]}),
}

CORPUS_QUERIES = [
    ("bsc.ft", ["subtype", "--json", "SB", "SB'"],
     Expect(0, {"holds": True, "weight": 1})),
    ("bsc.ft", ["subtype", "--json", "SB", "SBi"],
     Expect(1, {"holds": False, "failure": "diverges",
                "offendingPair": ["!{add: SB, pay: end!}", "!{add: SBi}"]})),
    ("slot.ft", ["subtype", "--json", "S", "T"],
     Expect(1, {"holds": False, "failure": "diverges"})),
    ("slot.ft", ["compatible", "--json", "R", "S"], Expect(0, {"compatible": True})),
    ("slot.ft", ["compatible", "--json", "R", "T"], Expect(1, {"compatible": False})),
    ("rank_example.ft", ["rank", "--json", "S4", "T4"], Expect(0, {"rank": 4})),
]

CORPUS_RUNNABLE = ["bsc.ft", "slot.ft", "delegation.ft", "infinite_sessions.ft"]

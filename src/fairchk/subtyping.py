"""Subtyping: the safety-preserving simulation and the liveness refinement.

`unfair_subtype` decides the classic simulation (inputs covariant, outputs
contravariant, channel payloads invariant). It preserves safety but lets a
supertype drop the very branches a peer needs to terminate, so on top of it
we solve a weight system: each simulation pair gets the least value rk
satisfying

    end pairs                      rk = 0
    input pairs                    rk = max over shared branches
    output pairs, strict subset    rk = 1 + min over supertype branches
    output pairs, equal labels     rk = min(1 + min over branches,
                                            max over branches)
    channel pairs                  rk = rk of the continuations

A finite rk bounds how many strict narrowings the supertype can force on
the way to termination; rk = ∞ on any pair means the refinement diverges
and fair subtyping fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import closure, cyclic, reach, reverse, tarjan
from .types import INF, OUT, TypeTable, equiv, reachable_pairs

Pair = tuple[int, int]


def _violation(table: TypeTable, u: int, v: int) -> Optional[str]:
    """Reason this pair breaks the simulation shape rules, or None."""
    nu, nv = table.node(u), table.node(v)
    if nu[0] != nv[0]:
        return "shape mismatch"
    if nu[1] != nv[1]:
        return "polarity mismatch"
    if nu[0] == "tags":
        lu, lv = set(dict(nu[2])), set(dict(nv[2]))
        if nu[1] == OUT:
            if not lv <= lu:
                return "supertype outputs a label the subtype lacks"
        elif not lu <= lv:
            return "supertype misses an input branch of the subtype"
    elif nu[0] == "chan" and not equiv(table, nu[2], nv[2]):
        return "channel payload types differ"
    return None


def _premises(table: TypeTable, u: int, v: int) -> list[Pair]:
    """Premise pairs of a shape-valid simulation pair, in a fixed order."""
    nu, nv = table.node(u), table.node(v)
    if nu[0] == "tags":
        bu, bv = dict(nu[2]), dict(nv[2])
        return [(bu[l], bv[l]) for l in sorted(set(bu) & set(bv))]
    if nu[0] == "chan":
        return [(nu[3], nv[3])]
    return []


@dataclass
class Simulation:
    holds: bool
    # pairs of the witness derivation, root first, deterministic order
    witness: list[Pair]
    # shape-violating pair that undermines the root, with its reason
    failure: Optional[tuple[Pair, str]]


def simulate(table: TypeTable, s: int, t: int) -> Simulation:
    """Greatest fixpoint of the simulation rules over reachable pairs.

    Each shape-valid pair's premises are computed once. The dead pairs
    are a backward closure: the shape violations, and every pair with a
    dead premise.
    """
    carrier = reachable_pairs(table, s, t)
    reason = {p: _violation(table, *p) for p in carrier}
    premises = {p: _premises(table, *p) for p in carrier if reason[p] is None}
    dead = closure([p for p in carrier if reason[p] is not None], reverse(premises))

    root = (s, t)
    if root not in dead:
        # every premise of a surviving pair survives, so the witness is all
        # of the pairs reachable from the root, breadth first
        return Simulation(True, list(reach([root], premises.__getitem__)), None)
    # The first shape violation breadth first from the root, along premise
    # edges of shape-valid pairs, is the root cause of the removal cascade.
    p = next(p for p in reach([root], premises.__getitem__) if reason[p] is not None)
    return Simulation(False, [], (p, reason[p]))


def unfair_subtype(table: TypeTable, s: int, t: int) -> bool:
    return simulate(table, s, t).holds


def _rule(table: TypeTable, u: int, v: int) -> str:
    """Which weight equation a shape-valid pair obeys."""
    nu, nv = table.node(u), table.node(v)
    if nu[0] != "tags":
        return nu[0]  # "end" or "chan"
    if nu[1] != OUT:
        return "max"
    if set(dict(nv[2])) < set(dict(nu[2])):
        return "strict"
    return "equal"


def _equation(rule: str, prem: list[int | float]) -> int | float:
    if rule == "end":
        return 0
    if rule in ("max", "chan"):
        return max(prem)
    if rule == "strict":
        return 1 + min(prem)
    return min(1 + min(prem), max(prem))


def solve_weights(table: TypeTable, witness: list[Pair]) -> dict[Pair, int | float]:
    """Least solution of the weight system, restricted to the witness.

    Finite components of the least solution stay within K = number of
    pairs, so anything above K is clamped to ∞. The premise graph is
    solved one strongly connected component at a time, sinks first: a
    pair off every cycle evaluates its equation once, and a cycle is
    settled level by level in `_settle_cycle`.
    """
    pairs = set(witness)
    prem = {p: [q for q in _premises(table, *p) if q in pairs] for p in witness}
    rule = {p: _rule(table, *p) for p in witness}
    cutoff = len(witness)
    rk: dict[Pair, int | float] = {}
    for scc in tarjan(witness, prem):
        if cyclic(scc, prem):
            _settle_cycle(scc, prem, rule, rk, cutoff)
        else:
            p = scc[0]
            w = _equation(rule[p], [rk[q] for q in prem[p]])
            rk[p] = INF if w > cutoff else w
    return {p: rk[p] for p in witness}


def _settle_cycle(scc: list[Pair], prem: dict[Pair, list[Pair]],
                  rule: dict[Pair, str], rk: dict[Pair, int | float],
                  cutoff: int) -> None:
    """Least weights of one cyclic component, given every pair it reaches.

    At level v, the pairs of weight at most v are the largest set X whose
    equations all come out at most v when X sits at v and the settled
    pairs at their values. Whether an equation stays at most v depends
    only on which premises are at most v and which at most v - 1, so X is
    the complement of a backward closure: a pair exceeds v when its own
    settled premises force it to, or when it needs every premise at most v
    and one of them exceeds v. Between two values w, w + 1 of settled
    premises nothing changes, so the levels jump from one such value to
    the next; when none is left, or the level passes the cutoff, the pairs
    still open are ∞. Each level is linear in the component.
    """
    users = reverse({p: prem[p] for p in scc})
    open_ = scc
    v = 0
    while open_ and v <= cutoff:
        forced: list[Pair] = []
        needs_all: dict[Pair, int] = {}
        for p in open_:
            known = [rk[q] for q in prem[p] if q in rk]
            r = rule[p]
            if r in ("strict", "equal") and any(w < v for w in known):
                continue  # one settled premise pays for the +1
            if r == "strict" or any(w > v for w in known):
                forced.append(p)
            else:
                needs_all[p] = 1
        over = closure(forced, users, needs_all)
        for p in open_:
            if p not in over:
                rk[p] = v
        open_ = [p for p in open_ if p in over]
        v = min((x for p in open_ for q in prem[p] if q in rk
                 for x in (rk[q], rk[q] + 1) if x > v), default=INF)
    for p in open_:
        rk[p] = INF


def subtype_weight(table: TypeTable, s: int, t: int) -> int | float:
    sim = simulate(table, s, t)
    if not sim.holds:
        raise ValueError("subtype_weight requires the simulation to hold")
    return solve_weights(table, sim.witness)[(s, t)]


@dataclass
class SubtypeVerdict:
    holds: bool
    weight: int | float
    failure: Optional[tuple[str, Pair, str]]  # (kind, pair, detail)
    simulation_size: int

    def to_json(self, table: TypeTable) -> dict:
        out: dict = {
            "holds": self.holds,
            "weight": render_weight(self.weight),
            "simulationSize": self.simulation_size,
        }
        if self.failure is not None:
            kind, (u, v), detail = self.failure
            out["offendingPair"] = [table.render(u), table.render(v)]
            out["failure"] = kind
            out["detail"] = detail
        return out


def render_weight(w: int | float) -> int | str:
    return "inf" if w == INF else int(w)


def fair_subtype(table: TypeTable, s: int, t: int) -> SubtypeVerdict:
    """The liveness-preserving refinement: simulation plus finite weights.

    Every pair of the witness must carry a finite weight; an infinite one
    elsewhere in the derivation sinks the root even when the root's own
    equation would come out finite through a min.
    """
    sim = simulate(table, s, t)
    if not sim.holds:
        pair, why = sim.failure  # type: ignore[misc]
        return SubtypeVerdict(False, INF, ("not-simulated", pair, why), 0)
    rk = solve_weights(table, sim.witness)
    for p in sim.witness:
        if rk[p] == INF:
            return SubtypeVerdict(False, INF, ("diverges", p, "weight is infinite"),
                                  len(sim.witness))
    return SubtypeVerdict(True, rk[(s, t)], None, len(sim.witness))


def diverges(table: TypeTable, s: int, t: int) -> bool:
    """Simulation holds but the refinement can be postponed forever."""
    sim = simulate(table, s, t)
    return sim.holds and solve_weights(table, sim.witness)[(s, t)] == INF

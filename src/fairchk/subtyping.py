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

from .graph import INF, least, reach, tarjan
from .surface import Record
from .types import OUT, TypeTable, _matched, equiv

Pair = tuple[int, int]


def _judge(table: TypeTable, u: int, v: int) -> tuple[str, list[Pair] | None]:
    """How a pair fares under the simulation rules, read once.

    A pair that breaks a shape rule gives the reason and None. Any other
    pair gives the name of its weight equation ("end", "chan", "max",
    "strict" or "equal") and its premises, the matched descent of its two
    nodes without a channel's payload pair: a tags pair takes them from
    each side's branch dict, built once, in label order.
    """
    nu, nv = table.node(u), table.node(v)
    if nu[0] != nv[0]:
        return "shape mismatch", None
    if nu[1] != nv[1]:
        return "polarity mismatch", None
    if nu[0] == "end":
        return "end", []
    if nu[0] == "chan":
        if not equiv(table, nu[2], nv[2]):
            return "channel payload types differ", None
        return "chan", _matched(table, u, v)[1:]
    bu, bv = dict(nu[2]), dict(nv[2])
    lu, lv = bu.keys(), bv.keys()
    if nu[1] != OUT:
        if not lu <= lv:
            return "supertype misses an input branch of the subtype", None
        rule, shared = "max", lu
    elif not lv <= lu:
        return "supertype outputs a label the subtype lacks", None
    else:
        rule, shared = "strict" if lv < lu else "equal", lv
    return rule, [(bu[l], bv[l]) for l in sorted(shared)]


class Simulation(Record):
    __slots__ = ("holds", "witness", "failure", "equation", "premises")

    def __init__(self, holds: bool, witness: list[Pair], failure: tuple[Pair, str] | None,
                 equation: dict[Pair, str], premises: dict[Pair, list[Pair]]):
        self.holds = holds
        # pairs of the witness derivation, root first, deterministic order
        self.witness = witness
        # shape-violating pair that undermines the root, with its reason
        self.failure = failure
        # weight equation and premise pairs of each witness pair
        self.equation, self.premises = equation, premises


def simulate(table: TypeTable, s: int, t: int) -> Simulation:
    """Greatest fixpoint of the simulation rules, by one forward search.

    A pair dies when it breaks a shape rule or one of its premises dies, so
    the root dies exactly when a shape violation is reachable from it along
    premise edges (Liu & Smolka, "Simple linear-time algorithms for minimal
    fixed points", 1998). The search judges each pair once, as it meets it,
    and the first violation breadth first from the root is the failure.
    When there is none, every pair it met survives: they are the witness.
    """
    equation: dict[Pair, str] = {}
    premises: dict[Pair, list[Pair]] = {}
    # `reach` asks for a pair's premises only after the loop has stored them
    for p in reach([(s, t)], premises.__getitem__):
        rule, prem = _judge(table, *p)
        if prem is None:
            return Simulation(False, [], (p, rule), {}, {})
        equation[p], premises[p] = rule, prem
    return Simulation(True, list(premises), None, equation, premises)


def unfair_subtype(table: TypeTable, s: int, t: int) -> bool:
    """The plain simulation alone, without the weight system."""
    return simulate(table, s, t).holds


def solve_weights(sim: Simulation) -> dict[Pair, int | float]:
    """Least solution of the weight system on the simulation's witness.

    Finite components of the least solution stay within K = number of
    pairs, so anything above K is clamped to ∞. It is one call of `least`
    on the premise graph, its pairs numbered in witness order: each pair's
    rule is its equation's name, no pair carries a constant, and the
    cutoff is K.
    """
    witness = sim.witness
    num = {p: k for k, p in enumerate(witness)}
    succ = [[num[q] for q in sim.premises[p]] for p in witness]
    rule = [sim.equation[p] for p in witness]
    k = len(witness)
    return dict(zip(witness, least(tarjan(succ), succ, rule, [0] * k, k)))


class SubtypeVerdict(Record):
    __slots__ = ("holds", "weight", "failure", "simulation_size")

    def __init__(self, holds: bool, weight: int | float,
                 failure: tuple[str, Pair, str] | None, simulation_size: int):
        self.holds, self.weight, self.simulation_size = holds, weight, simulation_size
        self.failure = failure  # (kind, pair, detail)

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
    rk = solve_weights(sim)
    for p in sim.witness:
        if rk[p] == INF:
            return SubtypeVerdict(False, INF, ("diverges", p, "weight is infinite"),
                                  len(sim.witness))
    return SubtypeVerdict(True, rk[(s, t)], None, len(sim.witness))

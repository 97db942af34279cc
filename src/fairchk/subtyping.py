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
from .types import INF, OUT, TypeTable, _matched, equiv

Pair = tuple[int, int]


def _judge(table: TypeTable, u: int, v: int) -> tuple[str, Optional[list[Pair]]]:
    """How a pair fares under the simulation rules, read once.

    A pair that breaks a shape rule gives the reason and None. Any other
    pair gives the name of its weight equation ("end", "chan", "max",
    "strict" or "equal") and its premises, the matched descent of its two
    nodes without a channel's payload pair.
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
    lu, lv = dict(nu[2]).keys(), dict(nv[2]).keys()
    if nu[1] != OUT:
        if not lu <= lv:
            return "supertype misses an input branch of the subtype", None
        rule = "max"
    elif not lv <= lu:
        return "supertype outputs a label the subtype lacks", None
    else:
        rule = "strict" if lv < lu else "equal"
    return rule, _matched(table, u, v)


@dataclass
class Simulation:
    holds: bool
    # pairs of the witness derivation, root first, deterministic order
    witness: list[Pair]
    # shape-violating pair that undermines the root, with its reason
    failure: Optional[tuple[Pair, str]]
    # weight equation and premise pairs of each witness pair
    equation: dict[Pair, str]
    premises: dict[Pair, list[Pair]]


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


def _equation(rule: str, prem: list[int | float]) -> int | float:
    if rule == "end":
        return 0
    if rule in ("max", "chan"):
        return max(prem)
    if rule == "strict":
        return 1 + min(prem)
    return min(1 + min(prem), max(prem))


def solve_weights(sim: Simulation) -> dict[Pair, int | float]:
    """Least solution of the weight system on the simulation's witness.

    Finite components of the least solution stay within K = number of
    pairs, so anything above K is clamped to ∞. The premise graph is
    solved one strongly connected component at a time, sinks first: a
    pair off every cycle evaluates its equation once, and a cycle is
    settled level by level in `_settle_cycle`.
    """
    prem, rule = sim.premises, sim.equation
    cutoff = len(sim.witness)
    rk: dict[Pair, int | float] = {}
    for scc in tarjan(sim.witness, prem):
        if cyclic(scc, prem):
            _settle_cycle(scc, prem, rule, rk, cutoff)
        else:
            p = scc[0]
            w = _equation(rule[p], [rk[q] for q in prem[p]])
            rk[p] = INF if w > cutoff else w
    return {p: rk[p] for p in sim.witness}


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
    rk = solve_weights(sim)
    for p in sim.witness:
        if rk[p] == INF:
            return SubtypeVerdict(False, INF, ("diverges", p, "weight is infinite"),
                                  len(sim.witness))
    return SubtypeVerdict(True, rk[(s, t)], None, len(sim.witness))

"""Graph algorithms shared by the fixpoint passes.

The ranks of the checker's termination-path graph and the weights of a
subtyping witness's premise graph are one call each of `least`, which
solves equations given as data component by component, sinks first.
Every least set closed backwards along edges (bounded occurrences,
configurations that can terminate, the pairs above a level of the weight
solver) is one call of `closure`. Every forward search (the nodes of a
type, the pairs an equivalence question compares, a subtyping simulation
with its witness or its failure pair, the configurations of a
compatibility question or of `graph`, a layer of the session rank's
search) is one call of `reach`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from typing import Optional, TypeVar

N = TypeVar("N", bound=Hashable)
Succ = Mapping[N, list[N]] | list[list[N]]

INF = float("inf")


def tarjan(nodes: Iterable[N], succ: Succ) -> list[list[N]]:
    """Iterative strongly-connected components, deterministic order.

    Every component comes out after all the components it reaches, so a
    caller that walks the list in order meets the successors first. Each
    work frame holds its node's successor iterator and resumes it where it
    stopped (Tarjan, "Depth-first search and linear graph algorithms",
    1972), so every edge is looked at once.
    """
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    sccs: list[list[N]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, ws = work[-1]
            for w in ws:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)
    return sccs


def cyclic(scc: list[N], succ: Succ) -> bool:
    """The component holds a cycle: two members or more, or a self-loop."""
    return len(scc) > 1 or scc[0] in succ[scc[0]]


def reverse(succ: Mapping[N, Iterable[N]]) -> dict[N, list[N]]:
    """The predecessor lists of a successor map, one entry per edge."""
    pred: dict[N, list[N]] = {}
    for v, ws in succ.items():
        for w in ws:
            pred.setdefault(w, []).append(v)
    return pred


def closure(seeds: Iterable[N], pred: Mapping[N, Iterable[N]],
            need: Optional[Mapping[N, int]] = None) -> set[N]:
    """The least set that holds the seeds and every node v with at least
    need[v] of its successors in it.

    `pred[w]` lists the nodes that have w as a successor, once per edge,
    and a missing key means none. Without `need` every node needs one
    successor; with it, a node absent from `need` joins only as a seed.
    Each node counts the successors it still lacks and joins when the
    count reaches zero, so every edge is followed once (Liu & Smolka,
    "Simple linear-time algorithms for minimal fixed points", 1998).
    """
    out = set(seeds)
    lacking = None if need is None else dict(need)
    todo = list(out)
    while todo:
        for v in pred.get(todo.pop(), ()):
            if v in out:
                continue
            if lacking is not None:
                if v not in lacking:
                    continue
                lacking[v] -= 1
                if lacking[v] > 0:
                    continue
            out.add(v)
            todo.append(v)
    return out


def reach(roots: Iterable[N], succ: Callable[[N], Iterable[N]]) -> Iterator[N]:
    """Every node reachable from the roots, each once, breadth first.

    The roots come first, in order, and every other node in the order it
    is discovered. `succ(v)` is called once, just after v is yielded, so
    a caller that stops early expands nothing further.
    """
    queue = deque(dict.fromkeys(roots))
    seen = set(queue)
    while queue:
        v = queue.popleft()
        yield v
        for w in succ(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)


def least(sccs: list[list[N]], succ: Succ, rule: Mapping[N, str] | list[str],
          plus: Mapping[N, int], cutoff: float = INF) -> dict[N, int | float]:
    """Least solution of one equation per node, over `tarjan`'s `sccs`.

    A node's value is `plus.get(v, 0)` added to its successors' values
    combined by `rule[v]`: "sum" adds them, "strict" is 1 + the least,
    "equal" is the smaller of 1 + the least and the largest, and any other
    rule takes the largest, or 0 when there are none. A node off every
    cycle evaluates once, and a value above `cutoff` is ∞. A cycle with no
    "strict" or "equal" member takes one pass: ∞ when a member has a
    positive constant, else every member gets the largest value that
    leaves it (so a "sum" member on a cycle needs a constant). Any other
    cycle goes to `_settle_cycle`, which reads no constants.
    """
    val: dict[N, int | float] = {}
    for scc in sccs:
        if not cyclic(scc, succ):
            v = scc[0]
            xs = [val[w] for w in succ[v]]
            r = rule[v]
            if r == "sum":
                x = sum(xs)
            elif r == "strict":
                x = 1 + min(xs)
            elif r == "equal":
                x = min(1 + min(xs), max(xs))
            else:
                x = max(xs, default=0)
            x += plus.get(v, 0)
            val[v] = INF if x > cutoff else x
        elif any(rule[v] == "strict" or rule[v] == "equal" for v in scc):
            _settle_cycle(scc, succ, rule, val, cutoff)
        else:
            # members still read 0, and no value leaving the cycle is below 0
            x = (INF if any(plus.get(v, 0) > 0 for v in scc)
                 else max(val.get(w, 0) for v in scc for w in succ[v]))
            val.update(dict.fromkeys(scc, x))
    return val


def _settle_cycle(scc: list[N], succ: Succ, rule: Mapping[N, str] | list[str],
                  val: dict[N, int | float], cutoff: float) -> None:
    """Least values of one cyclic component, given every node it reaches.

    At level v, the nodes of value at most v are the largest set X whose
    equations all come out at most v when X sits at v and the settled
    nodes at their values. Whether an equation stays at most v depends
    only on which successors are at most v and which at most v - 1, so X
    is the complement of a backward closure: a node exceeds v when its own
    settled successors force it to, or when it needs every successor at
    most v and one of them exceeds v. Between two values w, w + 1 of
    settled successors nothing changes, so the levels jump from one such
    value to the next; when none is left, or the level passes the cutoff,
    the nodes still open are ∞. Each level is linear in the component.
    """
    users = reverse({p: succ[p] for p in scc})
    open_ = scc
    v = 0
    while open_ and v <= cutoff:
        forced: list[N] = []
        needs_all: dict[N, int] = {}
        for p in open_:
            known = [val[q] for q in succ[p] if q in val]
            r = rule[p]
            if r in ("strict", "equal") and any(w < v for w in known):
                continue  # one settled successor pays for the +1
            if r == "strict" or any(w > v for w in known):
                forced.append(p)
            else:
                needs_all[p] = 1
        over = closure(forced, users, needs_all)
        for p in open_:
            if p not in over:
                val[p] = v
        open_ = [p for p in open_ if p in over]
        v = min((x for p in open_ for q in succ[p] if q in val
                 for x in (val[q], val[q] + 1) if x > v), default=INF)
    for p in open_:
        val[p] = INF

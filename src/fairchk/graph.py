"""Graph algorithms shared by the fixpoint passes.

The termination-path graph of the checker and the premise graph of a
subtyping witness are both solved component by component, sinks first.
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


def tarjan(nodes: Iterable[N], succ: Mapping[N, list[N]] | list[list[N]]) -> list[list[N]]:
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


def cyclic(scc: list[N], succ: Mapping[N, list[N]] | list[list[N]]) -> bool:
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

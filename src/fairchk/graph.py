"""Strongly connected components, shared by the fixpoint passes.

The termination-path graph of the checker and the premise graph of a
subtyping witness are both solved component by component, sinks first.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import TypeVar

N = TypeVar("N", bound=Hashable)


def tarjan(nodes: list[N], succ: dict[N, list[N]]) -> list[list[N]]:
    """Iterative strongly-connected components, deterministic order.

    Every component comes out after all the components it reaches, so a
    caller that walks the list in order meets the successors first.
    """
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    sccs: list[list[N]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work: list[tuple[N, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            for j in range(pi, len(succ[v])):
                w = succ[v][j]
                if w not in index:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
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


def cyclic(scc: list[N], succ: dict[N, list[N]]) -> bool:
    """The component holds a cycle: two members or more, or a self-loop."""
    return len(scc) > 1 or scc[0] in succ[scc[0]]

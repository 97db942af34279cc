"""Graph algorithms shared by the fixpoint passes.

The ranks of the checker's termination-path graph and the weights of a
subtyping witness's premise graph are one call each of `least`, which
solves equations given as data component by component, sinks first.
Every least set closed backwards along edges (bounded occurrences,
configurations that can terminate, the pairs above a level of the weight
solver) is one call of `closure`. Every forward search (the nodes of a
type, the pairs an equivalence question compares, a subtyping simulation
with its witness or its failure pair, the configurations of `graph`, a
layer of the session rank's search) is one call of `reach`, or of
`numbered` when the closure that follows needs the nodes numbered and
their predecessors (the nodes of a type in a boundedness question, the
configurations of a compatibility question).

`tarjan`, `least` and `closure` take dense node numbers 0..n-1 and keep
their state per node in lists indexed by number: each caller numbers the
nodes it searched (the checker's occurrences already are numbers, a
witness is numbered in witness order, configurations and type nodes in
the order their search met them). `reach` and `numbered` alone take any
hashable node, because they are the searches that find them.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable, Iterator

INF = float("inf")


def tarjan(succ: list[list[int]]) -> list[list[int]]:
    """Iterative strongly-connected components, deterministic order.

    The nodes are 0..n-1 with n = len(succ), tried as roots in that order.
    Every component comes out after all the components it reaches, so a
    caller that walks the list in order meets the successors first. Each
    work frame holds its node's successor iterator and resumes it where it
    stopped (Tarjan, "Depth-first search and linear graph algorithms",
    1972), so every edge is looked at once. A node whose component has come
    out reads index n, above every low link, so it needs no stack flag.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, ws = work[-1]
            for w in ws:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if index[w] < low[v]:
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
                        index[w] = n
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)
    return sccs


def cyclic(scc: list[int], succ: list[list[int]]) -> bool:
    """The component holds a cycle: two members or more, or a self-loop."""
    return len(scc) > 1 or scc[0] in succ[scc[0]]


def reverse(succ: list[list[int]]) -> list[list[int]]:
    """The predecessor lists of successor lists, one entry per edge."""
    pred: list[list[int]] = [[] for _ in succ]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)
    return pred


def closure(seeds: Iterable[int], pred: list[list[int]],
            need: list[int] | None = None) -> list[bool]:
    """Which nodes lie in the least set that holds the seeds and every
    node v with at least need[v] of its successors in it.

    The nodes are 0..n-1 with n = len(pred), and `pred[w]` lists the nodes
    that have w as a successor, once per edge. Without `need` every node
    needs one successor; a node whose need is 0 joins only as a seed. Each
    node counts the successors it still lacks and joins when the count
    reaches zero, so every edge is followed once (Liu & Smolka, "Simple
    linear-time algorithms for minimal fixed points", 1998).
    """
    inside = [False] * len(pred)
    lacking = [1] * len(pred) if need is None else list(need)
    todo = []
    for v in seeds:
        if not inside[v]:
            inside[v] = True
            todo.append(v)
    while todo:
        for v in pred[todo.pop()]:
            if not inside[v]:
                lacking[v] -= 1
                if lacking[v] == 0:
                    inside[v] = True
                    todo.append(v)
    return inside


def reach(roots: Iterable[Hashable], succ: Callable[[Hashable], Iterable[Hashable]]
          ) -> Iterator[Hashable]:
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


def numbered(root: Hashable, succ: Callable[[Hashable], Iterable[Hashable]]
             ) -> tuple[dict[Hashable, int], list[list[int]]]:
    """Every node reachable from the root, numbered 0, 1, … breadth first,
    in the order `reach` would meet them, and their predecessor lists by
    number, one entry per edge: the input `closure` takes. `succ(v)` is
    called once per node, and each edge is looked up once, in `num`.
    """
    num = {root: 0}
    order = [root]
    pred: list[list[int]] = [[]]
    for k, v in enumerate(order):  # `order` grows while it is read
        for w in succ(v):
            j = num.get(w)
            if j is None:
                j = num[w] = len(order)
                order.append(w)
                pred.append([])
            pred[j].append(k)
    return num, pred


def least(sccs: list[list[int]], succ: list[list[int]], rule: list[str],
          plus: list[int], cutoff: float = INF) -> list[int | float]:
    """Least solution of one equation per node, over `tarjan`'s `sccs`.

    Node v's value is `plus[v]` added to its successors' values combined
    by `rule[v]`: "sum" adds them, "strict" is 1 + the least, "equal" is
    the smaller of 1 + the least and the largest, and any other rule takes
    the largest, or 0 when there are none. A node off every cycle
    evaluates once, and a value above `cutoff` is ∞. A cycle with no
    "strict" or "equal" member takes one pass: ∞ when a member has a
    positive constant, else every member gets the largest value that
    leaves it (so a "sum" member on a cycle needs a constant). Any other
    cycle goes to `_settle_cycle`, which reads no constants. The values
    come back by node number; a node in no component has None.
    """
    val: list = [None] * len(succ)
    for scc in sccs:
        v = scc[0]
        ws = succ[v]
        if len(scc) == 1 and v not in ws:
            r = rule[v]
            if len(ws) == 1:  # every rule but "strict" passes one value on
                x = val[ws[0]]
                if r == "strict":
                    x += 1
            elif r == "sum":
                x = sum([val[w] for w in ws])
            elif r == "strict":
                x = 1 + min([val[w] for w in ws])
            elif r == "equal":
                xs = [val[w] for w in ws]
                x = min(1 + min(xs), max(xs))
            elif ws:
                x = max([val[w] for w in ws])
            else:
                x = 0
            x += plus[v]
            val[v] = INF if x > cutoff else x
        elif any(rule[v] == "strict" or rule[v] == "equal" for v in scc):
            _settle_cycle(scc, succ, rule, val, cutoff)
        else:
            # members still read 0, and no value leaving the cycle is below 0
            x = (INF if any(plus[v] > 0 for v in scc)
                 else max(val[w] or 0 for v in scc for w in succ[v]))
            for v in scc:
                val[v] = x
    return val


def _settle_cycle(scc: list[int], succ: list[list[int]], rule: list[str],
                  val: list, cutoff: float) -> None:
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
    the nodes still open are ∞. Each level is linear in the component:
    its members are numbered 0..m-1 in `scc` order for the closure, and a
    node not yet settled reads None in `val`.
    """
    local = {p: k for k, p in enumerate(scc)}
    users = reverse([[local[q] for q in succ[p] if q in local] for p in scc])
    open_ = list(range(len(scc)))
    v = 0
    while open_ and v <= cutoff:
        forced: list[int] = []
        need = [0] * len(scc)
        for k in open_:
            p = scc[k]
            known = [val[q] for q in succ[p] if val[q] is not None]
            r = rule[p]
            if r in ("strict", "equal") and any(w < v for w in known):
                continue  # one settled successor pays for the +1
            if r == "strict" or any(w > v for w in known):
                forced.append(k)
            else:
                need[k] = 1
        over = closure(forced, users, need)
        for k in open_:
            if not over[k]:
                val[scc[k]] = v
        open_ = [k for k in open_ if over[k]]
        v = min((x for k in open_ for q in succ[scc[k]] if val[q] is not None
                 for x in (val[q], val[q] + 1) if x > v), default=INF)
    for k in open_:
        val[scc[k]] = INF

"""Regular session-type trees: interning, duality, equivalence, boundedness.

A session type is a possibly infinite but regular tree. We keep every tree as
a rooted subgraph of a TypeTable, where each node is one of

    ("end", pol)                     terminated endpoint, pol in {"!", "?"}
    ("tags", pol, ((label, id), …))  internal (!) or external (?) label choice
    ("chan", pol, payload, cont)     channel delegation prefix

Ids are plain ints into the table. Equal ids always denote equal trees; the
converse is not guaranteed, so semantic comparisons go through `equiv`.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .graph import closure, reach, reverse

OUT = "!"
IN = "?"

INF = float("inf")

# Longest unfolding `TypeTable.render` prints. A type that shares a child
# between two branches unfolds to a text exponential in its size, so past
# this many characters shared nodes are printed once each, as equations.
RENDER_LIMIT = 4096


def co(pol: str) -> str:
    """Dual polarity."""
    return IN if pol == OUT else OUT


class TypeTable:
    """Append-only store of session-type nodes.

    Construction happens in two ways: `add` hash-conses a complete node,
    while `placeholder`/`fill` support cyclic definitions (allocate first,
    fill once the children exist). After resolution the table is treated as
    immutable except for `add`, which later phases use to materialize
    singleton output nodes; hash-consing keeps that bounded.
    """

    def __init__(self) -> None:
        self.nodes: list[Optional[tuple]] = []
        self.name_hint: dict[int, str] = {}
        # type name -> id, every typedef of the program (aliases too); the
        # equation form of `render` gives these names to no other node
        self.type_names: dict[str, int] = {}
        self._cons: dict[tuple, int] = {}

    def placeholder(self, hint: str | None = None) -> int:
        self.nodes.append(None)
        i = len(self.nodes) - 1
        if hint:
            self.name_hint[i] = hint
        return i

    def fill(self, i: int, node: tuple) -> None:
        if self.nodes[i] is not None:
            raise ValueError(f"node {i} already filled")
        self.nodes[i] = node

    def add(self, node: tuple) -> int:
        got = self._cons.get(node)
        if got is not None:
            return got
        self.nodes.append(node)
        i = len(self.nodes) - 1
        self._cons[node] = i
        return i

    def node(self, i: int) -> tuple:
        n = self.nodes[i]
        if n is None:
            raise ValueError(f"node {i} never filled")
        return n

    def kind(self, i: int) -> str:
        return self.node(i)[0]

    def branches(self, i: int) -> dict[str, int]:
        """Label → child id of a tags node, insertion order preserved."""
        n = self.node(i)
        assert n[0] == "tags"
        return dict(n[2])

    def labels(self, i: int) -> list[str]:
        """Sorted labels of a tags node; semantic iteration order."""
        return sorted(self.branches(i))

    def children(self, i: int) -> list[int]:
        n = self.node(i)
        if n[0] == "end":
            return []
        if n[0] == "tags":
            return [c for _, c in n[2]]
        return [n[2], n[3]]

    def reachable(self, i: int) -> set[int]:
        return set(reach([i], self.children))

    def singleton(self, i: int, label: str) -> int:
        """The output node !{label: S} obtained by picking one branch of i."""
        n = self.node(i)
        assert n[0] == "tags" and n[1] == OUT
        child = dict(n[2])[label]
        return self.add(("tags", OUT, ((label, child),)))

    # Rendering is for diagnostics. Cycles are cut by emitting the name
    # hint (or a generated one) at the second visit. Shared children would
    # make the unfolding exponential, so past RENDER_LIMIT characters it
    # gives way to equations, one per shared node.

    def render(self, i: int) -> str:
        """The tree at i, unfolded until a node repeats on the current path.

        When a composite node other than i is reached by two edges and the
        unfolding passes RENDER_LIMIT characters, the text is the equation
        form instead: i unfolded up to the shared nodes, which appear by
        name, then ` where N1 = body1, N2 = body2, …`, one equation per
        shared node in the order the names first appear. The equation form,
        like an unfolding with nothing shared, prints each node once.
        """
        shared = self._shared(i)
        if not shared:
            return self._unfold(i, (), self._name)
        text = self._unfold(i, (), self._name, RENDER_LIMIT)
        return text if text is not None else self._equations(i, shared)

    def _shared(self, i: int) -> set[int]:
        """The composite nodes other than i with two or more incoming edges
        from the nodes reachable from i."""
        edges = Counter(c for j in self.reachable(i) for c in self.children(j))
        return {c for c, k in edges.items() if k > 1 and c != i and self.kind(c) != "end"}

    def _equations(self, i: int, shared: set[int]) -> str:
        # i and the shared nodes get names in the order they are first
        # referred to; a name is unique in the text and is no other node's
        # type name
        names: dict[int, str] = {}
        used: set[str] = set()
        texts: list[str] = []

        def ref(j: int) -> str:
            got = names.get(j)
            if got is None:
                base = got = self._name(j)
                k = 0
                while got in used or self.type_names.get(got, j) != j:
                    k += 1
                    got = f"{base}_{k}"
                used.add(got)
                names[j] = got
            return got

        def unfold(j: int) -> list[int]:
            # j's text goes to texts; the nodes it names are j's successors
            named: list[int] = []
            texts.append(self._unfold(j, cut, lambda c: named.append(c) or ref(c)))
            return named

        ref(i)
        cut = shared | {i}
        order = list(reach([i], unfold))
        eqs = ", ".join(f"{names[j]} = {t}" for j, t in zip(order[1:], texts[1:]))
        return f"{texts[0]} where {eqs}"

    def _unfold(self, i: int, cut, ref, limit: float = INF) -> Optional[str]:
        """The tree at i, with a node on the current path or in `cut` shown
        as ref(node); None as soon as the text passes `limit` characters.

        An explicit stack instead of recursion, so that deep types render.
        Each open node keeps its own list of parts and joins it when it
        closes; its parent then holds one string per child, not every
        fragment below it.
        """
        # id -> (head, [(separator, child), ...], tail); an end node has
        # its whole text as head and None for the children
        shapes: dict[int, tuple] = {}

        def shape(j: int) -> tuple:
            got = shapes.get(j)
            if got is None:
                n = self.node(j)
                if n[0] == "end":
                    got = (f"end{n[1]}", None, "")
                elif n[0] == "tags":
                    got = (f"{n[1]}{{", [(f", {l}: " if k else f"{l}: ", c)
                                         for k, (l, c) in enumerate(n[2])], "}")
                else:
                    got = (f"{n[1]}(", [("", n[2]), (").", n[3])], "")
                shapes[j] = got
            return got

        head, kids, tail = shape(i)
        if kids is None:
            return head
        size = len(head)
        on_path = {i}
        stack = [(i, [head], iter(kids), tail)]
        while True:
            j, parts, todo, tail = stack[-1]
            for sep, c in todo:
                parts.append(sep)
                if c in on_path or c in cut:
                    head, kids = ref(c), None
                else:
                    head, kids, ctail = shape(c)
                size += len(sep) + len(head)
                if size > limit:
                    return None
                if kids is None:
                    parts.append(head)
                    continue
                on_path.add(c)
                stack.append((c, [head], iter(kids), ctail))
                break
            else:
                parts.append(tail)
                size += len(tail)
                if size > limit:
                    return None
                stack.pop()
                on_path.discard(j)
                text = "".join(parts)
                if not stack:
                    return text
                stack[-1][1].append(text)

    def _name(self, i: int) -> str:
        return self.name_hint.get(i, f"t{i}")


def dual(table: TypeTable, i: int) -> int:
    """Flip every polarity along the carrier; payloads stay as they are.

    The exchanged channel in a delegation is the same object at both ends,
    so only the spine of the protocol is dualized. Placeholders are taken
    in depth-first preorder, children in order, and filled once all exist;
    an explicit stack keeps long carriers off the call stack.
    """
    memo: dict[int, int] = {}
    order: list[int] = []
    stack = [i]
    while stack:
        j = stack.pop()
        if j in memo:
            continue
        n = table.node(j)
        memo[j] = table.placeholder(hint="co_" + table._name(j))
        order.append(j)
        if n[0] == "tags":
            stack.extend(c for _, c in reversed(n[2]))
        elif n[0] == "chan":
            stack.append(n[3])
    for j in order:
        n = table.node(j)
        if n[0] == "end":
            filled = ("end", co(n[1]))
        elif n[0] == "tags":
            filled = ("tags", co(n[1]), tuple((l, memo[c]) for l, c in n[2]))
        else:
            filled = ("chan", co(n[1]), n[2], memo[n[3]])
        table.fill(memo[j], filled)
    return memo[i]


def equiv(table: TypeTable, a: int, b: int) -> bool:
    """Tree equality, decided as a bisimulation over the reachable product.

    Every pair under matched descent from (a, b) must agree in kind,
    polarity and labels; a pair of equal ids is not descended into.
    """
    for i, j in reach([(a, b)], lambda p: [] if p[0] == p[1] else _matched(table, *p)):
        ni, nj = table.node(i), table.node(j)
        if ni[:2] != nj[:2]:
            return False
        if ni[0] == "tags" and dict(ni[2]).keys() != dict(nj[2]).keys():
            return False
    return True


def is_bounded(table: TypeTable, i: int) -> bool:
    """True when every subtree can still reach a terminated endpoint."""
    nodes = table.reachable(i)
    ends = [j for j in nodes if table.kind(j) == "end"]
    return nodes <= closure(ends, reverse({j: table.children(j) for j in nodes}))


def reachable_pairs(table: TypeTable, a: int, b: int) -> set[tuple[int, int]]:
    """Product closure under matched descent.

    This is the carrier on which subtyping simulations are solved. The
    weight system is solved on the simulation's witness, a part of it.
    """
    return set(reach([(a, b)], lambda p: _matched(table, *p)))


def _matched(table: TypeTable, i: int, j: int) -> list[tuple[int, int]]:
    """Matched descent: tags nodes pair their children under shared labels,
    in label order, chan nodes their payloads and their continuations."""
    ni, nj = table.node(i), table.node(j)
    if ni[0] == "tags" and nj[0] == "tags":
        bi, bj = dict(ni[2]), dict(nj[2])
        return [(bi[l], bj[l]) for l in sorted(set(bi) & set(bj))]
    if ni[0] == "chan" and nj[0] == "chan":
        return [(ni[2], nj[2]), (ni[3], nj[3])]
    return []

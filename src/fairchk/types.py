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

        When the unfolding passes RENDER_LIMIT characters and a composite
        node other than i is reached by two edges, the text is the equation
        form instead: i unfolded up to the shared nodes, which appear by
        name, then ` where N1 = body1, N2 = body2, …`, one equation per
        shared node in the order the names first appear. The equation form,
        like an unfolding with nothing shared, prints each node once.
        """
        text = self._print(i, RENDER_LIMIT)
        if text is None:
            shared = self._shared(i)
            text = self._print(i, cut=shared | {i}) if shared else self._print(i)
        return text

    def _shared(self, i: int) -> set[int]:
        """The composite nodes other than i with two or more incoming edges
        from the nodes reachable from i."""
        edges = Counter(c for j in self.reachable(i) for c in self.children(j))
        return {c for c, k in edges.items() if k > 1 and c != i and self.kind(c) != "end"}

    def _print(self, i: int, limit: float = INF, cut: frozenset | set = frozenset()
               ) -> Optional[str]:
        """The tree at i, with a node on the current path printed by name;
        None as soon as the text passes `limit` characters.

        With a `cut` that holds i, this is the equation form: a node in
        `cut` is printed by name too, and its equation follows the text of
        i, in the order the names first appear. Those names are unique, are
        no other node's type name, and i has the first.

        One explicit stack of pieces, taken from the top and joined once at
        the end. A piece is a string, a node id, or ~j (a negative int),
        which takes node j off the current path.
        """
        names: dict[int, str] = {}  # node in `cut` -> its name
        order: list[int] = []  # the named nodes, by first use
        used: set[str] = set()

        def name(j: int) -> str:
            got = names.get(j)
            if got is None:
                if not cut:
                    return self._name(j)
                base = got = self._name(j)
                k = 0
                while got in used or self.type_names.get(got, j) != j:
                    k += 1
                    got = f"{base}_{k}"
                used.add(got)
                names[j] = got
                order.append(j)
            return got

        # id -> (its opening text, the pieces that follow it, top last)
        shapes: dict[int, tuple[str, list]] = {}
        if cut:
            name(i)
        out: list[str] = []
        size, path = 0, set()
        # `order` grows while it is read: a body may name further nodes
        for k, body in enumerate(order if cut else [i]):
            stack = [body, f"{' where ' if k == 1 else ', '}{names[body]} = "] if k else [body]
            while stack:
                piece = stack.pop()
                if type(piece) is int:
                    if piece < 0:
                        path.discard(~piece)
                        continue
                    if piece in path or piece in cut and piece != body:
                        piece = name(piece)
                    else:
                        got = shapes.get(piece)
                        if got is None:
                            got = shapes[piece] = self._shape(piece)
                        if got[1]:
                            path.add(piece)
                            stack += got[1]
                        piece = got[0]
                size += len(piece)
                if size > limit:
                    return None
                out.append(piece)
        return "".join(out)

    def _shape(self, j: int) -> tuple[str, list]:
        """Node j's opening text and the pieces that follow it, the next
        one last: its children, the texts between them, and ~j."""
        n = self.node(j)
        if n[0] == "end":
            return f"end{n[1]}", []
        if n[0] == "chan":
            return f"{n[1]}(", [~j, n[3], ").", n[2]]
        (l, c), *rest = n[2]
        more = [~j, "}"]
        for l2, c2 in reversed(rest):
            more += (c2, f", {l2}: ")
        more.append(c)
        return f"{n[1]}{{{l}: ", more

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
    polarity and labels; a pair of equal ids is not descended into, and
    equal ids at the root are the answer without a search.
    """
    if a == b:
        return True
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

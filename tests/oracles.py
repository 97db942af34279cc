"""Independent re-computations the library is cross-checked against.

Nothing here shares algorithmic structure with the implementation: tree
equivalence is decided by bounded expansion instead of bisimulation, the
session rank by Bellman-Ford value iteration over marker states and by a
0-1 BFS instead of a layered search over materialized singletons, the
subtyping weight by a bounded derivation search and by Kleene rounds
instead of the component-by-component level solver, the simulation by full
sweeps instead of a worklist, with a pair's shape rules, premises and
weight equation read by three functions instead of one, typing by
unfolding definitions instead of the coinductive assumption set, ranks
and action bounds by walks that unfold each definition at most once
instead of fixpoints over the termination-path graph, free channels by
recursion and by a set for every occurrence instead of one pass per
program that keeps exact sets only where the typing walk reads, least
closures and reachability by Kleene rounds instead of worklists, strongly connected
components by rescanning a node's successors from an index instead of
resuming an iterator, branch inference by two graph builds per choice
instead of one,
type rendering, duality and the typing walk by recursion instead of an
explicit stack, type rendering also by the former pair of printers (an
unfolding that joins each subtree's text into its parent's, and a separate
equation printer) instead of one stack of pieces, the simulation also by
judging the whole pair carrier and closing backwards from its shape
violations instead of one forward search that stops at the first,
compatibility, the session rank and the DOT text also on a stored
configuration graph instead of the transition function searched directly,
syntax printing by recursion instead of a stack of pieces, the
interpreter's redexes by a
rebuild of the whole list at every step instead of an index that re-reads
only the threads a step touched, the interpreter itself by threads that
hold syntax nodes instead of occurrence numbers read through a table per
occurrence, tokens by a
loop over single characters, by a regular expression per line and by one
regular expression match per token instead of cutting the whole text with
string methods and looking positions up later, and
the interning of type annotations by recursion, with a fresh alias chase
per name, instead of a post-order stack and a memo per name, and also by
a placeholder per typedef and a frame for every constructor, one call per
body, instead of one walk over all the bodies that writes each into a slot
allocated with the others and gives no frame to a body of leaves, and the
order of a program's occurrence numbers by recursion instead of a numbering stack.
"""

import re
import string
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass, field
from operator import itemgetter

from fairchk import types
from fairchk.graph import reach
from fairchk.runtime import RULES, RunOutcome, SplitMix64, TraceEntry
from fairchk.semantics import Config, compatible, moves, session_rank
from fairchk.subtyping import Simulation, _judge, fair_subtype, simulate, solve_weights
from fairchk.surface import (Call, Cast, ChanIn, ChanOut, Choice, Close, Done,
                             NewSession, ProcDef, ProcExpr, Program, SourceError,
                             SourceProgram, TagComm, TChan, TEnd, TName, TTags,
                             TypeExpr, Wait, _COMMENT, _WORD, children, render,
                             source_error, token_positions)
from fairchk.typecheck import Checker, TermGraph, _Abort
from fairchk.types import INF, OUT, TypeTable, _matched, co, equiv


# -- tokens, one character at a time ------------------------------------------------

IDENT_START = set(string.ascii_letters + "_")
DIGITS = set(string.digits)
IDENT_CONT = IDENT_START | DIGITS | {"'"}
PUNCT = "(){}[]:,./=!?+|@"


def lex_charwise(src: str) -> list[tuple[str, str, int, int]]:
    """The (kind, text, line, col) tokens of src, by a loop over its characters."""
    toks = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "-" and src[i : i + 2] == "--":
            while i < n and src[i] != "\n":
                i += 1
        elif c in IDENT_START:
            j = i
            while j < n and src[j] in IDENT_CONT:
                j += 1
            toks.append(("ident", src[i:j], line, col))
            col += j - i
            i = j
        elif c in DIGITS:
            j = i
            while j < n and src[j] in DIGITS:
                j += 1
            toks.append(("nat", src[i:j], line, col))
            col += j - i
            i = j
        elif c in PUNCT:
            toks.append((c, c, line, col))
            i += 1
            col += 1
        else:
            raise SourceError(f"unexpected character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


# -- tokens, one regular expression per line ----------------------------------------

# One token per match; the search skips blanks (space, tab, CR), each one
# column wide. The last alternative takes any other character.
_LINE_TOKEN = re.compile(r"(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<nat>[0-9]+)"
                         r"|[(){}\[\]:,./=!?+|@]|(?P<bad>[^ \t\r])")


def lex_lines(src: str) -> list[tuple[str, str, int, int]]:
    """The (kind, text, line, col) tokens of src, by a `finditer` per line."""
    toks = []
    lines = src.split("\n")  # only "\n" ends a line
    for line_no, line in enumerate(lines, 1):
        # No token contains "-", so the first "--" starts a comment, unless
        # the line goes wrong before it.
        end = line.find("--")
        if end < 0:
            end = len(line)
        toks += [(m.lastgroup or m[0], m[0], line_no, m.start() + 1)
                 for m in _LINE_TOKEN.finditer(line, 0, end)]
    if "bad" in map(itemgetter(0), toks):
        _, c, line_no, col = next(t for t in toks if t[0] == "bad")
        raise SourceError(f"unexpected character {c!r}", line_no, col)
    # eof follows the last line, or sits where its comment starts: a comment
    # takes no columns.
    toks.append(("eof", "", len(lines), end + 1))
    return toks


# -- tokens, one findall over the whole text ----------------------------------------

# The search skips blanks (space, tab, CR, LF). The group holds a token. A
# comment, and any other character, match outside it and come back as "".
# No token contains "-", so a "--" outside a token starts a comment.
_TOKEN = re.compile(rf"({_WORD})|{_COMMENT.pattern}|[^ \t\r\n]")


def lex_findall(src: str) -> list[str]:
    """The tokens of src, then "" for eof, by one `findall`; SourceError at a
    stray character, from the position table."""
    toks = _TOKEN.findall(src)
    blanks = toks.count("")
    if blanks:
        # more blanks than comments: a stray character, which the position
        # table's pass reports where it first occurs
        if blanks != len(_COMMENT.findall(src)):
            token_positions(src)
        toks = list(filter(None, toks))
    toks.append("")
    return toks


# -- the order of occurrence numbers by recursion ----------------------------------

def preorder(p: ProcExpr) -> list[ProcExpr]:
    """Every node under p, each before its children, in source order: the
    order in which `Program` numbers a body."""
    order: list[ProcExpr] = []

    def visit(n: ProcExpr) -> None:
        order.append(n)
        for c in children(n):
            visit(c)

    visit(p)
    return order


# -- name resolution by recursion --------------------------------------------------

def resolve_recursive(sp: SourceProgram) -> Program:
    """`surface.resolve` with `intern` recursing on the type expression."""
    src = sp.source
    by_name: dict[str, TypeExpr] = {}
    for name, body, at in sp.typedefs:
        if name in by_name:
            raise source_error(src, f"duplicate type definition {name!r}", at)
        by_name[name] = body

    # A typedef whose body is a bare name is an alias. Follow alias chains
    # now so cycles that never cross a constructor are caught up front. A
    # chain is followed by a loop, and every alias on it remembers where it
    # ends, so each alias is resolved once however long the chains are.
    ends: dict[str, str] = {}

    def chase(name: str) -> str:
        path: dict[str, None] = {}  # insertion-ordered, constant-time lookup
        while name not in ends and isinstance(by_name[name], TName):
            body = by_name[name]
            if body.name not in by_name:
                raise source_error(src, f"undefined type name {body.name!r}", body.at)
            path[name] = None
            if body.name in path:
                raise source_error(src, f"non-contractive type definition {name!r}",
                                   body.at)
            name = body.name
        end = ends.get(name, name)
        for alias in path:
            ends[alias] = end
        return end

    table = TypeTable()
    slots: dict[str, int] = {}
    for name, body, _ in sp.typedefs:
        if not isinstance(body, TName):
            slots[name] = table.placeholder(hint=name)

    def intern(t: TypeExpr, slot: int | None = None) -> int:
        """The id of t; a constructor goes into `slot` when one is given."""
        if isinstance(t, TName):
            if t.name not in by_name:
                raise source_error(src, f"undefined type name {t.name!r}", t.at)
            return slots[chase(t.name)]
        if isinstance(t, TEnd):
            node: tuple = ("end", t.pol)
        elif isinstance(t, TTags):
            node = ("tags", t.pol, tuple((l, intern(b)) for l, b in t.branches))
        else:
            node = ("chan", t.pol, intern(t.payload), intern(t.cont))
        if slot is None:
            return table.add(node)
        table.fill(slot, node)
        return slot

    typedefs: dict[str, int] = {}
    for name, body, _ in sp.typedefs:
        # a typedef fills its slot in place rather than via add(), to keep
        # the name tied to a stable id even when an identical anonymous
        # shape exists
        if not isinstance(body, TName):
            typedefs[name] = intern(body, slots[name])
    for name, body, _ in sp.typedefs:
        if isinstance(body, TName):
            typedefs[name] = slots[chase(name)]
    table.type_names = typedefs

    procs: dict[str, ProcDef] = {}
    for d in sp.procdefs:
        if d.name in procs:
            raise source_error(src, f"duplicate process definition {d.name!r}", d.at)
        procs[d.name] = d

    program = Program(table, typedefs, procs, src)
    # occurrences are counted here, in preorder across the definitions
    number = 0
    for d in procs.values():
        seen_params = set()
        for v, _ in d.params:
            if v in seen_params:
                raise source_error(src, f"duplicate parameter {v!r} in {d.name}", d.at)
            seen_params.add(v)
        program.param_tids[d.name] = [intern(t) for _, t in d.params]
        for p in preorder(d.body):
            if isinstance(p, Call) and p.name not in procs:
                raise source_error(src, f"undefined process name {p.name!r}", p.at)
            if isinstance(p, ChanIn):
                program.tids[number] = (intern(p.ann),)
            elif isinstance(p, Cast):
                program.tids[number] = (intern(p.target),)
            elif isinstance(p, NewSession):
                program.tids[number] = (intern(p.lty), intern(p.rty))
            number += 1
    return program


# -- name resolution with a frame per constructor -----------------------------

def resolve_frames(sp: SourceProgram) -> Program:
    """`surface.resolve` as it was before it allocated every typedef's slot
    in one step: a placeholder per typedef, and a frame for every
    constructor, the root of each body too, one `intern` call per body."""
    src = sp.source
    by_name: dict[str, TypeExpr] = {}
    for name, body, at in sp.typedefs:
        if name in by_name:
            raise source_error(src, f"duplicate type definition {name!r}", at)
        by_name[name] = body

    # A typedef whose body is a bare name is an alias; every other typedef
    # has its id in `ids` from the start.
    table = TypeTable()
    ids = {name: table.placeholder(hint=name)
           for name, body, _ in sp.typedefs if not isinstance(body, TName)}

    def type_id(name: str, at: int) -> int:
        """The id of type name `name`, used at token `at`.

        An alias chain is followed by a loop, so a cycle that never crosses
        a constructor is caught here, and every alias on the path gets the
        id the chain ends at: each alias is followed once however long the
        chains are.
        """
        path: set[str] = set()
        while (tid := ids.get(name)) is None:
            if name not in by_name:
                raise source_error(src, f"undefined type name {name!r}", at)
            if name in path:
                raise source_error(src, f"non-contractive type definition {alias!r}", at)
            path.add(name)
            alias, body = name, by_name[name]
            name, at = body.name, body.at
        for alias in path:
            ids[alias] = tid
        return tid

    def intern(root: TypeExpr, slot: int | None = None) -> int:
        """The id of root; a constructor goes into `slot` when one is given.

        A post-order walk on an explicit stack of frames, one per
        constructor still open: the node, its label in its parent, its
        (label, id) pairs so far, and an iterator over its (label, child)
        pairs, where a channel's payload and continuation carry no label.
        Children are interned left to right before their parent, so the ids
        and the first error are those of a left-to-right recursion. A name
        or `end` leaf is interned where it is met and never gets a frame; a
        constructor whose iterator is spent builds its table tuple straight
        from its pairs and hands its id to the frame below.
        """
        kind = type(root)
        if kind is TName:
            return type_id(root.name, root.at)
        if kind is TEnd:
            node: tuple = ("end", root.pol)
        else:
            frames = [(root, None, [], iter(root.branches) if kind is TTags
                       else iter(((None, root.payload), (None, root.cont))))]
            while True:
                t, label, pairs, rest = frames[-1]
                for key, c in rest:  # resumes after the child last descended into
                    kind = type(c)
                    if kind is TName:
                        tid = ids.get(c.name)
                        pairs.append((key, type_id(c.name, c.at) if tid is None else tid))
                    elif kind is TEnd:
                        pairs.append((key, table.add(("end", c.pol))))
                    else:
                        frames.append((c, key, [], iter(c.branches) if kind is TTags
                                       else iter(((None, c.payload), (None, c.cont)))))
                        break
                else:
                    frames.pop()
                    node = (("tags", t.pol, tuple(pairs)) if type(t) is TTags
                            else ("chan", t.pol, pairs[0][1], pairs[1][1]))
                    if not frames:  # the root is finished last
                        break
                    frames[-1][2].append((label, table.add(node)))
        if slot is None:
            return table.add(node)
        table.fill(slot, node)
        return slot

    typedefs: dict[str, int] = {}
    for name, body, _ in sp.typedefs:
        # a typedef fills its slot in place rather than via add(), to keep
        # the name tied to a stable id even when an identical anonymous
        # shape exists
        if not isinstance(body, TName):
            typedefs[name] = intern(body, ids[name])
    for name, body, at in sp.typedefs:
        if isinstance(body, TName):
            typedefs[name] = type_id(name, at)
    table.type_names = typedefs

    procs: dict[str, ProcDef] = {}
    for d in sp.procdefs:
        if d.name in procs:
            raise source_error(src, f"duplicate process definition {d.name!r}", d.at)
        procs[d.name] = d

    program = Program(table, typedefs, procs, src)
    nodes, tids = program.nodes, program.tids
    # definition by definition, parameters before body: the first error
    # found is the first in source order
    bounds = [*program.start.values(), len(nodes)]
    for d, first, end in zip(procs.values(), bounds, bounds[1:]):
        seen_params = set()
        for v, _ in d.params:
            if v in seen_params:
                raise source_error(src, f"duplicate parameter {v!r} in {d.name}", d.at)
            seen_params.add(v)
        program.param_tids[d.name] = [intern(t) for _, t in d.params]
        for v, p in enumerate(nodes[first:end], first):
            if isinstance(p, Call) and p.name not in procs:
                raise source_error(src, f"undefined process name {p.name!r}", p.at)
            if isinstance(p, ChanIn):
                tids[v] = (intern(p.ann),)
            elif isinstance(p, Cast):
                tids[v] = (intern(p.target),)
            elif isinstance(p, NewSession):
                tids[v] = (intern(p.lty), intern(p.rty))
    return program


# -- raw transitions of one endpoint type ------------------------------------------

TAU = ("tau",)


def type_transitions(table: TypeTable, i) -> list[tuple[tuple, int]]:
    """Raw transitions of one endpoint type: a table id, or a singleton
    output node the table does not hold.

    Output choices first commit silently to a singleton and only then expose
    the tag action, so a multi-branch output has no visible transitions. A
    singleton the table holds is its id, and any other is the node itself.
    """
    n = i if type(i) is tuple else table.node(i)
    if n[0] == "end":
        return []
    if n[0] == "chan":
        return [(("chan", n[1], n[2]), n[3])]
    out: list[tuple[tuple, int]] = []
    if n[1] == OUT:
        for branch in n[2]:
            out.append((TAU, table.lookup(("tags", OUT, (branch,)))))
        if len(n[2]) == 1:
            label, child = n[2][0]
            out.append((("tag", OUT, label), child))
    else:
        for label, child in n[2]:
            out.append((("tag", "?", label), child))
    return out


def rank_compatibility_agreement(table: TypeTable, s: int, t: int) -> dict:
    """Cross-check: a compatible pair must have a finite rank."""
    comp = compatible(table, s, t)
    rank = session_rank(table, s, t)
    return {
        "compatible": comp,
        "rank": rank,
        "consistent": (not comp) or rank < INF,
    }


# -- ranks and action bounds by cutoff walks ----------------------------------------

def cast_weight(ck: Checker, p: ProcExpr) -> int:
    """The weight the checker gave cast p, which it keeps by occurrence
    number; 0 for a cast it has not weighed."""
    return next((w for v, w in ck.cast_weight.items() if ck.nodes[v] is p), 0)


def marker(ck: Checker, p: Choice) -> int:
    """The marker the checker holds for choice p, which it keeps by
    occurrence number."""
    return next(k for v, k in ck.marker.items() if ck.nodes[v] is p)


def min_rank(ck: Checker, p: ProcExpr, visited: frozenset[str],
             memo: dict | None = None) -> int:
    """The cutoff rank equations; calls unfold at most once per name."""
    if memo is None:
        memo = {}
    key = (id(p), visited)
    if key in memo:
        return memo[key]
    if isinstance(p, (Done, Close)):
        r = 0
    elif isinstance(p, (Wait, ChanOut, ChanIn)):
        r = min_rank(ck, p.cont, visited, memo)
    elif isinstance(p, Cast):
        r = cast_weight(ck, p) + min_rank(ck, p.cont, visited, memo)
    elif isinstance(p, TagComm):
        r = max(min_rank(ck, b, visited, memo) for _, b in p.branches)
    elif isinstance(p, Choice):
        r = min_rank(ck, p.left if marker(ck, p) == 1 else p.right, visited, memo)
    elif isinstance(p, NewSession):
        r = 1 + min_rank(ck, p.left, visited, memo) + min_rank(ck, p.right, visited, memo)
    elif isinstance(p, Call):
        if p.name in visited:
            r = 0
        else:
            r = min_rank(ck, ck.program.procs[p.name].body, visited | {p.name}, memo)
    else:
        raise TypeError(f"not a process node: {p!r}")
    memo[key] = r
    return r


def action_bounded(ck: Checker, p: ProcExpr, visiting: frozenset[str],
                   memo: dict | None = None) -> bool:
    """Some branch reaches done or close without unfolding a name twice."""
    if memo is None:
        memo = {}
    key = (id(p), visiting)
    if key in memo:
        return memo[key]
    if isinstance(p, (Done, Close)):
        r = True
    elif isinstance(p, (Wait, ChanOut, ChanIn, Cast)):
        r = action_bounded(ck, p.cont, visiting, memo)
    elif isinstance(p, TagComm):
        r = any(action_bounded(ck, b, visiting, memo) for _, b in p.branches)
    elif isinstance(p, Choice):
        r = action_bounded(ck, p.left if marker(ck, p) == 1 else p.right, visiting, memo)
    elif isinstance(p, NewSession):
        r = (action_bounded(ck, p.left, visiting, memo)
             and action_bounded(ck, p.right, visiting, memo))
    elif isinstance(p, Call):
        if p.name in visiting:
            r = False
        else:
            r = action_bounded(ck, ck.program.procs[p.name].body,
                               visiting | {p.name}, memo)
    else:
        raise TypeError(f"not a process node: {p!r}")
    memo[key] = r
    return r


def term_successors(ck: Checker, p: ProcExpr) -> list[ProcExpr]:
    """The occurrences a terminating run continues with after p: the
    callee's body, the marked branch of a choice, else every sub-process."""
    if isinstance(p, Call):
        return [ck.program.procs[p.name].body]
    if isinstance(p, Choice):
        return [p.left if marker(ck, p) == 1 else p.right]
    if isinstance(p, NewSession):
        return [p.left, p.right]
    if isinstance(p, TagComm):
        return [b for _, b in p.branches]
    if isinstance(p, (Done, Close)):
        return []
    return [p.cont]


def reaches(ck: Checker, body: ProcExpr, targets: set[int]) -> bool:
    """Some termination path from `body` hits an occurrence in `targets`."""
    seen = {id(body)}
    stack = [body]
    while stack:
        n = stack.pop()
        if id(n) in targets:
            return True
        for m in term_successors(ck, n):
            if id(m) not in seen:
                seen.add(id(m))
                stack.append(m)
    return False


def cutoff_rank(ck: Checker, name: str, unsafe: set[int]) -> int | float:
    """A definition's rank: ∞ when its body reaches an unsafe occurrence,
    else the cutoff walk from its body."""
    body = ck.program.procs[name].body
    if reaches(ck, body, unsafe):
        return INF
    return min_rank(ck, body, frozenset())


# -- rendering by recursion ----------------------------------------------------

def render_recursive(table: TypeTable, i: int, under: frozenset = frozenset()) -> str:
    """`TypeTable.render` by recursion on the tree, as it prints every type
    that fits RENDER_LIMIT or shares no node below its root."""
    if i in under:
        return table._name(i)
    n = table.node(i)
    if n[0] == "end":
        return f"end{n[1]}"
    under = under | {i}
    if n[0] == "tags":
        inner = ", ".join(f"{l}: {render_recursive(table, c, under)}" for l, c in n[2])
        return f"{n[1]}{{{inner}}}"
    return (f"{n[1]}({render_recursive(table, n[2], under)})."
            f"{render_recursive(table, n[3], under)}")


def render_composed(table: TypeTable, i: int) -> str:
    """`TypeTable.render` as two printers: an unfolding on a stack where
    each open node joins its own list of parts into its parent's, and the
    equation form, which unfolds each named node once and orders the
    equations by a breadth-first search over the names each text uses."""
    edges = Counter(c for j in table.reachable(i) for c in table.children(j))
    shared = {c for c, k in edges.items() if k > 1 and c != i and table.kind(c) != "end"}
    if not shared:
        return _unfold_composed(table, i, (), table._name)
    text = _unfold_composed(table, i, (), table._name, types.RENDER_LIMIT)
    return text if text is not None else _equations_composed(table, i, shared)


def _equations_composed(table: TypeTable, i: int, shared: set[int]) -> str:
    # i and the shared nodes get names in the order they are first
    # referred to; a name is unique in the text and is no other node's
    # type name
    names: dict[int, str] = {}
    used: set[str] = set()
    texts: list[str] = []

    def ref(j: int) -> str:
        got = names.get(j)
        if got is None:
            base = got = table._name(j)
            k = 0
            while got in used or table.type_names.get(got, j) != j:
                k += 1
                got = f"{base}_{k}"
            used.add(got)
            names[j] = got
        return got

    def unfold(j: int) -> list[int]:
        # j's text goes to texts; the nodes it names are j's successors
        named: list[int] = []
        texts.append(_unfold_composed(table, j, cut, lambda c: named.append(c) or ref(c)))
        return named

    ref(i)
    cut = shared | {i}
    order = list(reach([i], unfold))
    eqs = ", ".join(f"{names[j]} = {t}" for j, t in zip(order[1:], texts[1:]))
    return f"{texts[0]} where {eqs}"


def _unfold_composed(table: TypeTable, i: int, cut, ref, limit: float = INF):
    """The tree at i, with a node on the current path or in `cut` shown as
    ref(node); None as soon as the text passes `limit` characters."""
    # id -> (head, [(separator, child), ...], tail); an end node has its
    # whole text as head and None for the children
    shapes: dict[int, tuple] = {}

    def shape(j: int) -> tuple:
        got = shapes.get(j)
        if got is None:
            n = table.node(j)
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


# -- syntax printing by recursion ------------------------------------------------

def render_syntax_recursive(n) -> str:
    """`surface.render` by recursion on the syntax tree."""
    return (_render_type_recursive(n) if isinstance(n, (TEnd, TTags, TChan, TName))
            else _render_proc_recursive(n))


def _render_type_recursive(t: TypeExpr) -> str:
    if isinstance(t, TEnd):
        return f"end{t.pol}"
    if isinstance(t, TName):
        return t.name
    if isinstance(t, TTags):
        inner = ", ".join(f"{l}: {_render_type_recursive(b)}" for l, b in t.branches)
        return f"{t.pol}{{{inner}}}"
    return f"{t.pol}({_render_type_recursive(t.payload)}). {_render_type_recursive(t.cont)}"


def _atom_recursive(p: ProcExpr) -> str:
    s = _render_proc_recursive(p)
    return f"({s})" if isinstance(p, Choice) else s


def _render_proc_recursive(p: ProcExpr) -> str:
    if isinstance(p, Done):
        return "done"
    if isinstance(p, Call):
        return f"{p.name}({', '.join(p.args)})"
    if isinstance(p, Close):
        return f"close {p.chan}"
    if isinstance(p, Wait):
        return f"wait {p.chan}. {_atom_recursive(p.cont)}"
    if isinstance(p, TagComm):
        if len(p.branches) == 1:
            label, cont = p.branches[0]
            return f"{p.chan}{p.pol}{label}. {_atom_recursive(cont)}"
        inner = ", ".join(f"{l}: {_render_proc_recursive(b)}" for l, b in p.branches)
        return f"{p.chan}{p.pol}{{{inner}}}"
    if isinstance(p, ChanOut):
        return f"{p.chan}!({p.payload}). {_atom_recursive(p.cont)}"
    if isinstance(p, ChanIn):
        return f"{p.chan}?({p.var}: {_render_type_recursive(p.ann)}). {_atom_recursive(p.cont)}"
    if isinstance(p, Choice):
        # Left operands re-associate correctly on reparse; right ones do not.
        return f"{_render_proc_recursive(p.left)} +[{p.k}] {_atom_recursive(p.right)}"
    if isinstance(p, NewSession):
        head = (f"new {p.chan}: {_render_type_recursive(p.lty)} / "
                f"{_render_type_recursive(p.rty)}")
        return (f"{head} in ({_render_proc_recursive(p.left)} | "
                f"{_render_proc_recursive(p.right)})")
    if isinstance(p, Cast):
        w = f" @{p.weight_ann}" if p.weight_ann is not None else ""
        return f"[{p.chan}: {_render_type_recursive(p.target)}{w}] {_atom_recursive(p.cont)}"
    raise TypeError(f"not a process node: {p!r}")


# -- equivalence by expansion --------------------------------------------------

def equiv_oracle(table: TypeTable, a: int, b: int) -> bool:
    """Tree equality by iterated expansion to a sufficient depth.

    Round d assigns two nodes the same identity exactly when their depth-d
    expansions are equal trees. Identities are interned ints, so the deep
    expansions stay shared instead of materializing exponentially many
    tuples; the rounds stop early once they refine nothing.
    """
    nodes = sorted(table.reachable(a) | table.reachable(b))
    depth = 2 * (len(table.reachable(a)) * len(table.reachable(b)))
    ids = {i: 0 for i in nodes}
    for _ in range(depth):
        intern: dict = {}
        nxt = {}
        for i in nodes:
            n = table.node(i)
            if n[0] == "end":
                key = n
            elif n[0] == "tags":
                key = ("tags", n[1],
                       tuple((l, ids[c]) for l, c in sorted(n[2])))
            else:
                key = ("chan", n[1], ids[n[2]], ids[n[3]])
            nxt[i] = intern.setdefault(key, len(intern))
        if nxt == ids:
            break
        ids = nxt
    return ids[a] == ids[b]


# -- session rank by value iteration -------------------------------------------

def _side_picks(table, side):
    i, pick = side
    n = table.node(i)
    if n[0] == "tags" and n[1] == "!" and len(n[2]) > 1 and pick is None:
        return [(i, l) for l, _ in n[2]]
    return []


def _side_visible(table, side):
    i, pick = side
    n = table.node(i)
    if n[0] == "chan":
        return [(("chan", n[1], n[2]), (n[3], None))]
    if n[0] == "tags":
        if n[1] == "?":
            return [(("tag", "?", l), (c, None)) for l, c in n[2]]
        if len(n[2]) == 1:
            l, c = n[2][0]
            return [(("tag", "!", l), (c, None))]
        if pick is not None:
            return [(("tag", "!", pick), (dict(n[2])[pick], None))]
    return []


def rank_oracle(table: TypeTable, s: int, t: int):
    """1 + cheapest synchronization count into an end/co-end state.

    States carry a committed-label marker instead of materialized
    singleton nodes; picks cost 0, synchronizations cost 1.
    """
    root = ((s, None), (t, None))
    states = {root}
    succ: dict = {}
    todo = [root]
    while todo:
        st = todo.pop()
        a, b = st
        moves = [(0, (a2, b)) for a2 in _side_picks(table, a)]
        moves += [(0, (a, b2)) for b2 in _side_picks(table, b)]
        for la, a2 in _side_visible(table, a):
            for lb, b2 in _side_visible(table, b):
                if la[0] != lb[0] or la[1] != co(lb[1]):
                    continue
                if la[0] == "tag" and la[2] == lb[2]:
                    moves.append((1, (a2, b2)))
                elif la[0] == "chan" and equiv(table, la[2], lb[2]):
                    moves.append((1, (a2, b2)))
        succ[st] = moves
        for _, nxt in moves:
            if nxt not in states:
                states.add(nxt)
                todo.append(nxt)

    def success(st):
        ni, nj = table.node(st[0][0]), table.node(st[1][0])
        return ni[0] == "end" and nj[0] == "end" and ni[1] == co(nj[1])

    value = {st: (0 if success(st) else INF) for st in states}
    for _ in range(len(states)):
        changed = False
        for st in states:
            if success(st):
                continue
            for cost, nxt in succ[st]:
                if cost + value[nxt] < value[st]:
                    value[st] = cost + value[nxt]
                    changed = True
        if not changed:
            break
    return INF if value[root] == INF else 1 + value[root]


# -- the configuration graph, stored -------------------------------------------

@dataclass
class ConfigGraph:
    root: Config
    nodes: list[Config]
    tau: dict[Config, list[Config]]
    # a sync is labelled by its tag, or by the carried type's id for a
    # channel payload
    sync: dict[Config, list[tuple[str | int, Config]]]
    success: set[Config] = field(default_factory=set)

    def successors(self, c: Config) -> list[Config]:
        return self.tau[c] + [d for _, d in self.sync[c]]


def build_config_graph(table: TypeTable, s: int, t: int) -> ConfigGraph:
    """The former `semantics.build_config_graph`: the configurations
    reachable from (s, t), breadth first, with their picks,
    synchronizations and successes."""
    g = ConfigGraph((s, t), [], {}, {})

    def expand(cfg: Config) -> list[Config]:
        g.tau[cfg], g.sync[cfg], done = moves(table, cfg)
        if done:
            g.success.add(cfg)
        return g.successors(cfg)

    g.nodes = list(reach([g.root], expand))
    return g


def to_dot_stored(table: TypeTable, g: ConfigGraph) -> str:
    """The former `semantics.to_dot`: GraphViz text printed from a stored
    configuration graph, all node lines first, then all edge lines. A pick
    side the table does not hold is added to a copy of it, in node order."""
    ids = {c: f"n{i}" for i, c in enumerate(g.nodes)}
    view = table.copy()

    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph config {", "  rankdir=LR;"]
    for c in g.nodes:
        a, b = [view.add(x) if type(x) is tuple else x for x in c]
        label = esc(f"{view.render(a)} # {view.render(b)}")
        shape = "doublecircle" if c in g.success else "ellipse"
        lines.append(f'  {ids[c]} [label="{label}", shape={shape}];')
    for c in g.nodes:
        for d in g.tau[c]:
            lines.append(f'  {ids[c]} -> {ids[d]} [label="pick", style=dashed];')
        for label, d in g.sync[c]:
            if isinstance(label, int):
                label = f"({view.render(label)})"
            lines.append(f'  {ids[c]} -> {ids[d]} [label="{esc(label)}"];')
    lines.append("}")
    return "\n".join(lines)


def session_rank_01bfs(table: TypeTable, s: int, t: int):
    """`session_rank` by a 0-1 BFS over the config graph: picks go to the
    front of the queue at no cost, synchronizations to the back at cost 1."""
    g = build_config_graph(table, s, t)
    dist = {g.root: 0}
    queue = deque([g.root])
    settled = set()
    while queue:
        c = queue.popleft()
        if c in settled:
            continue
        settled.add(c)
        if c in g.success:
            return 1 + dist[c]
        for d in g.tau[c]:
            if dist[c] < dist.get(d, INF):
                dist[d] = dist[c]
                queue.appendleft(d)
        for _, d in g.sync[c]:
            if dist[c] + 1 < dist.get(d, INF):
                dist[d] = dist[c] + 1
                queue.append(d)
    return INF


def compatible_graph(table: TypeTable, s: int, t: int) -> bool:
    """The former `compatible`: the whole config graph stored, then the
    configurations that can terminate by Kleene rounds."""
    g = build_config_graph(table, s, t)
    can_end = closure_kleene({c: g.successors(c) for c in g.nodes}, g.success, None)
    return len(can_end) == len(g.nodes)


def session_rank_graph(table: TypeTable, s: int, t: int):
    """The former `session_rank`: the layered search run on a stored config
    graph, each layer finished before its successes are looked at."""
    g = build_config_graph(table, s, t)
    seen: set = set()
    roots = [g.root]
    d = 0
    while roots:
        layer = list(reach([c for c in roots if c not in seen],
                           lambda c: [e for e in g.tau[c] if e not in seen]))
        if not g.success.isdisjoint(layer):
            return 1 + d
        seen.update(layer)
        roots = [e for c in layer for _, e in g.sync[c]]
        d += 1
    return INF


# -- simulation by sweeps, weights by Kleene rounds ------------------------------

def _violation(table: TypeTable, u: int, v: int):
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


def _premises(table: TypeTable, u: int, v: int) -> list:
    """Premise pairs of a shape-valid simulation pair, in a fixed order."""
    nu, nv = table.node(u), table.node(v)
    if nu[0] == "tags":
        bu, bv = dict(nu[2]), dict(nv[2])
        return [(bu[l], bv[l]) for l in sorted(set(bu) & set(bv))]
    if nu[0] == "chan":
        return [(nu[3], nv[3])]
    return []


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


def judge_oracle(table: TypeTable, u: int, v: int):
    """`subtyping._judge` from the three separate readings of a pair."""
    why = _violation(table, u, v)
    if why is not None:
        return why, None
    return _rule(table, u, v), _premises(table, u, v)


def simulate_sweep(table: TypeTable, s: int, t: int) -> Simulation:
    """`simulate` by sweeping every live pair until nothing is removed."""
    carrier = reachable_pairs(table, s, t)
    reason = {p: _violation(table, *p) for p in carrier}
    alive = {p for p in carrier if reason[p] is None}

    changed = True
    while changed:
        changed = False
        for p in list(alive):
            if any(q not in alive for q in _premises(table, *p)):
                alive.discard(p)
                changed = True

    root = (s, t)
    if root in alive:
        order = [root]
        seen = {root}
        i = 0
        while i < len(order):
            p = order[i]
            i += 1
            for q in _premises(table, *p):
                if q in alive and q not in seen:
                    seen.add(q)
                    order.append(q)
        return Simulation(True, order, None, {p: _rule(table, *p) for p in order},
                          {p: _premises(table, *p) for p in order})

    seen = {root}
    queue = [root]
    while queue:
        p = queue.pop(0)
        if reason[p] is not None:
            return Simulation(False, [], (p, reason[p]), {}, {})
        for q in _premises(table, *p):
            if q not in seen:
                seen.add(q)
                queue.append(q)
    raise AssertionError("root removed without a shape violation")


def reachable_pairs(table: TypeTable, a: int, b: int) -> set[tuple[int, int]]:
    """Product closure under matched descent: the carrier on which the
    former `simulate` judged every pair."""
    return set(reach([(a, b)], lambda p: _matched(table, *p)))


def simulate_closure(table: TypeTable, s: int, t: int) -> Simulation:
    """The former `simulate`: every carrier pair judged, then the dead pairs
    by Kleene rounds from the shape violations along premise edges, then a
    second search from the root."""
    judged = {p: _judge(table, *p) for p in reachable_pairs(table, s, t)}
    premises = {p: prem for p, (_, prem) in judged.items() if prem is not None}
    dead = closure_kleene(premises, [p for p in judged if p not in premises], None)

    root = (s, t)
    if root not in dead:
        witness = list(reach([root], premises.__getitem__))
        return Simulation(True, witness, None, {p: judged[p][0] for p in witness},
                          {p: premises[p] for p in witness})
    p = next(p for p in reach([root], premises.__getitem__) if p not in premises)
    return Simulation(False, [], (p, judged[p][0]), {}, {})


def subtype_weight(table: TypeTable, s: int, t: int) -> int | float:
    """The weight of the root pair; the simulation must hold."""
    sim = simulate(table, s, t)
    if not sim.holds:
        raise ValueError("subtype_weight requires the simulation to hold")
    return solve_weights(sim)[(s, t)]


def diverges(table: TypeTable, s: int, t: int) -> bool:
    """Simulation holds but the refinement can be postponed forever."""
    sim = simulate(table, s, t)
    return sim.holds and solve_weights(sim)[(s, t)] == INF


def solve_weights_kleene(table: TypeTable, witness: list) -> dict:
    """`solve_weights` by Kleene iteration from the all-zero assignment.

    Values that climb past K = number of pairs are clamped to ∞ and the
    rounds go on until nothing changes.
    """
    pairs = set(witness)
    rk = {p: 0 for p in witness}
    cutoff = len(witness)

    def evaluate(p):
        u, v = p
        nu, nv = table.node(u), table.node(v)
        if nu[0] == "end":
            return 0
        if nu[0] == "chan":
            return rk[(nu[3], nv[3])]
        prem = [rk[q] for q in _premises(table, u, v) if q in pairs]
        if nu[1] != OUT:
            return max(prem)
        if set(dict(nv[2])) < set(dict(nu[2])):
            return 1 + min(prem)
        return min(1 + min(prem), max(prem))

    while True:
        nxt = {}
        for p in witness:
            w = evaluate(p)
            nxt[p] = INF if w > cutoff else w
        if nxt == rk:
            return rk
        rk = nxt


# -- subtyping weight by bounded derivation search ------------------------------

def derivation_search(table: TypeTable, s: int, t: int, bound: int) -> dict:
    """Least derivable annotation per simulation pair, or None.

    A pair is derivable at n when a derivation tree for it exists whose
    own annotation is n and whose judgments all stay within `bound`. The
    set is computed as a removal fixpoint over (pair, n) candidates.
    """
    sim = simulate(table, s, t)
    assert sim.holds
    pairs = set(sim.witness)

    def premises(u, v):
        nu, nv = table.node(u), table.node(v)
        if nu[0] == "tags":
            bu, bv = dict(nu[2]), dict(nv[2])
            return [(bu[l], bv[l]) for l in sorted(set(bu) & set(bv))]
        if nu[0] == "chan":
            return [(nu[3], nv[3])]
        return []

    alive = {(p, n) for p in pairs for n in range(bound + 1)}

    def some(q, top):
        return any((q, m) in alive for m in range(top + 1))

    def supported(p, n):
        u, v = p
        nu, nv = table.node(u), table.node(v)
        if nu[0] == "end":
            return True
        prem = premises(u, v)
        if nu[0] == "chan":
            return some(prem[0], n)
        if nu[1] == "?":
            return all(some(q, n) for q in prem)
        # output rules: one premise pays for the +1, the rest only need to
        # be derivable somewhere below the bound
        strict = (n >= 1 and all(some(q, bound) for q in prem)
                  and any(some(q, n - 1) for q in prem))
        if set(dict(nv[2])) < set(dict(nu[2])):
            return strict
        return strict or all(some(q, n) for q in prem)

    changed = True
    while changed:
        changed = False
        for key in list(alive):
            if not supported(*key):
                alive.discard(key)
                changed = True

    out = {}
    for p in pairs:
        ns = [n for n in range(bound + 1) if (p, n) in alive]
        out[p] = min(ns) if ns else None
    return out


def weight_agrees_with_search(table: TypeTable, s: int, t: int) -> bool:
    """Criterion check for one simulated pair: fixpoint weight == search."""
    verdict = fair_subtype(table, s, t)
    k = max(verdict.simulation_size, 1)
    least = derivation_search(table, s, t, 2 * k)
    if verdict.holds:
        return least[(s, t)] == verdict.weight
    return least[(s, t)] is None


# -- least closures by Kleene rounds -----------------------------------------------

def closure_kleene(succ: dict, seeds, need) -> set:
    """`graph.closure` by rounds that add every node with enough successors
    inside, until a round adds nothing."""
    out = set(seeds)
    while True:
        grown = {v for v, ws in succ.items() if v not in out
                 and (need is None or v in need)
                 and sum(w in out for w in ws) >= (1 if need is None else need[v])}
        if not grown:
            return out
        out |= grown


def reach_kleene(succ: dict, roots) -> set:
    """The nodes `graph.reach` visits, by rounds that add every successor of
    the set, until a round adds nothing."""
    out = set(roots)
    while True:
        grown = {w for v in out for w in succ[v]} - out
        if not grown:
            return out
        out |= grown


# -- strongly connected components by rescanning -----------------------------------

def tarjan_rescan(nodes: list, succ: dict) -> list[list]:
    """Iterative strongly-connected components whose work frames hold an
    index into the successor list and rescan it from there on resuming."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[list] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work: list[tuple] = [(root, 0)]
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


# -- duality by recursion ------------------------------------------------------------

def dual_recursive(table: TypeTable, i: int) -> int:
    """`types.dual` by recursion along the carrier, filling each node once
    its children are done."""
    memo: dict[int, int] = {}

    def go(j: int) -> int:
        if j in memo:
            return memo[j]
        n = table.node(j)
        out = table.placeholder(hint="co_" + table._name(j))
        memo[j] = out
        if n[0] == "end":
            filled = ("end", co(n[1]))
        elif n[0] == "tags":
            filled = ("tags", co(n[1]), tuple((l, go(c)) for l, c in n[2]))
        else:
            filled = ("chan", co(n[1]), n[2], go(n[3]))
        table.fill(out, filled)
        return out

    return go(i)


# -- free channels by recursion ---------------------------------------------------

def free_channels_recursive(p: ProcExpr) -> set[str]:
    """The free channels of one node, by recursion on the tree; the
    library builds them for a whole definition in one pass."""
    if isinstance(p, Done):
        return set()
    if isinstance(p, Call):
        return set(p.args)
    if isinstance(p, Close):
        return {p.chan}
    if isinstance(p, Wait):
        return {p.chan} | free_channels_recursive(p.cont)
    if isinstance(p, TagComm):
        out = {p.chan}
        for _, b in p.branches:
            out |= free_channels_recursive(b)
        return out
    if isinstance(p, ChanOut):
        return {p.chan, p.payload} | free_channels_recursive(p.cont)
    if isinstance(p, ChanIn):
        return {p.chan} | (free_channels_recursive(p.cont) - {p.var})
    if isinstance(p, Choice):
        return free_channels_recursive(p.left) | free_channels_recursive(p.right)
    if isinstance(p, NewSession):
        return (free_channels_recursive(p.left) | free_channels_recursive(p.right)) - {p.chan}
    if isinstance(p, Cast):
        return {p.chan} | free_channels_recursive(p.cont)
    raise TypeError(f"not a process node: {p!r}")


def free_channels_per_occurrence(nodes: list[ProcExpr], kids: list[list[int]]) -> list[set[str]]:
    """The free channels of every numbered occurrence, each in a set of its
    own, built from its children's sets in one pass from the last number
    back; the library keeps exact sets only where the typing walk reads."""
    free: list[set[str]] = [set() for _ in nodes]
    for v in reversed(range(len(nodes))):
        p, out = nodes[v], free[v]
        for c in kids[v]:
            out |= free[c]
        if isinstance(p, Call):
            out.update(p.args)
        elif isinstance(p, ChanOut):
            out.update((p.chan, p.payload))
        elif isinstance(p, ChanIn):
            out.discard(p.var)
            out.add(p.chan)
        elif isinstance(p, NewSession):
            out.discard(p.chan)
        elif not isinstance(p, (Done, Choice)):
            out.add(p.chan)
    return free


# -- typing by bounded unfolding -------------------------------------------------

def typing_unfold_ok(program: Program, name: str, depth: int) -> bool:
    """Re-check one definition with calls unfolded `depth` times.

    Reaching the depth limit counts as success; that is exactly the
    coinductive reading the checker's assumption set implements.
    """
    table, tids = program.table, program.tids
    # annotations are kept by occurrence number
    number = {id(n): v for v, n in enumerate(program.nodes)}
    d = program.procs[name]
    ctx0 = {v: t for (v, _), t in zip(d.params, program.param_tids[name])}

    def chk(p, ctx, fuel) -> bool:
        if isinstance(p, Done):
            return not ctx
        if isinstance(p, Close):
            return (ctx.get(p.chan) is not None
                    and table.node(ctx[p.chan]) == ("end", "!")
                    and set(ctx) == {p.chan})
        if isinstance(p, Wait):
            if p.chan not in ctx or table.node(ctx[p.chan]) != ("end", "?"):
                return False
            rest = dict(ctx)
            del rest[p.chan]
            return chk(p.cont, rest, fuel)
        if isinstance(p, Call):
            target = program.procs[p.name]
            if len(p.args) != len(set(p.args)) or set(p.args) != set(ctx):
                return False
            if len(p.args) != len(target.params):
                return False
            for arg, want in zip(p.args, program.param_tids[p.name]):
                if not equiv(table, ctx[arg], want):
                    return False
            if fuel == 0:
                return True
            env = {v: ctx[a] for (v, _), a in zip(target.params, p.args)}
            return chk(target.body, env, fuel - 1)
        if isinstance(p, TagComm):
            t = ctx.get(p.chan)
            if t is None:
                return False
            node = table.node(t)
            if node[0] != "tags" or node[1] != p.pol:
                return False
            if {l for l, _ in p.branches} != set(dict(node[2])):
                return False
            kids = dict(node[2])
            return all(chk(b, {**ctx, p.chan: kids[l]}, fuel)
                       for l, b in p.branches)
        if isinstance(p, ChanOut):
            t = ctx.get(p.chan)
            if t is None or p.payload not in ctx or p.payload == p.chan:
                return False
            node = table.node(t)
            if node[0] != "chan" or node[1] != "!":
                return False
            if not equiv(table, ctx[p.payload], node[2]):
                return False
            rest = {v: w for v, w in ctx.items() if v != p.payload}
            rest[p.chan] = node[3]
            return chk(p.cont, rest, fuel)
        if isinstance(p, ChanIn):
            t = ctx.get(p.chan)
            if t is None or p.var in ctx or p.var == p.chan:
                return False
            node = table.node(t)
            if node[0] != "chan" or node[1] != "?":
                return False
            (ann,) = tids[number[id(p)]]
            if not equiv(table, ann, node[2]):
                return False
            return chk(p.cont, {**ctx, p.chan: node[3], p.var: ann}, fuel)
        if isinstance(p, Choice):
            return chk(p.left, dict(ctx), fuel) and chk(p.right, dict(ctx), fuel)
        if isinstance(p, NewSession):
            lt, rt = tids[number[id(p)]]
            if p.chan in ctx or not compatible(table, lt, rt):
                return False
            fvl, fvr = free_channels_recursive(p.left), free_channels_recursive(p.right)
            lctx, rctx = {p.chan: lt}, {p.chan: rt}
            for v, t in ctx.items():
                if v in fvl and v in fvr:
                    return False
                if v in fvl:
                    lctx[v] = t
                elif v in fvr:
                    rctx[v] = t
                else:
                    return False
            return chk(p.left, lctx, fuel) and chk(p.right, rctx, fuel)
        if isinstance(p, Cast):
            t = ctx.get(p.chan)
            (target,) = tids[number[id(p)]]
            if t is None or not fair_subtype(table, t, target).holds:
                return False
            return chk(p.cont, {**ctx, p.chan: target}, fuel)
        raise TypeError(f"not a process node: {p!r}")

    return chk(d.body, ctx0, depth)


def unsafe_by_reachability(ck: Checker) -> set[int]:
    """Sessions and positive-weight casts that some successor leads back to."""
    out = set()
    for n in ck.nodes:
        if isinstance(n, NewSession) or (isinstance(n, Cast) and cast_weight(ck, n) > 0):
            if any(reaches(ck, m, {id(n)}) for m in term_successors(ck, n)):
                out.add(id(n))
    return out


def infer_branches_by_cutoff(ck: Checker) -> None:
    """`Checker.infer_branches` scored with the cutoff walks."""
    for v, written in ck.marker.items():
        name = ck.owner[v]
        body = ck.program.procs[name].body
        scores = {}
        for k in (1, 2):
            ck.marker[v] = k
            rank = cutoff_rank(ck, name, unsafe_by_reachability(ck))
            bounded = action_bounded(ck, body, frozenset())
            scores[k] = (not bounded, rank == INF, rank, k != written)
        ck.marker[v] = min((1, 2), key=lambda k: scores[k])


def infer_branches_rebuild(ck: Checker) -> None:
    """`Checker.infer_branches` with a fresh graph for both markers of
    every choice."""
    for v, written in ck.marker.items():
        body = ck.start[ck.owner[v]]
        scores = {}
        for k in (1, 2):
            ck.marker[v] = k
            g = TermGraph(ck)
            rank = g.ranks[body]
            scores[k] = (not g.bounded[body], rank == INF, rank, k != written)
        ck.marker[v] = min((1, 2), key=lambda k: scores[k])


# -- the typing walk by recursion ---------------------------------------------------

class RecursiveTyping(Checker):
    """`Checker` whose typing walk recurses on the tree, one call per node,
    copying the context for each child and finding free channels by
    recursion."""

    def __init__(self, program: Program):
        super().__init__(program)
        # the checker keeps cast weights, and the program its annotations,
        # by occurrence number
        self.number = {id(n): v for v, n in enumerate(self.nodes)}

    def _tc(self, dn: str, body: int, ctx: dict[str, int]) -> None:
        self._walk(dn, self.nodes[body], ctx)

    def _walk(self, dn: str, p: ProcExpr, ctx: dict[str, int]) -> None:
        table = self.table
        if isinstance(p, Done):
            self._leak(dn, p, ctx, set())
            return
        if isinstance(p, Close):
            t = self._lookup(dn, p, ctx, p.chan)
            if table.node(t) != ("end", "!"):
                self.diag(dn, "E-TYPE-MISMATCH", p.at,
                          f"close needs {p.chan}: end!, found {self.table.render(t)}")
                raise _Abort
            self._leak(dn, p, ctx, {p.chan})
            return
        if isinstance(p, Wait):
            t = self._lookup(dn, p, ctx, p.chan)
            if table.node(t) != ("end", "?"):
                self.diag(dn, "E-TYPE-MISMATCH", p.at,
                          f"wait needs {p.chan}: end?, found {self.table.render(t)}")
                raise _Abort
            rest = dict(ctx)
            del rest[p.chan]
            self._walk(dn, p.cont, rest)
            return
        if isinstance(p, Call):
            target = self.program.procs[p.name]
            if len(p.args) != len(set(p.args)):
                self.diag(dn, "E-CONTEXT-LEAK", p.at,
                          f"call to {p.name} passes a channel twice")
                raise _Abort
            if len(p.args) != len(target.params):
                self.diag(dn, "E-TYPE-MISMATCH", p.at,
                          f"{p.name} expects {len(target.params)} arguments, got {len(p.args)}")
                raise _Abort
            for arg, want in zip(p.args, self.program.param_tids[p.name]):
                got = self._lookup(dn, p, ctx, arg)
                if not equiv(table, got, want):
                    self.diag(dn, "E-TYPE-MISMATCH", p.at,
                              f"argument {arg} has type {self.table.render(got)}, "
                              f"{p.name} expects {self.table.render(want)}")
                    raise _Abort
            self._leak(dn, p, ctx, set(p.args))
            return
        if isinstance(p, TagComm):
            t = self._lookup(dn, p, ctx, p.chan)
            node = table.node(t)
            if node[0] != "tags" or node[1] != p.pol:
                self.diag(dn, "E-TYPE-MISMATCH", p.at,
                          f"{p.chan}{p.pol} does not match its type {self.table.render(t)}")
                raise _Abort
            tlabels = set(dict(node[2]))
            plabels = {l for l, _ in p.branches}
            if tlabels != plabels:
                self.diag(dn, "E-TYPE-MISMATCH", p.at,
                          f"labels on {p.chan} are {sorted(plabels)}, "
                          f"type has {sorted(tlabels)}")
                raise _Abort
            children = dict(node[2])
            for label, body in p.branches:
                sub = dict(ctx)
                sub[p.chan] = children[label]
                self._walk(dn, body, sub)
            return
        if isinstance(p, ChanOut):
            t = self._lookup(dn, p, ctx, p.chan)
            node = table.node(t)
            if node[0] != "chan" or node[1] != "!":
                self.diag(dn, "E-TYPE-MISMATCH", p.at,
                          f"{p.chan} cannot send a channel at type {self.table.render(t)}")
                raise _Abort
            if p.payload == p.chan:
                self.diag(dn, "E-TYPE-MISMATCH", p.at,
                          f"{p.chan} cannot carry itself")
                raise _Abort
            got = self._lookup(dn, p, ctx, p.payload)
            if not equiv(table, got, node[2]):
                self.diag(dn, "E-TYPE-MISMATCH", p.at,
                          f"payload {p.payload} has type {self.table.render(got)}, "
                          f"carrier expects {self.table.render(node[2])}")
                raise _Abort
            rest = dict(ctx)
            del rest[p.payload]
            rest[p.chan] = node[3]
            self._walk(dn, p.cont, rest)
            return
        if isinstance(p, ChanIn):
            t = self._lookup(dn, p, ctx, p.chan)
            node = table.node(t)
            if node[0] != "chan" or node[1] != "?":
                self.diag(dn, "E-TYPE-MISMATCH", p.at,
                          f"{p.chan} cannot receive a channel at type {self.table.render(t)}")
                raise _Abort
            (ann,) = self.program.tids[self.number[id(p)]]
            if not equiv(table, ann, node[2]):
                self.diag(dn, "E-TYPE-MISMATCH", p.at,
                          f"annotation {self.table.render(ann)} differs from "
                          f"payload type {self.table.render(node[2])}")
                raise _Abort
            if p.var in ctx or p.var == p.chan:
                self.diag(dn, "E-CONTEXT-LEAK", p.at,
                          f"{p.var!r} rebinds a live channel")
                raise _Abort
            rest = dict(ctx)
            rest[p.chan] = node[3]
            rest[p.var] = ann
            self._walk(dn, p.cont, rest)
            return
        if isinstance(p, Choice):
            self._walk(dn, p.left, dict(ctx))
            self._walk(dn, p.right, dict(ctx))
            return
        if isinstance(p, NewSession):
            if p.chan in ctx:
                self.diag(dn, "E-CONTEXT-LEAK", p.at,
                          f"{p.chan!r} rebinds a live channel")
                raise _Abort
            lt, rt = self.program.tids[self.number[id(p)]]
            if not self._per_pair(compatible, lt, rt):
                self.diag(dn, "E-INCOMPATIBLE", p.at,
                          f"endpoint types of {p.chan} cannot terminate together",
                          left=self.table.render(lt), right=self.table.render(rt))
                raise _Abort
            fvl, fvr = free_channels_recursive(p.left), free_channels_recursive(p.right)
            lctx, rctx = {p.chan: lt}, {p.chan: rt}
            for v, t in ctx.items():
                if v in fvl and v in fvr:
                    self.diag(dn, "E-CONTEXT-LEAK", p.at,
                              f"channel {v!r} is used by both components")
                    raise _Abort
                if v in fvl:
                    lctx[v] = t
                elif v in fvr:
                    rctx[v] = t
                else:
                    self.diag(dn, "E-CONTEXT-LEAK", p.at,
                              f"channel {v!r} is used by neither component")
                    raise _Abort
            self._walk(dn, p.left, lctx)
            self._walk(dn, p.right, rctx)
            return
        if isinstance(p, Cast):
            t = self._lookup(dn, p, ctx, p.chan)
            (target,) = self.program.tids[self.number[id(p)]]
            verdict = self._per_pair(fair_subtype, t, target)
            if verdict.holds:
                w = int(verdict.weight)
                if p.weight_ann is not None and w > p.weight_ann:
                    self.diag(dn, "E-WEIGHT-EXCEEDED", p.at,
                              f"cast weight is {w}, annotation allows {p.weight_ann}")
            else:
                kind, (u, v), detail = verdict.failure  # type: ignore[misc]
                self.diag(dn, "E-SUBTYPE", p.at,
                          f"cast target is not a fair supertype of {self.table.render(t)}",
                          kind=kind, detail=detail,
                          offendingPair=[self.table.render(u), self.table.render(v)],
                          source=self.table.render(t), target=self.table.render(target))
                w = 0
            self.cast_weight[self.number[id(p)]] = w
            ctx = dict(ctx)
            ctx[p.chan] = target
            self._walk(dn, p.cont, ctx)
            return
        raise TypeError(f"not a process node: {p!r}")


# -- the interpreter on syntax trees ------------------------------------------------

# The tree interpreter keeps an endpoint handle as (session number, side),
# so the differential tests compare it with the int handles of the runtime.
TreeHandle = tuple[int, int]


@dataclass
class TreeThread:
    proc: ProcExpr
    env: dict[str, TreeHandle]


class TreeSoup:
    """The interpreter as it walked syntax trees: a thread holds the node
    it is at, and `rb-pick` replaces an output by its one picked branch.

    Threads are keyed by creation number, in creation order. The index
    lists the enabled redexes in one fixed order, which the draw at each
    step depends on: first the single-thread redexes in thread order, then
    the synchronising pairs in session order. A step re-reads only the
    threads it touched, so its cost does not grow with the thread count.
    """

    def __init__(self, program: Program, rng: SplitMix64):
        self.program = program
        self.rng = rng
        self.threads: dict[int, TreeThread] = {}
        self.next_thread = 0
        self.next_session = 0
        # thread -> its single-thread rule, or the handle its head is on
        self.role: dict[int, str | TreeHandle] = {}
        self.singles: list[int] = []  # threads with a single-thread rule, ascending
        # handle -> threads whose head is on it; the newest one is the head
        # that pairs, as several can hold one handle under --unsafe
        self.heads: dict[TreeHandle, set[int]] = {}
        self.sessions: list[int] = []  # sessions with a pair redex, ascending
        self.pairs: dict[int, tuple] = {}  # session -> (rule, offer, other)
        self.fired = dict.fromkeys(sorted(RULES), 0)
        self.peak_threads = 0

    def spawn_main(self, entry: str = "Main") -> None:
        d = self.program.procs.get(entry)
        if d is None:
            raise ValueError(f"program has no {entry} definition")
        if d.params:
            raise ValueError(f"{entry} must take no parameters to be run")
        self._spawn(TreeThread(d.body, {}))
        self._refresh((0,))

    def _spawn(self, thread: TreeThread) -> None:
        self.threads[self.next_thread] = thread
        self.next_thread += 1

    # -- the redex index ------------------------------------------------------

    def _draw(self) -> tuple | None:
        """The redex the generator picks, or None when nothing is enabled."""
        n = len(self.singles)
        total = n + len(self.sessions)
        if not total:
            return None
        k = self.rng.below(total)
        if k < n:
            tid = self.singles[k]
            return (self.role[tid], tid)
        return self.pairs[self.sessions[k - n]]

    def _refresh(self, tids) -> None:
        """Re-read the threads a step touched or created, then the pairs of
        every session whose heads they left or joined."""
        roles, singles, heads, threads = self.role, self.singles, self.heads, self.threads
        sessions = set()
        for tid in tids:
            role = roles.pop(tid, None)
            if isinstance(role, str):
                del singles[bisect_left(singles, tid)]
            elif role is not None:
                holders = heads[role]
                holders.discard(tid)
                if not holders:
                    del heads[role]
                sessions.add(role[0])
            th = threads[tid]
            if isinstance(th.proc, Done):
                del threads[tid]
                continue
            role = _tree_role(th.proc, th.env)
            if role is None:
                continue
            roles[tid] = role
            if isinstance(role, str):
                insort(singles, tid)
            else:
                heads.setdefault(role, set()).add(tid)
                sessions.add(role[0])
        for sid in sessions:
            self._pair(sid)
        if len(threads) > self.peak_threads:
            self.peak_threads = len(threads)

    def _pair(self, sid: int) -> None:
        """Re-read the heads of one session: at most one pair redex."""
        redex = None
        side0, side1 = self.heads.get((sid, 0)), self.heads.get((sid, 1))
        if side0 and side1:
            i, j = max(side0), max(side1)
            p, q = self.threads[i].proc, self.threads[j].proc
            rule = _tree_offers(p, q)
            if rule is not None:
                redex = (rule, i, j)
            else:
                rule = _tree_offers(q, p)
                if rule is not None:
                    redex = (rule, j, i)
        if redex is not None:
            if sid not in self.pairs:
                insort(self.sessions, sid)
            self.pairs[sid] = redex
        elif sid in self.pairs:
            del self.pairs[sid]
            del self.sessions[bisect_left(self.sessions, sid)]

    def step(self, step_no: int) -> TraceEntry | None:
        """Fire one uniformly chosen redex; None when nothing is enabled."""
        redex = self._draw()
        if redex is None:
            return None
        entry = self._apply(redex, step_no)
        # rb-par is the one rule that creates a thread, the newest one
        self._refresh(redex[1:] if redex[0] != "rb-par"
                      else (redex[1], self.next_thread - 1))
        self.fired[redex[0]] += 1
        return entry

    def _apply(self, redex: tuple, step_no: int) -> TraceEntry:
        rule = redex[0]
        if rule == "rb-choice":
            th = self.threads[redex[1]]
            assert isinstance(th.proc, Choice)
            pick = 1 + self.rng.below(2)
            th.proc = th.proc.left if pick == 1 else th.proc.right
            return TraceEntry(step_no, rule, "-", f"branch {pick}")
        if rule == "sb-call":
            th = self.threads[redex[1]]
            assert isinstance(th.proc, Call)
            d = self.program.procs[th.proc.name]
            env = {v: th.env[a] for (v, _), a in zip(d.params, th.proc.args)}
            name = th.proc.name
            th.proc, th.env = d.body, env
            return TraceEntry(step_no, rule, "-", name)
        if rule == "rb-cast":
            th = self.threads[redex[1]]
            assert isinstance(th.proc, Cast)
            chan = th.proc.chan
            sid = th.env[chan][0]
            th.proc = th.proc.cont
            return TraceEntry(step_no, rule, f"s{sid}", chan)
        if rule == "rb-par":
            th = self.threads[redex[1]]
            assert isinstance(th.proc, NewSession)
            p = th.proc
            sid = self.next_session
            self.next_session += 1
            lenv = dict(th.env)
            renv = dict(th.env)
            lenv[p.chan] = (sid, 0)
            renv[p.chan] = (sid, 1)
            th.proc, th.env = p.left, lenv
            self._spawn(TreeThread(p.right, renv))
            return TraceEntry(step_no, rule, f"s{sid}", p.chan)
        if rule == "rb-pick":
            th = self.threads[redex[1]]
            assert isinstance(th.proc, TagComm)
            p = th.proc
            label, cont = p.branches[self.rng.below(len(p.branches))]
            th.proc = TagComm(p.chan, p.pol, [(label, cont)], p.at)
            return TraceEntry(step_no, rule, f"s{th.env[p.chan][0]}", label)
        if rule == "rb-signal":
            closer, waiter = self.threads[redex[1]], self.threads[redex[2]]
            assert isinstance(closer.proc, Close) and isinstance(waiter.proc, Wait)
            sid = closer.env[closer.proc.chan][0]
            closer.proc = Done(closer.proc.at)
            waiter.proc = waiter.proc.cont
            return TraceEntry(step_no, rule, f"s{sid}", "close/wait")
        if rule == "rb-tag":
            sender, receiver = self.threads[redex[1]], self.threads[redex[2]]
            assert isinstance(sender.proc, TagComm) and isinstance(receiver.proc, TagComm)
            label, s_cont = sender.proc.branches[0]
            sid = sender.env[sender.proc.chan][0]
            r_cont = dict(receiver.proc.branches)[label]
            sender.proc = s_cont
            receiver.proc = r_cont
            return TraceEntry(step_no, rule, f"s{sid}", label)
        if rule == "rb-channel":
            sender, receiver = self.threads[redex[1]], self.threads[redex[2]]
            assert isinstance(sender.proc, ChanOut) and isinstance(receiver.proc, ChanIn)
            sid = sender.env[sender.proc.chan][0]
            handle = sender.env[sender.proc.payload]
            detail = f"{sender.proc.payload} -> {receiver.proc.var}"
            renv = dict(receiver.env)
            renv[receiver.proc.var] = handle
            receiver.env = renv
            senv = dict(sender.env)
            del senv[sender.proc.payload]
            sender.env = senv
            sender.proc = sender.proc.cont
            receiver.proc = receiver.proc.cont
            return TraceEntry(step_no, rule, f"s{sid}", detail)
        raise AssertionError(f"unknown rule {rule}")

    def dump(self) -> list[str]:
        out = []
        for th in self.threads.values():
            env = ", ".join(f"{v}=s{h[0]}.{h[1]}" for v, h in sorted(th.env.items()))
            out.append(f"{render(th.proc)}  [{env}]")
        return out


def _tree_role(p: ProcExpr, env: dict[str, TreeHandle]) -> str | TreeHandle | None:
    """The single-thread rule a live thread enables, or the handle its
    communication head waits on, or None when it is blocked alone."""
    if isinstance(p, Call):
        return "sb-call" if all(map(env.__contains__, p.args)) else None
    if isinstance(p, TagComm):
        if p.pol == "!" and len(p.branches) > 1:
            return "rb-pick" if p.chan in env else None
        return env.get(p.chan)
    if isinstance(p, (Close, Wait, ChanIn)):
        # a missing handle just leaves the thread blocked; only ill-typed
        # programs executed with --unsafe can get here
        return env.get(p.chan)
    if isinstance(p, NewSession):
        return "rb-par"
    if isinstance(p, Choice):
        return "rb-choice"
    if isinstance(p, Cast):
        return "rb-cast" if p.chan in env else None
    assert isinstance(p, ChanOut)
    return env.get(p.chan) if p.payload in env else None


def _tree_offers(a: ProcExpr, b: ProcExpr) -> str | None:
    """The rule by which head a, the closer or sender, meets head b."""
    if isinstance(a, Close):
        return "rb-signal" if isinstance(b, Wait) else None
    if isinstance(a, ChanOut):
        return "rb-channel" if isinstance(b, ChanIn) else None
    if (isinstance(a, TagComm) and isinstance(b, TagComm) and a.pol == "!"
            and b.pol == "?" and len(a.branches) == 1):
        label = a.branches[0][0]
        if any(label == l for l, _ in b.branches):
            return "rb-tag"
    return None


def drive_tree(soup: TreeSoup, max_steps: int, want_trace: bool) -> RunOutcome:
    """Step a soup whose entry thread is spawned until it empties, sticks,
    or hits the step limit."""
    trace: list[TraceEntry] = []
    steps = 0
    kind = "terminated"
    while soup.threads:
        if steps >= max_steps:
            kind = "step-limit"
            break
        entry_line = soup.step(steps)
        if entry_line is None:
            kind = "stuck"
            break
        if want_trace:
            trace.append(entry_line)
        steps += 1
    return RunOutcome(kind, steps, trace, soup.dump(),
                      {"rules": soup.fired, "peakThreads": soup.peak_threads,
                       "sessionsOpened": soup.next_session})


# -- the interpreter's redexes by a rebuild at every step ---------------------------

def redexes_rebuild(threads: dict) -> list[tuple]:
    """Every enabled redex, in the order the scheduler draws from: the
    single-thread ones in thread order, then the pairs by session. Where
    several threads have their head on one handle, the last one pairs."""
    single: list[tuple] = []
    heads: dict[TreeHandle, tuple[int, ProcExpr]] = {}
    for i, th in threads.items():
        p = th.proc
        if isinstance(p, Choice):
            single.append(("rb-choice", i))
        elif isinstance(p, Call):
            if all(a in th.env for a in p.args):
                single.append(("sb-call", i))
        elif isinstance(p, Cast):
            if p.chan in th.env:
                single.append(("rb-cast", i))
        elif isinstance(p, NewSession):
            single.append(("rb-par", i))
        elif (isinstance(p, TagComm) and p.pol == "!" and len(p.branches) > 1
              and p.chan in th.env):
            single.append(("rb-pick", i))
        elif isinstance(p, (Close, Wait, TagComm, ChanOut, ChanIn)):
            h = th.env.get(p.chan)
            if isinstance(p, ChanOut) and p.payload not in th.env:
                h = None
            if h is not None:
                heads[h] = (i, p)
    pairs: list[tuple] = []
    for (sid, side), (i, p) in sorted(heads.items()):
        if side != 0:
            continue
        other = heads.get((sid, 1))
        if other is None:
            continue
        j, q = other
        rule = _sync_rule(p, q)
        if rule is not None:
            pairs.append((rule, i, j) if _is_offer(p) else (rule, j, i))
    return single + pairs


def _is_offer(p: ProcExpr) -> bool:
    """True for the side written first in the rule (closer/sender)."""
    return isinstance(p, (Close, ChanOut)) or (
        isinstance(p, TagComm) and p.pol == "!")


def _sync_rule(p: ProcExpr, q: ProcExpr) -> str | None:
    def match(a: ProcExpr, b: ProcExpr) -> str | None:
        if isinstance(a, Close) and isinstance(b, Wait):
            return "rb-signal"
        if isinstance(a, ChanOut) and isinstance(b, ChanIn):
            return "rb-channel"
        if (isinstance(a, TagComm) and isinstance(b, TagComm)
                and a.pol == "!" and b.pol == "?" and len(a.branches) == 1
                and a.branches[0][0] in dict(b.branches)):
            return "rb-tag"
        return None

    return match(p, q) or match(q, p)


class OracleSoup(TreeSoup):
    """The interpreter with its redex index replaced by `redexes_rebuild`."""

    def _draw(self) -> tuple | None:
        redexes = redexes_rebuild(self.threads)
        if not redexes:
            return None
        return redexes[self.rng.below(len(redexes))]

    def _refresh(self, tids) -> None:
        for tid in tids:
            if isinstance(self.threads[tid].proc, Done):
                del self.threads[tid]
        self.peak_threads = max(self.peak_threads, len(self.threads))

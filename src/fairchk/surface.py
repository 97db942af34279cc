"""Concrete syntax: lexer, parser, renderer, and name resolution.

The grammar (ASCII, comments run from `--` to end of line):

    program   := (typedef | procdef)*
    typedef   := "type" NAME "=" ty
    ty        := "end!" | "end?" | "!{" branches "}" | "?{" branches "}"
              |  "!(" ty ")" "." ty | "?(" ty ")" "." ty | NAME
    branches  := LABEL ":" ty ("," LABEL ":" ty)*
    procdef   := NAME "(" [param ("," param)*] ")" ["@" NAT] "=" proc
    param     := IDENT ":" ty
    proc      := "done" | NAME "(" [IDENT ("," IDENT)*] ")"
              |  "close" IDENT | "wait" IDENT "." proc
              |  IDENT "!" LABEL "." proc | IDENT "!{" pbranches "}"
              |  IDENT "?" LABEL "." proc | IDENT "?{" pbranches "}"
              |  IDENT "!(" IDENT ")" "." proc
              |  IDENT "?(" IDENT ":" ty ")" "." proc
              |  "new" IDENT ":" ty "/" ty "in" "(" proc "|" proc ")"
              |  "[" IDENT ":" ty ["@" NAT] "]" proc
              |  proc "+" ["[" ("1"|"2") "]"] proc | "(" proc ")"
    pbranches := LABEL ":" proc ("," LABEL ":" proc)*

Prefixes bind tighter than choice, choice associates to the left, and a bare
`+` means `+[1]`. Identifiers may contain apostrophes after the first
character, so SB' is a valid type name. The optional `@ NAT` after a procdef
header asserts an upper bound on the definition's rank.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterator, NamedTuple, Optional

from .types import TypeTable

KEYWORDS = {"type", "done", "close", "wait", "new", "in"}

# Deepest syntactic nesting the parser admits: each process or type
# constructor inside another is one level, and so is each `+` of a choice
# chain, which nests to the left. Only the parser recurses on the tree
# (every other pass, the printers too, walks it on an explicit stack), so a
# bound well inside the interpreter's stack turns a deep input into a
# SourceError instead of a RecursionError.
MAX_NESTING = 250


class SourceError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class Span(NamedTuple):
    line: int
    col: int


# A syntax node keeps `at`, the index in lex's token list of its first
# token, and no line or column: those are looked up in the source's
# position table (`token_positions`) only when one is printed. A node that
# was not parsed from text has `at` = -1, printed as 0:0.


# Type expressions -----------------------------------------------------------

@dataclass(slots=True)
class TEnd:
    pol: str
    at: int = field(compare=False, repr=False, default=-1)


@dataclass(slots=True)
class TTags:
    pol: str
    branches: list[tuple[str, "TypeExpr"]]
    at: int = field(compare=False, repr=False, default=-1)


@dataclass(slots=True)
class TChan:
    pol: str
    payload: "TypeExpr"
    cont: "TypeExpr"
    at: int = field(compare=False, repr=False, default=-1)


@dataclass(slots=True)
class TName:
    name: str
    at: int = field(compare=False, repr=False, default=-1)


TypeExpr = TEnd | TTags | TChan | TName


# Process expressions --------------------------------------------------------

@dataclass(slots=True)
class Done:
    at: int = field(compare=False, repr=False, default=-1)


@dataclass(slots=True)
class Call:
    name: str
    args: list[str]
    at: int = field(compare=False, repr=False, default=-1)


@dataclass(slots=True)
class Close:
    chan: str
    at: int = field(compare=False, repr=False, default=-1)


@dataclass(slots=True)
class Wait:
    chan: str
    cont: "ProcExpr"
    at: int = field(compare=False, repr=False, default=-1)


@dataclass(slots=True)
class TagComm:
    chan: str
    pol: str
    branches: list[tuple[str, "ProcExpr"]]
    at: int = field(compare=False, repr=False, default=-1)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.branches)


@dataclass(slots=True)
class ChanOut:
    chan: str
    payload: str
    cont: "ProcExpr"
    at: int = field(compare=False, repr=False, default=-1)


@dataclass(slots=True)
class ChanIn:
    chan: str
    var: str
    ann: TypeExpr
    cont: "ProcExpr"
    at: int = field(compare=False, repr=False, default=-1)
    tid: Optional[int] = field(compare=False, default=None)


@dataclass(slots=True)
class Choice:
    k: int
    left: "ProcExpr"
    right: "ProcExpr"
    at: int = field(compare=False, repr=False, default=-1)


@dataclass(slots=True)
class NewSession:
    chan: str
    lty: TypeExpr
    rty: TypeExpr
    left: "ProcExpr"
    right: "ProcExpr"
    at: int = field(compare=False, repr=False, default=-1)
    ltid: Optional[int] = field(compare=False, default=None)
    rtid: Optional[int] = field(compare=False, default=None)


@dataclass(slots=True)
class Cast:
    chan: str
    target: TypeExpr
    weight_ann: Optional[int]
    cont: "ProcExpr"
    at: int = field(compare=False, repr=False, default=-1)
    tid: Optional[int] = field(compare=False, default=None)


ProcExpr = Done | Call | Close | Wait | TagComm | ChanOut | ChanIn | Choice | NewSession | Cast


def children(p: ProcExpr) -> tuple[ProcExpr, ...]:
    """The direct sub-processes of a node, in source order.

    This is the one statement of which fields of a node are processes;
    every walk that treats all kinds of node alike goes through it.
    """
    if isinstance(p, (Done, Call, Close)):
        return ()
    if isinstance(p, TagComm):
        return tuple(b for _, b in p.branches)
    if isinstance(p, (Choice, NewSession)):
        return (p.left, p.right)
    return (p.cont,)


@dataclass
class ProcDef:
    name: str
    params: list[tuple[str, TypeExpr]]
    rank_ann: Optional[int]
    body: ProcExpr
    at: int = field(compare=False, repr=False, default=-1)
    param_tids: Optional[list[int]] = field(compare=False, default=None)


@dataclass
class SourceProgram:
    # (name, body, at): `at` is the index of the `type` token
    typedefs: list[tuple[str, TypeExpr, int]]
    procdefs: list[ProcDef]
    source: str = ""  # the text the token indices point into


@dataclass
class Program:
    """A resolved program: every annotation interned into one TypeTable.

    Building one numbers every occurrence once, definitions in order and
    each in preorder: `nodes[v]` is occurrence v, `kids[v]` the numbers of
    its children in source order, `start[name]` the number of a body and
    `owner[v]` the definition that holds v.
    """
    table: TypeTable
    typedefs: dict[str, int]
    procs: dict[str, ProcDef]
    source: str = ""
    nodes: list[ProcExpr] = field(init=False, repr=False, compare=False)
    kids: list[list[int]] = field(init=False, repr=False, compare=False)
    start: dict[str, int] = field(init=False, repr=False, compare=False)
    owner: list[str] = field(init=False, repr=False, compare=False)
    _positions: Optional[list[tuple[int, int]]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes, kids = self.nodes, self.kids = [], []
        self.start, self.owner = {}, []
        for name, d in self.procs.items():
            self.start[name] = first = len(nodes)
            stack, into = [d.body], [[]]  # into[i]: the list stack[i] joins
            while stack:
                n = stack.pop()
                into.pop().append(len(nodes))
                nodes.append(n)
                kids.append(mine := [])
                stack += children(n)[::-1]
                into += [mine] * (len(stack) - len(into))
            self.owner += [name] * (len(nodes) - first)

    def span(self, at: int) -> Span:
        """The line and column of token `at` of the source; the position
        table is built at the first call."""
        if self._positions is None:
            self._positions = token_positions(self.source)
        return _span(self._positions, at)


# Lexer ----------------------------------------------------------------------

# A token is its text: an identifier, a numeral or one punctuation
# character, and "" for eof. Its kind is read off its first character:
# a letter or `_` starts an identifier, a digit a numeral.
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# One findall over the whole text; the search skips blanks (space, tab, CR,
# LF). The group holds a token. A comment, and any other character, match
# outside it and come back as "". No token contains "-", so a "--" outside
# a token starts a comment. Every class is spelled out in ASCII: `\w`, `\d`
# and `\s` would also match other scripts' characters.
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_']*|[0-9]+|[(){}\[\]:,./=!?+|@])"
                    r"|--[^\n]*|[^ \t\r\n]")
_COMMENT = re.compile(r"--[^\n]*")
# The position table's pass: a line break (group 1), a comment (group 2), a
# token, or a stray character (group 3).
_POSITION = re.compile(r"(\n)|(--[^\n]*)|[A-Za-z_][A-Za-z0-9_']*|[0-9]+"
                       r"|[(){}\[\]:,./=!?+|@]|([^ \t\r])")


def lex(src: str) -> list[str]:
    """The tokens of src, then "" for eof; SourceError at a stray character."""
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


def token_positions(src: str) -> list[tuple[int, int]]:
    """The (line, col) of every token of `lex(src)`, eof last.

    Only "\\n" ends a line, and every other character is one column wide.
    A comment takes no columns, so eof sits where the last line's comment
    starts, if it has one. Raises lex's SourceError at a stray character.
    """
    where: list[tuple[int, int]] = []
    line, bol, cut = 1, 0, -1  # bol: where the line begins; cut: its comment
    for m in _POSITION.finditer(src):
        group = m.lastindex
        if group is None:
            where.append((line, m.start() - bol + 1))
        elif group == 1:
            line, bol, cut = line + 1, m.end(), -1
        elif group == 2:
            cut = m.start()
        else:
            raise SourceError(f"unexpected character {m[3]!r}", line, m.start() - bol + 1)
    where.append((line, (len(src) if cut < 0 else cut) - bol + 1))
    return where


def _span(positions: list[tuple[int, int]], at: int) -> Span:
    return Span(*positions[at]) if at >= 0 else Span(0, 0)


def source_error(src: str, msg: str, at: int) -> SourceError:
    """A SourceError at token `at` of src."""
    return SourceError(msg, *_span(token_positions(src), at))


# Parser ---------------------------------------------------------------------

class _Parser:
    """Recursive descent that indexes lex's list of token strings.

    A node keeps the index of its first token. Lookahead reads at most one
    token past one already known not to be eof, and the list ends in two
    eofs, so every index stays in bounds.
    """

    def __init__(self, toks: list[str], src: str):
        # The list is lex's own, so it is padded in place, not copied.
        toks.append("")
        self.toks = toks
        self.src = src
        self.pos = 0
        self.depth = 0

    def error(self, msg: str, at: int) -> SourceError:
        return source_error(self.src, msg, at)

    def expected(self, kind: str, at: int) -> SourceError:
        return self.error(f"expected {kind!r}, found {self.toks[at] or 'eof'!r}", at)

    def want(self, punct: str, at: int) -> None:
        """Fail unless token `at` is `punct`."""
        if self.toks[at] != punct:
            raise self.expected(punct, at)

    def expect(self, punct: str) -> None:
        self.want(punct, self.pos)
        self.pos += 1

    def name(self, at: int) -> str:
        """The identifier at token `at`, which may not be a keyword."""
        t = self.toks[at]
        if t[:1] not in _IDENT_START:
            raise self.expected("ident", at)
        if t in KEYWORDS:
            raise self.error(f"keyword {t!r} cannot be used as a name", at)
        return t

    def nat(self, at: int) -> int:
        t = self.toks[at]
        if not t[:1].isdigit():
            raise self.expected("nat", at)
        try:
            return int(t)
        except ValueError:  # more digits than int() converts
            raise self.error("number too long", at) from None

    def descend(self) -> None:
        """Enter one level of nesting; the caller restores the depth on return."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", self.pos)

    # -- types ----------------------------------------------------------

    def parse_type(self) -> TypeExpr:
        self.depth += 1  # `descend`, inlined on the hottest path
        try:
            toks, at = self.toks, self.pos
            if self.depth > MAX_NESTING:
                raise self.error(f"nesting deeper than {MAX_NESTING} levels", at)
            t = toks[at]
            if t == "!" or t == "?":
                opener = toks[at + 1]
                self.pos = at + 2
                if opener == "{":
                    branches = self._branches(self.parse_type)
                    self.expect("}")
                    return TTags(t, branches, at)
                if opener == "(":
                    payload = self.parse_type()
                    pos = self.pos
                    self.want(")", pos)
                    self.want(".", pos + 1)
                    self.pos = pos + 2
                    return TChan(t, payload, self.parse_type(), at)
                raise self.error("expected '{' or '(' after polarity", at + 1)
            if t[:1] in _IDENT_START:
                if t == "end":
                    pol = toks[at + 1]
                    self.pos = at + 2
                    if pol != "!" and pol != "?":
                        raise self.error("expected '!' or '?' after 'end'", at + 1)
                    return TEnd(pol, at)
                self.pos = at + 1
                if t in KEYWORDS:
                    raise self.error(f"keyword {t!r} is not a type", at)
                return TName(t, at)
            raise self.error(f"expected a type, found {t or 'eof'!r}", at)
        finally:
            self.depth -= 1

    def _branches(self, item: Callable[[], Any]) -> list[tuple[str, Any]]:
        """`LABEL ":" item ("," LABEL ":" item)*`, with distinct labels.

        A repeated label is reported where it first repeats, once the whole
        list has parsed, so a syntax error later in the list comes first.
        """
        toks = self.toks
        branches = []
        seen: set[str] = set()
        repeated = -1
        while True:
            at = self.pos
            label = toks[at]
            if label[:1] not in _IDENT_START or label in KEYWORDS:
                self.name(at)  # raises
            self.want(":", at + 1)
            self.pos = at + 2
            if label in seen and repeated < 0:
                repeated = at
            seen.add(label)
            branches.append((label, item()))
            if toks[self.pos] != ",":
                break
            self.pos += 1
        if repeated >= 0:
            raise self.error(f"duplicate label {toks[repeated]!r}", repeated)
        return branches

    # -- processes --------------------------------------------------------

    def parse_proc(self) -> ProcExpr:
        outer = self.depth
        toks = self.toks
        left = self.parse_atom()
        while toks[self.pos] == "+":
            self.descend()
            at = self.pos
            k = 1
            if toks[at + 1] == "[":
                k = self.nat(at + 2)
                if k not in (1, 2):
                    raise self.error("choice branch must be 1 or 2", at + 2)
                self.want("]", at + 3)
                self.pos = at + 4
            else:
                self.pos = at + 1
            left = Choice(k, left, self.parse_atom(), at)
        self.depth = outer
        return left

    def parse_atom(self) -> ProcExpr:
        self.descend()
        try:
            toks, at = self.toks, self.pos
            t = toks[at]
            if t == "(":
                self.pos = at + 1
                p = self.parse_proc()
                self.expect(")")
                return p
            if t == "[":
                chan = self.name(at + 1)
                self.want(":", at + 2)
                self.pos = at + 3
                target = self.parse_type()
                pos, weight = self.pos, None
                if toks[pos] == "@":
                    weight = self.nat(pos + 1)
                    pos += 2
                self.want("]", pos)
                self.pos = pos + 1
                return Cast(chan, target, weight, self.parse_atom(), at)
            if t == "done":
                self.pos = at + 1
                return Done(at)
            if t == "close":
                self.pos = at + 2
                return Close(self.name(at + 1), at)
            if t == "wait":
                chan = self.name(at + 1)
                self.want(".", at + 2)
                self.pos = at + 3
                return Wait(chan, self.parse_atom(), at)
            if t == "new":
                chan = self.name(at + 1)
                self.want(":", at + 2)
                self.pos = at + 3
                lty = self.parse_type()
                self.expect("/")
                rty = self.parse_type()
                pos = self.pos
                if toks[pos] != "in":
                    raise self.error("expected 'in'", pos)
                self.want("(", pos + 1)
                self.pos = pos + 2
                left = self.parse_proc()
                self.expect("|")
                right = self.parse_proc()
                self.expect(")")
                return NewSession(chan, lty, rty, left, right, at)
            name = self.name(at)
            nxt = toks[at + 1]
            if nxt == "(":
                args = []
                pos = at + 2
                if toks[pos] != ")":
                    args.append(self.name(pos))
                    pos += 1
                    while toks[pos] == ",":
                        args.append(self.name(pos + 1))
                        pos += 2
                self.want(")", pos)
                self.pos = pos + 1
                return Call(name, args, at)
            if nxt == "!" or nxt == "?":
                after = toks[at + 2]
                if after == "{":
                    self.pos = at + 3
                    branches = self._branches(self.parse_proc)
                    self.expect("}")
                    return TagComm(name, nxt, branches, at)
                if after == "(":
                    var = self.name(at + 3)
                    if nxt == "!":
                        self.want(")", at + 4)
                        self.want(".", at + 5)
                        self.pos = at + 6
                        return ChanOut(name, var, self.parse_atom(), at)
                    self.want(":", at + 4)
                    self.pos = at + 5
                    ann = self.parse_type()
                    pos = self.pos
                    self.want(")", pos)
                    self.want(".", pos + 1)
                    self.pos = pos + 2
                    return ChanIn(name, var, ann, self.parse_atom(), at)
                label = self.name(at + 2)
                self.want(".", at + 3)
                self.pos = at + 4
                return TagComm(name, nxt, [(label, self.parse_atom())], at)
            raise self.error(f"expected a process, found {nxt or 'eof'!r}", at + 1)
        finally:
            self.depth -= 1

    # -- top level --------------------------------------------------------

    def parse_program(self) -> SourceProgram:
        typedefs: list[tuple[str, TypeExpr, int]] = []
        procdefs: list[ProcDef] = []
        toks = self.toks
        while toks[self.pos]:  # "" is eof
            at = self.pos
            if toks[at] == "type":
                name = self.name(at + 1)
                self.want("=", at + 2)
                self.pos = at + 3
                typedefs.append((name, self.parse_type(), at))
                continue
            name = self.name(at)
            self.want("(", at + 1)
            self.pos = at + 2
            params: list[tuple[str, TypeExpr]] = []
            if toks[self.pos] != ")":
                params.append(self._param())
                while toks[self.pos] == ",":
                    self.pos += 1
                    params.append(self._param())
            pos = self.pos
            self.want(")", pos)
            rank_ann = None
            if toks[pos + 1] == "@":
                rank_ann = self.nat(pos + 2)
                pos += 2
            self.want("=", pos + 1)
            self.pos = pos + 2
            procdefs.append(ProcDef(name, params, rank_ann, self.parse_proc(), at))
        return SourceProgram(typedefs, procdefs, self.src)

    def _param(self) -> tuple[str, TypeExpr]:
        at = self.pos
        var = self.name(at)
        self.want(":", at + 1)
        self.pos = at + 2
        return var, self.parse_type()


def parse(text: str) -> SourceProgram:
    return _Parser(lex(text), text).parse_program()


# Renderer -------------------------------------------------------------------

def _operand(p: ProcExpr) -> tuple:
    """p as the operand of a prefix or the right operand of a choice: a
    choice there is parenthesized. Left operands re-associate correctly on
    reparse; right ones do not."""
    return ("(", p, ")") if isinstance(p, Choice) else (p,)


def _branches_text(branches: list[tuple[str, Any]]) -> list:
    return [x for k, (l, b) in enumerate(branches) for x in (f", {l}: " if k else f"{l}: ", b)]


def _pieces(n: TypeExpr | ProcExpr) -> tuple:
    """The text of one syntax node: strings, with its child nodes in place."""
    if isinstance(n, TEnd):
        return (f"end{n.pol}",)
    if isinstance(n, TName):
        return (n.name,)
    if isinstance(n, TTags):
        return (f"{n.pol}{{", *_branches_text(n.branches), "}")
    if isinstance(n, TChan):
        return (f"{n.pol}(", n.payload, "). ", n.cont)
    if isinstance(n, Done):
        return ("done",)
    if isinstance(n, Call):
        return (f"{n.name}({', '.join(n.args)})",)
    if isinstance(n, Close):
        return (f"close {n.chan}",)
    if isinstance(n, Wait):
        return (f"wait {n.chan}. ", *_operand(n.cont))
    if isinstance(n, TagComm):
        if len(n.branches) == 1:
            label, cont = n.branches[0]
            return (f"{n.chan}{n.pol}{label}. ", *_operand(cont))
        return (f"{n.chan}{n.pol}{{", *_branches_text(n.branches), "}")
    if isinstance(n, ChanOut):
        return (f"{n.chan}!({n.payload}). ", *_operand(n.cont))
    if isinstance(n, ChanIn):
        return (f"{n.chan}?({n.var}: ", n.ann, "). ", *_operand(n.cont))
    if isinstance(n, Choice):
        return (n.left, f" +[{n.k}] ", *_operand(n.right))
    if isinstance(n, NewSession):
        return (f"new {n.chan}: ", n.lty, " / ", n.rty, " in (", n.left, " | ", n.right, ")")
    if isinstance(n, Cast):
        w = f" @{n.weight_ann}" if n.weight_ann is not None else ""
        return (f"[{n.chan}: ", n.target, f"{w}] ", *_operand(n.cont))
    raise TypeError(f"not a syntax node: {n!r}")


def render(n: TypeExpr | ProcExpr) -> str:
    """The text of a type or process expression.

    One explicit stack of pieces, taken from the top: a string is the next
    text and a node is replaced by its pieces, so that the depth of the
    tree costs no frames.
    """
    out: list[str] = []
    stack: list = [n]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            stack.extend(reversed(_pieces(piece)))
    return "".join(out)


def render_program(sp: SourceProgram) -> str:
    lines = []
    for name, body, _ in sp.typedefs:
        lines.append(f"type {name} = {render(body)}")
    if sp.typedefs and sp.procdefs:
        lines.append("")
    for d in sp.procdefs:
        params = ", ".join(f"{v}: {render(t)}" for v, t in d.params)
        rank = f" @{d.rank_ann}" if d.rank_ann is not None else ""
        lines.append(f"{d.name}({params}){rank} = {render(d.body)}")
    return "\n".join(lines) + "\n"


# Resolution -----------------------------------------------------------------

# the label and the subtree of a (label, subtree) branch
_label, _subtree = itemgetter(0), itemgetter(1)


def _subtypes(t: TypeExpr) -> Iterator[TypeExpr]:
    """The direct sub-expressions of a type expression, in source order."""
    if isinstance(t, TTags):
        return map(_subtree, t.branches)
    if isinstance(t, TChan):
        return iter((t.payload, t.cont))
    return iter(())


def resolve(sp: SourceProgram) -> Program:
    """Check names, reject non-contractive typedefs, intern all annotations."""
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

    # type name -> the id it stands for; an alias is added at its first use
    ids = dict(slots)

    def name_id(t: TName) -> int:
        """The id of a name not yet in `ids`: an alias, or an undefined name."""
        if t.name not in by_name:
            raise source_error(src, f"undefined type name {t.name!r}", t.at)
        ids[t.name] = slots[chase(t.name)]
        return ids[t.name]

    def intern(root: TypeExpr, slot: Optional[int] = None) -> int:
        """The id of root; a constructor goes into `slot` when one is given.

        A post-order walk on an explicit stack of (node, iterator over its
        children): children are interned left to right before their parent,
        so the ids and the first error are those of a left-to-right
        recursion. A leaf is interned where it is met; a node whose children
        are done takes their ids off the end of `done`.
        """
        if isinstance(root, TName):
            tid = ids.get(root.name)
            return name_id(root) if tid is None else tid
        done: list[int] = []
        stack = [(root, _subtypes(root))]
        while stack:
            t, rest = stack[-1]
            for c in rest:  # resumes after the child last descended into
                if isinstance(c, TName):
                    tid = ids.get(c.name)
                    done.append(name_id(c) if tid is None else tid)
                elif isinstance(c, TEnd):
                    done.append(table.add(("end", c.pol)))
                else:
                    stack.append((c, _subtypes(c)))
                    break
            else:
                stack.pop()
                if isinstance(t, TTags):
                    cut = len(done) - len(t.branches)
                    node: tuple = ("tags", t.pol, tuple(zip(map(_label, t.branches), done[cut:])))
                    del done[cut:]
                elif isinstance(t, TChan):
                    cont = done.pop()
                    node = ("chan", t.pol, done.pop(), cont)
                else:
                    node = ("end", t.pol)
                if slot is not None and not stack:  # the root is finished last
                    table.fill(slot, node)
                    done.append(slot)
                else:
                    done.append(table.add(node))
        return done[0]

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
    # definition by definition, parameters before body: the first error
    # found is the first in source order
    bounds = [*program.start.values(), len(program.nodes)]
    for d, first, end in zip(procs.values(), bounds, bounds[1:]):
        seen_params = set()
        for v, _ in d.params:
            if v in seen_params:
                raise source_error(src, f"duplicate parameter {v!r} in {d.name}", d.at)
            seen_params.add(v)
        d.param_tids = [intern(t) for _, t in d.params]
        for p in program.nodes[first:end]:
            if isinstance(p, Call) and p.name not in procs:
                raise source_error(src, f"undefined process name {p.name!r}", p.at)
            if isinstance(p, ChanIn):
                p.tid = intern(p.ann)
            elif isinstance(p, Cast):
                p.tid = intern(p.target)
            elif isinstance(p, NewSession):
                p.ltid = intern(p.lty)
                p.rtid = intern(p.rty)
    return program


def load(text: str) -> Program:
    return resolve(parse(text))

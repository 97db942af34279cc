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
# chain, which nests to the left. The parser and the passes after it
# recurse on the tree, so a bound well inside the interpreter's stack turns
# a deep input into a SourceError instead of a RecursionError.
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


# Type expressions -----------------------------------------------------------

@dataclass(slots=True)
class TEnd:
    pol: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(slots=True)
class TTags:
    pol: str
    branches: list[tuple[str, "TypeExpr"]]
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(slots=True)
class TChan:
    pol: str
    payload: "TypeExpr"
    cont: "TypeExpr"
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(slots=True)
class TName:
    name: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


TypeExpr = TEnd | TTags | TChan | TName


# Process expressions --------------------------------------------------------

@dataclass(slots=True)
class Done:
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(slots=True)
class Call:
    name: str
    args: list[str]
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(slots=True)
class Close:
    chan: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(slots=True)
class Wait:
    chan: str
    cont: "ProcExpr"
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(slots=True)
class TagComm:
    chan: str
    pol: str
    branches: list[tuple[str, "ProcExpr"]]
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(slots=True)
class ChanOut:
    chan: str
    payload: str
    cont: "ProcExpr"
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(slots=True)
class ChanIn:
    chan: str
    var: str
    ann: TypeExpr
    cont: "ProcExpr"
    span: Span = field(compare=False, repr=False, default=Span(0, 0))
    tid: Optional[int] = field(compare=False, default=None)


@dataclass(slots=True)
class Choice:
    k: int
    left: "ProcExpr"
    right: "ProcExpr"
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(slots=True)
class NewSession:
    chan: str
    lty: TypeExpr
    rty: TypeExpr
    left: "ProcExpr"
    right: "ProcExpr"
    span: Span = field(compare=False, repr=False, default=Span(0, 0))
    ltid: Optional[int] = field(compare=False, default=None)
    rtid: Optional[int] = field(compare=False, default=None)


@dataclass(slots=True)
class Cast:
    chan: str
    target: TypeExpr
    weight_ann: Optional[int]
    cont: "ProcExpr"
    span: Span = field(compare=False, repr=False, default=Span(0, 0))
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


def preorder(p: ProcExpr) -> list[ProcExpr]:
    """Every node under p, each before its children, in source order.

    An explicit stack, so that the depth of the tree costs no frames.
    """
    order: list[ProcExpr] = []
    stack = [p]
    while stack:
        n = stack.pop()
        order.append(n)
        stack.extend(children(n)[::-1])
    return order


@dataclass
class ProcDef:
    name: str
    params: list[tuple[str, TypeExpr]]
    rank_ann: Optional[int]
    body: ProcExpr
    span: Span = field(compare=False, repr=False, default=Span(0, 0))
    param_tids: Optional[list[int]] = field(compare=False, default=None)


@dataclass
class SourceProgram:
    typedefs: list[tuple[str, TypeExpr, Span]]
    procdefs: list[ProcDef]


@dataclass
class Program:
    """A resolved program: every annotation interned into one TypeTable."""
    table: TypeTable
    typedefs: dict[str, int]
    procs: dict[str, ProcDef]


# Lexer ----------------------------------------------------------------------

# A token is a plain tuple (kind, text, line, col). The kind is "ident",
# "nat", "eof" or the punctuation character itself.
Token = tuple[str, str, int, int]

# One token per match; the search skips blanks (space, tab, CR), each one
# column wide. The last alternative takes any other character, so a line is
# read in one pass, in time linear in its length. Every class is spelled out
# in ASCII: `\w`, `\d` and `\s` would also match other scripts' characters.
_TOKEN = re.compile(r"(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<nat>[0-9]+)"
                    r"|[(){}\[\]:,./=!?+|@]|(?P<bad>[^ \t\r])")


def lex(src: str) -> list[Token]:
    toks: list[Token] = []
    lines = src.split("\n")  # only "\n" ends a line
    for line_no, line in enumerate(lines, 1):
        # No token contains "-", so the first "--" starts a comment, unless
        # the line goes wrong before it.
        end = line.find("--")
        if end < 0:
            end = len(line)
        toks += [(m.lastgroup or m[0], m[0], line_no, m.start() + 1)
                 for m in _TOKEN.finditer(line, 0, end)]
    if "bad" in map(itemgetter(0), toks):
        _, c, line_no, col = next(t for t in toks if t[0] == "bad")
        raise SourceError(f"unexpected character {c!r}", line_no, col)
    # eof follows the last line, or sits where its comment starts: a comment
    # takes no columns.
    toks.append(("eof", "", len(lines), end + 1))
    return toks


# Parser ---------------------------------------------------------------------

def _error(msg: str, t: Token) -> SourceError:
    return SourceError(msg, t[2], t[3])


def _found(t: Token) -> str:
    """How an error message names the token it found."""
    return repr(t[1] or t[0])


def _expected(kind: str, t: Token) -> SourceError:
    return _error(f"expected {kind!r}, found {_found(t)}", t)


def _name(t: Token) -> str:
    """The text of an identifier token that is not a keyword."""
    if t[0] != "ident":
        raise _expected("ident", t)
    if t[1] in KEYWORDS:
        raise _error(f"keyword {t[1]!r} cannot be used as a name", t)
    return t[1]


class _Parser:
    # The hot paths (`parse_type`, `_branches`, the `type NAME =` header)
    # index `self.toks` directly; the rest goes through peek/next/expect.

    def __init__(self, toks: list[Token]):
        # A copy of eof past the end keeps a lookahead after it in bounds.
        # The list is lex's own, so it is padded in place, not copied.
        toks.append(toks[-1])
        self.toks = toks
        self.pos = 0
        self.depth = 0

    def descend(self) -> None:
        """Enter one level of nesting; the caller restores the depth on return."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _error(f"nesting deeper than {MAX_NESTING} levels", self.peek())

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        if t[0] != kind:
            raise _expected(kind, t)
        return t

    def ident(self) -> str:
        t = self.toks[self.pos]
        self.pos += 1
        return _name(t)

    def nat(self) -> int:
        t = self.expect("nat")
        try:
            return int(t[1])
        except ValueError:  # more digits than int() converts
            raise _error("number too long", t) from None

    # -- types ----------------------------------------------------------

    def parse_type(self) -> TypeExpr:
        self.descend()
        try:
            toks, pos = self.toks, self.pos
            t = toks[pos]
            kind, text, line, col = t
            if kind == "ident":
                if text == "end":
                    pol = toks[pos + 1][0]
                    self.pos = pos + 2
                    if pol not in ("!", "?"):
                        raise _error("expected '!' or '?' after 'end'", toks[pos + 1])
                    return TEnd(pol, Span(line, col))
                self.pos = pos + 1
                if text in KEYWORDS:
                    raise _error(f"keyword {text!r} is not a type", t)
                return TName(text, Span(line, col))
            if kind in ("!", "?"):
                opener = toks[pos + 1]
                self.pos = pos + 2
                if opener[0] == "{":
                    branches = self._branches(self.parse_type)
                    close = toks[self.pos]
                    self.pos += 1
                    if close[0] != "}":
                        raise _expected("}", close)
                    return TTags(kind, branches, Span(line, col))
                if opener[0] == "(":
                    payload = self.parse_type()
                    close, dot = toks[self.pos], toks[self.pos + 1]
                    if close[0] != ")":
                        raise _expected(")", close)
                    if dot[0] != ".":
                        raise _expected(".", dot)
                    self.pos += 2
                    return TChan(kind, payload, self.parse_type(), Span(line, col))
                raise _error("expected '{' or '(' after polarity", opener)
            raise _error(f"expected a type, found {_found(t)}", t)
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
        repeated = None
        while True:
            t = toks[self.pos]
            label = _name(t)
            colon = toks[self.pos + 1]
            if colon[0] != ":":
                raise _expected(":", colon)
            self.pos += 2
            if label in seen:
                repeated = repeated or t
            seen.add(label)
            branches.append((label, item()))
            if toks[self.pos][0] != ",":
                break
            self.pos += 1
        if repeated:
            raise _error(f"duplicate label {repeated[1]!r}", repeated)
        return branches

    # -- processes --------------------------------------------------------

    def parse_proc(self) -> ProcExpr:
        outer = self.depth
        left = self.parse_atom()
        while self.peek()[0] == "+":
            self.descend()
            _, _, line, col = self.next()
            k = 1
            if self.peek()[0] == "[":
                self.next()
                nat = self.peek()
                k = self.nat()
                if k not in (1, 2):
                    raise _error("choice branch must be 1 or 2", nat)
                self.expect("]")
            right = self.parse_atom()
            left = Choice(k, left, right, Span(line, col))
        self.depth = outer
        return left

    def parse_atom(self) -> ProcExpr:
        self.descend()
        try:
            kind, text, line, col = self.peek()
            span = Span(line, col)
            if kind == "(":
                self.next()
                p = self.parse_proc()
                self.expect(")")
                return p
            if kind == "[":
                self.next()
                chan = self.ident()
                self.expect(":")
                target = self.parse_type()
                weight = None
                if self.peek()[0] == "@":
                    self.next()
                    weight = self.nat()
                self.expect("]")
                return Cast(chan, target, weight, self.parse_atom(), span)
            if kind == "ident":
                if text == "done":
                    self.next()
                    return Done(span)
                if text == "close":
                    self.next()
                    return Close(self.ident(), span)
                if text == "wait":
                    self.next()
                    chan = self.ident()
                    self.expect(".")
                    return Wait(chan, self.parse_atom(), span)
                if text == "new":
                    self.next()
                    chan = self.ident()
                    self.expect(":")
                    lty = self.parse_type()
                    self.expect("/")
                    rty = self.parse_type()
                    t = self.next()
                    if t[:2] != ("ident", "in"):
                        raise _error("expected 'in'", t)
                    self.expect("(")
                    left = self.parse_proc()
                    self.expect("|")
                    right = self.parse_proc()
                    self.expect(")")
                    return NewSession(chan, lty, rty, left, right, span)
            name = self.ident()
            nxt = self.peek()
            if nxt[0] == "(":
                self.next()
                args = []
                if self.peek()[0] != ")":
                    args.append(self.ident())
                    while self.peek()[0] == ",":
                        self.next()
                        args.append(self.ident())
                self.expect(")")
                return Call(name, args, span)
            if nxt[0] in ("!", "?"):
                pol = self.next()[0]
                after = self.peek()[0]
                if after == "{":
                    self.next()
                    branches = self._branches(self.parse_proc)
                    self.expect("}")
                    return TagComm(name, pol, branches, span)
                if after == "(":
                    self.next()
                    if pol == "!":
                        payload = self.ident()
                        self.expect(")")
                        self.expect(".")
                        return ChanOut(name, payload, self.parse_atom(), span)
                    var = self.ident()
                    self.expect(":")
                    ann = self.parse_type()
                    self.expect(")")
                    self.expect(".")
                    return ChanIn(name, var, ann, self.parse_atom(), span)
                label = self.ident()
                self.expect(".")
                cont = self.parse_atom()
                return TagComm(name, pol, [(label, cont)], span)
            raise _error(f"expected a process, found {_found(nxt)}", nxt)
        finally:
            self.depth -= 1

    # -- top level --------------------------------------------------------

    def parse_program(self) -> SourceProgram:
        typedefs: list[tuple[str, TypeExpr, Span]] = []
        procdefs: list[ProcDef] = []
        toks = self.toks
        while toks[self.pos][0] != "eof":
            kind, text, line, col = toks[self.pos]
            if kind == "ident" and text == "type":
                name = _name(toks[self.pos + 1])
                eq = toks[self.pos + 2]
                if eq[0] != "=":
                    raise _expected("=", eq)
                self.pos += 3
                typedefs.append((name, self.parse_type(), Span(line, col)))
            else:
                _, _, line, col = self.peek()
                name = self.ident()
                self.expect("(")
                params: list[tuple[str, TypeExpr]] = []
                if self.peek()[0] != ")":
                    params.append(self._param())
                    while self.peek()[0] == ",":
                        self.next()
                        params.append(self._param())
                self.expect(")")
                rank_ann = None
                if self.peek()[0] == "@":
                    self.next()
                    rank_ann = self.nat()
                self.expect("=")
                body = self.parse_proc()
                procdefs.append(ProcDef(name, params, rank_ann, body, Span(line, col)))
        return SourceProgram(typedefs, procdefs)

    def _param(self) -> tuple[str, TypeExpr]:
        var = self.ident()
        self.expect(":")
        return var, self.parse_type()


def parse(text: str) -> SourceProgram:
    return _Parser(lex(text)).parse_program()


# Renderer -------------------------------------------------------------------

def render_type(t: TypeExpr) -> str:
    if isinstance(t, TEnd):
        return f"end{t.pol}"
    if isinstance(t, TName):
        return t.name
    if isinstance(t, TTags):
        inner = ", ".join(f"{l}: {render_type(b)}" for l, b in t.branches)
        return f"{t.pol}{{{inner}}}"
    return f"{t.pol}({render_type(t.payload)}). {render_type(t.cont)}"


def _atom(p: ProcExpr) -> str:
    s = render_proc(p)
    return f"({s})" if isinstance(p, Choice) else s


def render_proc(p: ProcExpr) -> str:
    if isinstance(p, Done):
        return "done"
    if isinstance(p, Call):
        return f"{p.name}({', '.join(p.args)})"
    if isinstance(p, Close):
        return f"close {p.chan}"
    if isinstance(p, Wait):
        return f"wait {p.chan}. {_atom(p.cont)}"
    if isinstance(p, TagComm):
        if len(p.branches) == 1:
            label, cont = p.branches[0]
            return f"{p.chan}{p.pol}{label}. {_atom(cont)}"
        inner = ", ".join(f"{l}: {render_proc(b)}" for l, b in p.branches)
        return f"{p.chan}{p.pol}{{{inner}}}"
    if isinstance(p, ChanOut):
        return f"{p.chan}!({p.payload}). {_atom(p.cont)}"
    if isinstance(p, ChanIn):
        return f"{p.chan}?({p.var}: {render_type(p.ann)}). {_atom(p.cont)}"
    if isinstance(p, Choice):
        # Left operands re-associate correctly on reparse; right ones do not.
        return f"{render_proc(p.left)} +[{p.k}] {_atom(p.right)}"
    if isinstance(p, NewSession):
        head = f"new {p.chan}: {render_type(p.lty)} / {render_type(p.rty)}"
        return f"{head} in ({render_proc(p.left)} | {render_proc(p.right)})"
    if isinstance(p, Cast):
        w = f" @{p.weight_ann}" if p.weight_ann is not None else ""
        return f"[{p.chan}: {render_type(p.target)}{w}] {_atom(p.cont)}"
    raise TypeError(f"not a process node: {p!r}")


def render_program(sp: SourceProgram) -> str:
    lines = []
    for name, body, _ in sp.typedefs:
        lines.append(f"type {name} = {render_type(body)}")
    if sp.typedefs and sp.procdefs:
        lines.append("")
    for d in sp.procdefs:
        params = ", ".join(f"{v}: {render_type(t)}" for v, t in d.params)
        rank = f" @{d.rank_ann}" if d.rank_ann is not None else ""
        lines.append(f"{d.name}({params}){rank} = {render_proc(d.body)}")
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
    by_name: dict[str, TypeExpr] = {}
    for name, body, span in sp.typedefs:
        if name in by_name:
            raise SourceError(f"duplicate type definition {name!r}", span.line, span.col)
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
                raise SourceError(f"undefined type name {body.name!r}",
                                  body.span.line, body.span.col)
            path[name] = None
            if body.name in path:
                raise SourceError(f"non-contractive type definition {name!r}",
                                  body.span.line, body.span.col)
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
            raise SourceError(f"undefined type name {t.name!r}", t.span.line, t.span.col)
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
    for name, body, span in sp.typedefs:
        if isinstance(body, TName):
            typedefs[name] = slots[chase(name)]
    table.type_names = typedefs

    procs: dict[str, ProcDef] = {}
    for d in sp.procdefs:
        if d.name in procs:
            raise SourceError(f"duplicate process definition {d.name!r}", d.span.line, d.span.col)
        procs[d.name] = d

    for d in procs.values():
        seen_params = set()
        for v, _ in d.params:
            if v in seen_params:
                raise SourceError(f"duplicate parameter {v!r} in {d.name}", d.span.line, d.span.col)
            seen_params.add(v)
        d.param_tids = [intern(t) for _, t in d.params]
        for p in preorder(d.body):
            if isinstance(p, Call) and p.name not in procs:
                raise SourceError(f"undefined process name {p.name!r}", p.span.line, p.span.col)
            if isinstance(p, ChanIn):
                p.tid = intern(p.ann)
            elif isinstance(p, Cast):
                p.tid = intern(p.target)
            elif isinstance(p, NewSession):
                p.ltid = intern(p.lty)
                p.rtid = intern(p.rty)

    return Program(table, typedefs, procs)


def load(text: str) -> Program:
    return resolve(parse(text))

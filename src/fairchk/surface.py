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


class Record:
    """A record with a slot per field. Two records are equal when they are
    of one class and the fields named in `_eq` are equal: every slot but
    `at`, unless the class sets `_eq` itself. A record has no hash."""
    __slots__ = ()

    def __init_subclass__(cls):
        if "_eq" not in cls.__dict__:
            cls._eq = tuple(f for f in cls.__slots__ if f != "at")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._eq] == [getattr(other, f) for f in self._eq]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._eq)})"


# A syntax node keeps `at`, the index in lex's token list of its first
# token, and no line or column: those are looked up in the source's
# position table (`token_positions`) only when one is printed. A node that
# was not parsed from text has `at` = -1, printed as 0:0.


# Type expressions -----------------------------------------------------------

class TEnd(Record):
    __slots__ = ("pol", "at")

    def __init__(self, pol: str, at: int = -1):
        self.pol, self.at = pol, at


class TTags(Record):
    __slots__ = ("pol", "branches", "at")

    def __init__(self, pol: str, branches: list[tuple[str, TypeExpr]], at: int = -1):
        self.pol, self.branches, self.at = pol, branches, at


class TChan(Record):
    __slots__ = ("pol", "payload", "cont", "at")

    def __init__(self, pol: str, payload: TypeExpr, cont: TypeExpr, at: int = -1):
        self.pol, self.payload, self.cont, self.at = pol, payload, cont, at


class TName(Record):
    __slots__ = ("name", "at")

    def __init__(self, name: str, at: int = -1):
        self.name, self.at = name, at


TypeExpr = TEnd | TTags | TChan | TName


# Process expressions --------------------------------------------------------

class Done(Record):
    __slots__ = ("at",)

    def __init__(self, at: int = -1):
        self.at = at


class Call(Record):
    __slots__ = ("name", "args", "at")

    def __init__(self, name: str, args: list[str], at: int = -1):
        self.name, self.args, self.at = name, args, at


class Close(Record):
    __slots__ = ("chan", "at")

    def __init__(self, chan: str, at: int = -1):
        self.chan, self.at = chan, at


class Wait(Record):
    __slots__ = ("chan", "cont", "at")

    def __init__(self, chan: str, cont: ProcExpr, at: int = -1):
        self.chan, self.cont, self.at = chan, cont, at


class TagComm(Record):
    __slots__ = ("chan", "pol", "branches", "at")

    def __init__(self, chan: str, pol: str, branches: list[tuple[str, ProcExpr]],
                 at: int = -1):
        self.chan, self.pol, self.branches, self.at = chan, pol, branches, at

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.branches)


class ChanOut(Record):
    __slots__ = ("chan", "payload", "cont", "at")

    def __init__(self, chan: str, payload: str, cont: ProcExpr, at: int = -1):
        self.chan, self.payload, self.cont, self.at = chan, payload, cont, at


class ChanIn(Record):
    __slots__ = ("chan", "var", "ann", "cont", "at")

    def __init__(self, chan: str, var: str, ann: TypeExpr, cont: ProcExpr, at: int = -1):
        self.chan, self.var, self.ann, self.cont, self.at = chan, var, ann, cont, at


class Choice(Record):
    __slots__ = ("k", "left", "right", "at")

    def __init__(self, k: int, left: ProcExpr, right: ProcExpr, at: int = -1):
        self.k, self.left, self.right, self.at = k, left, right, at


class NewSession(Record):
    __slots__ = ("chan", "lty", "rty", "left", "right", "at")

    def __init__(self, chan: str, lty: TypeExpr, rty: TypeExpr, left: ProcExpr,
                 right: ProcExpr, at: int = -1):
        self.chan, self.lty, self.rty, self.left, self.right, self.at = (
            chan, lty, rty, left, right, at)


class Cast(Record):
    __slots__ = ("chan", "target", "weight_ann", "cont", "at")

    def __init__(self, chan: str, target: TypeExpr, weight_ann: int | None,
                 cont: ProcExpr, at: int = -1):
        self.chan, self.target, self.weight_ann, self.cont, self.at = (
            chan, target, weight_ann, cont, at)


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


class ProcDef(Record):
    __slots__ = ("name", "params", "rank_ann", "body", "at")

    def __init__(self, name: str, params: list[tuple[str, TypeExpr]], rank_ann: int | None,
                 body: ProcExpr, at: int = -1):
        self.name, self.params, self.rank_ann, self.body, self.at = (
            name, params, rank_ann, body, at)


class SourceProgram(Record):
    __slots__ = ("typedefs", "procdefs", "source")

    def __init__(self, typedefs: list[tuple[str, TypeExpr, int]], procdefs: list[ProcDef],
                 source: str = ""):
        # (name, body, at): `at` is the index of the `type` token
        self.typedefs, self.procdefs = typedefs, procdefs
        self.source = source  # the text the token indices point into


class Program(Record):
    """A resolved program: every annotation interned into one TypeTable.

    Building one numbers every occurrence once, definitions in order and
    each in preorder: `nodes[v]` is occurrence v, `kids[v]` the numbers of
    its children in source order, `start[name]` the number of a body and
    `owner[v]` the definition that holds v.

    `resolve` leaves the tree as parsed and keeps the interned annotations
    here: `tids[v]` holds the ids of occurrence v's in source order (an
    input's annotation, a cast's target, a session's two endpoint types, or
    none), and `param_tids[name]` those of a definition's parameters.
    Two programs are equal when their table, typedefs, procs and source are.
    """
    __slots__ = ("table", "typedefs", "procs", "source", "nodes", "kids", "start", "owner",
                 "tids", "param_tids", "_positions")
    _eq = ("table", "typedefs", "procs", "source")

    def __init__(self, table: TypeTable, typedefs: dict[str, int], procs: dict[str, ProcDef],
                 source: str = ""):
        self.table, self.typedefs, self.procs, self.source = table, typedefs, procs, source
        self._positions: list[tuple[int, int]] | None = None
        nodes, kids = self.nodes, self.kids = [], []
        self.start, self.owner, self.param_tids = {}, [], {}
        for name, d in procs.items():
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
        self.tids = [()] * len(nodes)

    def span(self, at: int) -> tuple[int, int]:
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

# A token's text, and a comment. Every class is spelled out in ASCII: `\w`,
# `\d` and `\s` would also match other scripts' characters.
_WORD = r"[A-Za-z_][A-Za-z0-9_']*|[0-9]+|[(){}\[\]:,./=!?+|@]"
_COMMENT = re.compile(r"--[^\n]*")
# The position table's pass: a line break (group 1), a comment (group 2), a
# token, or a stray character (group 3).
_POSITION = re.compile(rf"(\n)|({_COMMENT.pattern})|{_WORD}|([^ \t\r])")

# lex cuts tokens with str methods, in C, and runs a pattern only where the
# text holds a character that pattern looks for. No token contains "-", so
# every "--" starts a comment. Once the comments are gone, a character is
# stray when it is outside the alphabet below (a lone "-" among them), or
# when it is an apostrophe that starts a run of identifier characters or
# follows the numeral that starts one: only a letter or "_" starts an
# identifier, and a numeral ends at its last digit.
_PUNCT = "(){}[]:,./=!?+|@"
_DIGITS = "0123456789"
# deletes every character a token or a blank is made of
_ALPHABET = str.maketrans("", "", "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                          + _DIGITS + "_'" + _PUNCT + " \t\r\n")
# The two patterns below open with a character class, so `re` skips to a
# digit or an apostrophe; a lookbehind then checks that it starts a run.
_LOOSE_APOSTROPHE = re.compile(r"[0-9'](?<![A-Za-z0-9_'][0-9'])(?:(?<=')|[0-9]*')")
# a numeral with an identifier glued to it, as in 12ab: two tokens
_GLUED_NUMERAL = re.compile(r"[0-9](?<![A-Za-z0-9_'][0-9])[0-9]*(?=[A-Za-z_])")


def lex(src: str) -> list[str]:
    """The tokens of src, then "" for eof; SourceError at a stray character."""
    text = _COMMENT.sub("", src) if "--" in src else src
    if text.translate(_ALPHABET) or ("'" in text and _LOOSE_APOSTROPHE.search(text)):
        # the position table's pass reports where the first one occurs
        token_positions(src)
    # Every character left is a token's or one of the four blanks, which are
    # all that str.split() splits on among them: blanking around each
    # punctuation mark and after each glued numeral cuts the text exactly
    # at the token boundaries.
    if any(d in text for d in _DIGITS):
        text = _GLUED_NUMERAL.sub(r"\g<0> ", text)
    for c in _PUNCT:
        if c in text:
            text = text.replace(c, f" {c} ")
    toks = text.split()
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


def _span(positions: list[tuple[int, int]], at: int) -> tuple[int, int]:
    return positions[at] if at >= 0 else (0, 0)


def source_error(src: str, msg: str, at: int) -> SourceError:
    """A SourceError at token `at` of src."""
    return SourceError(msg, *_span(token_positions(src), at))


# Parser ---------------------------------------------------------------------

class _Parser:
    """Recursive descent that indexes lex's list of token strings.

    A node keeps the index of its first token. Lookahead reads at most one
    token past one already known not to be eof, and the list ends in two
    eofs, so every index stays in bounds. Each parse method takes `depth`,
    the nesting level of what it parses: 1 at the top level, one more
    inside each constructor, and one more for each atom of a choice chain
    after the first.
    """

    def __init__(self, toks: list[str], src: str):
        # The list is lex's own, so it is padded in place, not copied.
        toks.append("")
        self.toks = toks
        self.src = src
        self.pos = 0

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

    # -- types ----------------------------------------------------------

    def parse_type(self, depth: int) -> TypeExpr:
        """A type expression at nesting level `depth`.

        A `{…}` branch list is read here, not by `_branches`: a branch whose
        type is a bare name, `end!` or `end?` becomes its TName or TEnd
        without a call, as long as its level is within MAX_NESTING (at the
        bound the call below raises); any other branch type, a malformed
        `end` too, is one call a level down. Repeated labels are looked for
        once the list has parsed, before its `}`: the first label that
        repeats is reported, two tokens before its branch's type.
        """
        toks, at = self.toks, self.pos
        if depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", at)
        t = toks[at]
        if t == "!" or t == "?":
            opener = toks[at + 1]
            self.pos = at + 2
            if opener == "{":
                depth += 1
                leaf = depth <= MAX_NESTING
                branches = []
                pos = at + 2
                while True:
                    label = toks[pos]
                    if label[:1] not in _IDENT_START or label in KEYWORDS:
                        self.name(pos)  # raises
                    if toks[pos + 1] != ":":
                        raise self.expected(":", pos + 1)
                    name = toks[pos + 2]
                    if leaf and name[:1] in _IDENT_START and name not in KEYWORDS and name != "end":
                        branches.append((label, TName(name, pos + 2)))
                        pos += 3
                    elif leaf and name == "end" and ((pol := toks[pos + 3]) == "!" or pol == "?"):
                        branches.append((label, TEnd(pol, pos + 2)))
                        pos += 4
                    else:
                        self.pos = pos + 2
                        branches.append((label, self.parse_type(depth)))
                        pos = self.pos
                    if toks[pos] != ",":
                        break
                    pos += 1
                if len(branches) > 1 and len(dict(branches)) < len(branches):
                    seen = set()
                    for label, b in branches:
                        if label in seen:
                            raise self.error(f"duplicate label {label!r}", b.at - 2)
                        seen.add(label)
                self.want("}", pos)
                self.pos = pos + 1
                return TTags(t, branches, at)
            if opener == "(":
                payload = self.parse_type(depth + 1)
                pos = self.pos
                self.want(")", pos)
                self.want(".", pos + 1)
                self.pos = pos + 2
                return TChan(t, payload, self.parse_type(depth + 1), at)
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

    def _branches(self, depth: int) -> list[tuple[str, ProcExpr]]:
        """`LABEL ":" proc ("," LABEL ":" proc)*`, with distinct labels.

        A repeated label is reported where it first repeats, once the whole
        list has parsed, so a syntax error later in the list comes first.
        `parse_type` reads a type's branch list by the same rules.
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
            branches.append((label, self.parse_proc(depth)))
            if toks[self.pos] != ",":
                break
            self.pos += 1
        if repeated >= 0:
            raise self.error(f"duplicate label {toks[repeated]!r}", repeated)
        return branches

    # -- processes --------------------------------------------------------

    def parse_proc(self, depth: int) -> ProcExpr:
        toks = self.toks
        left = self.parse_atom(depth)
        while toks[self.pos] == "+":
            depth += 1  # the chain nests to the left
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
            left = Choice(k, left, self.parse_atom(depth), at)
        return left

    def parse_atom(self, depth: int) -> ProcExpr:
        toks, at = self.toks, self.pos
        if depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", at)
        t = toks[at]
        if t == "(":
            self.pos = at + 1
            p = self.parse_proc(depth + 1)
            self.expect(")")
            return p
        if t == "[":
            chan = self.name(at + 1)
            self.want(":", at + 2)
            self.pos = at + 3
            target = self.parse_type(depth + 1)
            pos, weight = self.pos, None
            if toks[pos] == "@":
                weight = self.nat(pos + 1)
                pos += 2
            self.want("]", pos)
            self.pos = pos + 1
            return Cast(chan, target, weight, self.parse_atom(depth + 1), at)
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
            return Wait(chan, self.parse_atom(depth + 1), at)
        if t == "new":
            chan = self.name(at + 1)
            self.want(":", at + 2)
            self.pos = at + 3
            lty = self.parse_type(depth + 1)
            self.expect("/")
            rty = self.parse_type(depth + 1)
            pos = self.pos
            if toks[pos] != "in":
                raise self.error("expected 'in'", pos)
            self.want("(", pos + 1)
            self.pos = pos + 2
            left = self.parse_proc(depth + 1)
            self.expect("|")
            right = self.parse_proc(depth + 1)
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
                branches = self._branches(depth + 1)
                self.expect("}")
                return TagComm(name, nxt, branches, at)
            if after == "(":
                var = self.name(at + 3)
                if nxt == "!":
                    self.want(")", at + 4)
                    self.want(".", at + 5)
                    self.pos = at + 6
                    return ChanOut(name, var, self.parse_atom(depth + 1), at)
                self.want(":", at + 4)
                self.pos = at + 5
                ann = self.parse_type(depth + 1)
                pos = self.pos
                self.want(")", pos)
                self.want(".", pos + 1)
                self.pos = pos + 2
                return ChanIn(name, var, ann, self.parse_atom(depth + 1), at)
            label = self.name(at + 2)
            self.want(".", at + 3)
            self.pos = at + 4
            return TagComm(name, nxt, [(label, self.parse_atom(depth + 1))], at)
        raise self.error(f"expected a process, found {nxt or 'eof'!r}", at + 1)

    # -- top level --------------------------------------------------------

    def parse_program(self) -> SourceProgram:
        typedefs: list[tuple[str, TypeExpr, int]] = []
        procdefs: list[ProcDef] = []
        toks = self.toks
        while toks[self.pos]:  # "" is eof
            at = self.pos
            if toks[at] == "type":
                name = toks[at + 1]
                if name[:1] not in _IDENT_START or name in KEYWORDS:
                    self.name(at + 1)  # raises
                if toks[at + 2] != "=":
                    raise self.expected("=", at + 2)
                self.pos = at + 3
                typedefs.append((name, self.parse_type(1), at))
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
            procdefs.append(ProcDef(name, params, rank_ann, self.parse_proc(1), at))
        return SourceProgram(typedefs, procdefs, self.src)

    def _param(self) -> tuple[str, TypeExpr]:
        at = self.pos
        var = self.name(at)
        self.want(":", at + 1)
        self.pos = at + 2
        return var, self.parse_type(1)


def parse(text: str) -> SourceProgram:
    return _Parser(lex(text), text).parse_program()


# Renderer -------------------------------------------------------------------

def _operand(p: ProcExpr) -> tuple:
    """p as the operand of a prefix or the right operand of a choice: a
    choice there is parenthesized. Left operands re-associate correctly on
    reparse; right ones do not."""
    return ("(", p, ")") if isinstance(p, Choice) else (p,)


def _branches_text(branches: list[tuple[str, object]]) -> list:
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

def resolve(sp: SourceProgram) -> Program:
    """Check names, reject non-contractive typedefs, intern all annotations.

    The ids follow one order: a slot per typedef that is not an alias, in
    definition order; then each body's anonymous nodes, in post-order and
    left to right; then, definition by definition, the annotations.
    """
    src = sp.source
    by_name: dict[str, TypeExpr] = {}
    for name, body, at in sp.typedefs:
        if name in by_name:
            raise source_error(src, f"duplicate type definition {name!r}", at)
        by_name[name] = body

    # A typedef whose body is a bare name is an alias; every other typedef
    # owns a slot of the table, all of them allocated in one step, and the
    # slot's id is in `ids` from the start.
    named = [name for name, body, _ in sp.typedefs if type(body) is not TName]
    table = TypeTable(named)
    typedefs = {name: i for i, name in enumerate(named)}
    ids = dict(typedefs)
    nodes, add = table.nodes, table.add

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

    def intern(roots, slot: int | None = None) -> list[int]:
        """The ids of roots, in order. With a `slot`, no root is a name, and
        root k is written straight into node slot + k, not through add(), so
        that a typedef keeps its id even when an identical anonymous shape
        exists.

        One post-order walk over all the roots, left to right, so the ids
        and the first error are those of a left-to-right recursion. The
        constructor being built lives in locals: the node, its label in its
        parent, its (label, id) pairs so far, and an iterator over its
        (label, child) pairs, where a channel's payload and continuation
        carry no label. A name or `end` child is interned where it is met;
        a constructor child suspends its parent on a stack of frames, which
        resumes it once the child's node is built. So a body whose children
        are all names and `end` leaves takes no frame.
        """
        got, frames = [], []
        for root in roots:
            kind = type(root)
            if kind is TName:
                got.append(type_id(root.name, root.at))
                continue
            if kind is TEnd:
                node: tuple = ("end", root.pol)
            else:
                t, label, pairs = root, None, []
                rest = iter(root.branches if kind is TTags
                            else ((None, root.payload), (None, root.cont)))
                while True:
                    for key, c in rest:  # resumes after the child last descended into
                        kind = type(c)
                        if kind is TName:
                            tid = ids.get(c.name)
                            pairs.append((key, type_id(c.name, c.at) if tid is None else tid))
                        elif kind is TEnd:
                            pairs.append((key, add(("end", c.pol))))
                        else:
                            frames.append((t, label, pairs, rest))
                            t, label, pairs = c, key, []
                            rest = iter(c.branches if kind is TTags
                                        else ((None, c.payload), (None, c.cont)))
                            break
                    else:
                        node = (("tags", t.pol, tuple(pairs)) if type(t) is TTags
                                else ("chan", t.pol, pairs[0][1], pairs[1][1]))
                        if not frames:  # the root is finished last
                            break
                        child = (label, add(node))
                        t, label, pairs, rest = frames.pop()
                        pairs.append(child)
            if slot is None:
                got.append(add(node))
            else:
                nodes[slot] = node
                slot += 1
        return got

    intern(map(by_name.get, named), 0)
    for name, body, at in sp.typedefs:
        if type(body) is TName:
            typedefs[name] = type_id(name, at)
    table.type_names = typedefs

    procs: dict[str, ProcDef] = {}
    for d in sp.procdefs:
        if d.name in procs:
            raise source_error(src, f"duplicate process definition {d.name!r}", d.at)
        procs[d.name] = d

    program = Program(table, typedefs, procs, src)
    occurrences, tids = program.nodes, program.tids
    # definition by definition, parameters before body: the first error
    # found is the first in source order
    bounds = [*program.start.values(), len(occurrences)]
    for d, first, end in zip(procs.values(), bounds, bounds[1:]):
        seen_params = set()
        for v, _ in d.params:
            if v in seen_params:
                raise source_error(src, f"duplicate parameter {v!r} in {d.name}", d.at)
            seen_params.add(v)
        program.param_tids[d.name] = intern([t for _, t in d.params])
        for v, p in enumerate(occurrences[first:end], first):
            if isinstance(p, Call) and p.name not in procs:
                raise source_error(src, f"undefined process name {p.name!r}", p.at)
            if isinstance(p, ChanIn):
                tids[v] = tuple(intern([p.ann]))
            elif isinstance(p, Cast):
                tids[v] = tuple(intern([p.target]))
            elif isinstance(p, NewSession):
                tids[v] = tuple(intern([p.lty, p.rty]))
    return program


def load(text: str) -> Program:
    return resolve(parse(text))

"""Lexing, parsing, rendering, and name resolution."""

import gc
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchk.surface import (MAX_NESTING, Cast, ChanIn, ChanOut, Choice, Close,
                             Done, NewSession, ProcDef, Program, Record, SourceError,
                             SourceProgram, TagComm, TChan, TEnd, TName, TTags, Wait, children,
                             lex, load, parse, render, render_program, resolve,
                             token_positions)
from fairchk.types import TypeTable, equiv

import gen
from conftest import CORPUS_RANKS, corpus_text
from gen import random_source_program
from oracles import (lex_charwise, lex_findall, lex_lines, preorder, render_syntax_recursive,
                     resolve_frames, resolve_recursive)
from test_mutations import _byte_mutants, _mutants


def _same_source(a, b):
    assert [(n, body) for n, body, _ in a.typedefs] == \
           [(n, body) for n, body, _ in b.typedefs]
    assert a.procdefs == b.procdefs


def test_minimal_program():
    sp = parse("type E = end!  Main() = done")
    assert len(sp.typedefs) == 1 and len(sp.procdefs) == 1
    assert sp.typedefs[0][0] == "E" and sp.typedefs[0][1] == TEnd("!")
    assert sp.procdefs[0].name == "Main" and sp.procdefs[0].body == Done()


def test_nodes_compare_by_class_and_fields_but_at():
    body = parse("Main() = wait x. close x").procdefs[0].body
    twin = Wait("x", Close("x"))
    assert (body.at, body.cont.at, twin.at) == (4, 7, -1) and body == twin
    assert Close("x") != TName("x") and Close("x") != Close("y")
    assert repr(twin) == "Wait(chan='x', cont=Close(chan='x'))"
    with pytest.raises(TypeError):
        hash(body)


@pytest.mark.parametrize("name", sorted(CORPUS_RANKS))
def test_corpus_round_trip(name):
    sp = parse(corpus_text(name))
    _same_source(sp, parse(render_program(sp)))
    resolve(sp)


def test_random_program_round_trip():
    rnd = random.Random(21)
    for _ in range(500):
        sp = random_source_program(rnd)
        _same_source(sp, parse(render_program(sp)))


def test_render_type_examples():
    assert render(TEnd("!")) == "end!"
    t = TTags("!", [("add", TName("SB")), ("pay", TEnd("!"))])
    assert render(t) == "!{add: SB, pay: end!}"


def _syntax_trees(sp):
    """Every type and process expression of sp, each subprocess too."""
    for _, body, _ in sp.typedefs:
        yield body
    for d in sp.procdefs:
        yield from (t for _, t in d.params)
        yield from preorder(d.body)


def test_syntax_render_matches_recursive_oracle():
    rnd = random.Random(22)
    programs = [parse(corpus_text(name)) for name in sorted(CORPUS_RANKS)]
    programs += [random_source_program(rnd) for _ in range(2000)]
    kinds = set()
    for sp in programs:
        for tree in _syntax_trees(sp):
            assert render(tree) == render_syntax_recursive(tree)
            kinds.add(type(tree).__name__)
    assert len(kinds) == 14, kinds  # every kind of type and process node


DEPTH = 10**5

# shape -> (a syntax tree DEPTH levels deep, built directly because the
# parser admits only MAX_NESTING levels, and the text render_program gives)
_DEEP_SHAPES = {
    "sessions": (
        lambda p: NewSession("x", TEnd("!"), TEnd("?"), Close("x"), Wait("x", p)), Done(),
        "new x: end! / end? in (close x | wait x. ", "done", ")"),
    "prefixes": (lambda p: TagComm("x", "!", [("a", p)]), Close("x"), "x!a. ", "close x", ""),
    "branches": (lambda p: TagComm("x", "?", [("a", p), ("b", Done())]), Done(),
                 "x?{a: ", "done", ", b: done}"),
    "parentheses": (lambda p: Choice(1, Done(), p), Choice(1, Done(), Done()),
                    "done +[1] (", "done +[1] done", ")"),
    "choices": (lambda p: Choice(2, p, Done()), Done(), "", "done", " +[2] done"),
    "channel-types": (lambda t: TChan("!", TEnd("?"), t), TEnd("!"), "!(end?). ", "end!", ""),
    "casts": (lambda p: Cast("x", TTags("!", [("a", TEnd("!"))]), None, p), Close("x"),
              "[x: !{a: end!}] ", "close x", ""),
}


@pytest.mark.parametrize("shape", sorted(_DEEP_SHAPES))
def test_render_prints_trees_a_hundred_thousand_levels_deep(shape):
    wrap, leaf, opening, middle, closing = _DEEP_SHAPES[shape]
    tree = leaf
    for _ in range(DEPTH):
        tree = wrap(tree)
    if shape == "channel-types":
        sp, head = SourceProgram([("T", tree, -1)], []), "type T = "
    else:
        sp, head = SourceProgram([], [ProcDef("Main", [], None, tree)]), "Main() = "
    # strings compared, not trees: a record's __eq__ recurses
    assert render_program(sp) == head + opening * DEPTH + middle + closing * DEPTH + "\n"


def test_comments_and_whitespace():
    sp = parse("-- a comment\ntype E = end!  -- trailing\nMain() = done\n")
    assert len(sp.typedefs) == 1 and len(sp.procdefs) == 1


def test_single_tag_sugar():
    body = parse("Main() = x!a. done").procdefs[0].body
    assert body == TagComm("x", "!", [("a", Done())])
    body = parse("Main() = x?a. done").procdefs[0].body
    assert body == TagComm("x", "?", [("a", Done())])


def test_prefix_binds_tighter_than_choice():
    body = parse("Main() = wait x. done + close y").procdefs[0].body
    assert body == Choice(1, Wait("x", Done()), Close("y"))


def test_choice_is_left_associative():
    body = parse("Main() = done +[1] done +[2] done").procdefs[0].body
    assert body == Choice(2, Choice(1, Done(), Done()), Done())


def test_bare_plus_marks_branch_one():
    body = parse("Main() = done + close x").procdefs[0].body
    assert body == Choice(1, Done(), Close("x"))


def test_parenthesized_right_choice():
    body = parse("Main() = done + (done + done)").procdefs[0].body
    assert body == Choice(1, Done(), Choice(1, Done(), Done()))


def test_delegation_forms():
    body = parse("Main() = x!(y). done").procdefs[0].body
    assert body == ChanOut("x", "y", Done())
    body = parse("Main() = x?(y: end!). done").procdefs[0].body
    assert body == ChanIn("x", "y", TEnd("!"), Done())


def test_session_and_cast_forms():
    body = parse("Main() = new x: end! / end? in (close x | wait x. done)").procdefs[0].body
    assert body == NewSession("x", TEnd("!"), TEnd("?"), Close("x"), Wait("x", Done()))
    body = parse("Main() = [x: end! @2] close x").procdefs[0].body
    assert body == Cast("x", TEnd("!"), 2, Close("x"))
    body = parse("Main() = [x: end!] close x").procdefs[0].body
    assert body == Cast("x", TEnd("!"), None, Close("x"))


def test_chan_type_syntax():
    t = parse("type D = !(end!). end?").typedefs[0][1]
    assert t == TChan("!", TEnd("!"), TEnd("?"))


def test_rank_pragma():
    d = parse("Main() @ 3 = done").procdefs[0]
    assert d.rank_ann == 3
    assert parse("Main() = done").procdefs[0].rank_ann is None


def test_apostrophe_identifiers():
    sp = parse("type SB' = end!  Main(x: SB') = close x")
    assert sp.typedefs[0][0] == "SB'"
    assert sp.procdefs[0].params == [("x", TName("SB'"))]


def test_spans_point_into_the_source():
    # a node keeps the index of its first token, and the position table
    # gives that token's line and column
    text = "type E = end!\nMain() = done"
    sp = parse(text)
    where = token_positions(text)
    assert where[sp.typedefs[0][2]] == (1, 1)
    assert where[sp.procdefs[0].at] == (2, 1)
    assert where[sp.procdefs[0].body.at] == (2, 10)
    assert load(text).span(sp.procdefs[0].body.at) == (2, 10)


def _lexed(text):
    """lex's tokens and the position table's (line, col) for each, eof
    included, or lex's error text. The table is built only from text that
    lex accepts: the table refuses a stray character too, and would
    otherwise hide one that lex let through."""
    try:
        toks = lex(text)
    except SourceError as err:
        return str(err)
    return toks, token_positions(text)


def _lexed_by(oracle, text):
    """The same, from one of the tuple lexers."""
    try:
        toks = oracle(text)
    except SourceError as err:
        return str(err)
    return [t[1] for t in toks], [(t[2], t[3]) for t in toks]


def _assert_lexes_as_oracles(text):
    # the same token texts, hence the same len, and the same positions or
    # the same error as the two tuple lexers; and the same token texts or
    # the same error as the findall lexer, which shares the position table
    got = _lexed(text)
    assert got == _lexed_by(lex_charwise, text), text
    assert got == _lexed_by(lex_lines, text), text
    try:
        assert got[0] == lex_findall(text), text
    except SourceError as err:
        assert got == str(err), text


def _lexer_inputs():
    """The corpus, every generated family, the generated counterparts of
    the benchmark's inputs at its sizes, and seeded random programs."""
    yield from (corpus_text(name) for name in sorted(CORPUS_RANKS))
    for n in (1, 5, 17):
        yield gen.call_dag_source(n)
        yield gen.session_chain_source(n)
        yield gen.cascade_source(n)
        yield gen.diverging_source(n)
        yield gen.holding_source(n)
        yield gen.holding_loop_source(n)
        yield gen.shared_ladder_source(n)
    for n in (400, 800):
        yield gen.cascade_source(n)
        yield gen.diverging_source(n)
        yield gen.holding_source(n)
    yield gen.dual_chain_source(800)
    yield gen.session_chain_source(60)
    yield from (gen.swarm_source(d) for d in (1, 4))
    for source in gen.NESTED_SOURCES.values():
        yield source(gen.deepest_admitted(source))
        yield source(gen.deepest_admitted(source) + 1)
    rnd = random.Random(8)
    for _ in range(200):
        yield gen.random_runnable_source(rnd)
    for _ in range(2000):
        yield render_program(random_source_program(rnd))


def test_lexer_matches_charwise_oracle_on_programs():
    for text in _lexer_inputs():
        _assert_lexes_as_oracles(text)


def test_lexer_matches_both_oracles_on_mutants():
    # the token and byte mutants of the mutation tests, those that decode
    errors = 0
    for name in sorted(CORPUS_RANKS):
        text = corpus_text(name)
        for mutant in _mutants(text, random.Random(f"mutate {name}")):
            _assert_lexes_as_oracles(mutant)
        for data in _byte_mutants(text.encode("utf-8"), random.Random(f"bytes {name}")):
            try:
                mutant = data.decode("utf-8")
            except UnicodeDecodeError:
                continue
            _assert_lexes_as_oracles(mutant)
            errors += isinstance(_lexed(mutant), str)
    assert errors > 50


def test_lexer_matches_charwise_oracle_on_corpus_prefixes():
    for name in sorted(CORPUS_RANKS):
        text = corpus_text(name)
        for i in range(len(text) + 1):
            _assert_lexes_as_oracles(text[:i])


# Every kind of token and blank, a lone dash, a leading apostrophe and runs
# that glue a numeral to what follows it, and then, one third as often,
# characters the lexer must refuse: a non-ASCII letter, digits of other
# scripts, NUL, and the characters str.split() takes for blanks but the
# lexer does not (form feed, vertical tab, the ASCII separators, NEL,
# no-break, line and ideographic space).
_LEXER_ALPHABET = ([*"aZ_q09(){}[]:,./=!?+|@--''\t\r \n\n", "12ab", "3'", "0_"] * 3
                   + [*"\u00e9\u00b2\u0663\x00\x0c\x0b\x1c\x1f\x85\xa0\u2028\u3000"])


def test_lexer_matches_charwise_oracle_on_random_text():
    rnd = random.Random(88)
    for _ in range(20_000):
        text = "".join(rnd.choices(_LEXER_ALPHABET, k=rnd.randrange(40)))
        _assert_lexes_as_oracles(text)


@pytest.mark.parametrize("end, where", [("", "1:20"), ("\n", "2:1")])
def test_eof_after_a_comment(end, where):
    # a comment takes no columns: eof sits where it starts, or on the next line
    text = "P(x: end!) = close -- bye" + end
    _assert_lexes_as_oracles(text)
    assert token_positions(text)[-1] == tuple(map(int, where.split(":")))
    with pytest.raises(SourceError) as err:
        parse(text)
    assert str(err.value) == f"{where}: expected 'ident', found 'eof'"


@pytest.mark.parametrize("text, lexer, where, msg", [
    ("a" * 10**6 + "-", lex, "1:1000001", "unexpected character '-'"),
    ("a b " * 250_000 + "'", lex, "1:1000001", 'unexpected character "\'"'),
    ("1" * 10**6 + "'", lex, "1:1000001", 'unexpected character "\'"'),
    ("P() = -- " + "a" * 10**6, parse, "1:7", "expected 'ident', found 'eof'"),
], ids=["dash-after-long-name", "apostrophe-after-many-blanks", "apostrophe-after-long-numeral",
        "long-comment"])
def test_long_lines_lex_in_linear_time(text, lexer, where, msg):
    # a pattern that backtracks over these lines would take ages, not milliseconds
    started = time.perf_counter()
    with pytest.raises(SourceError) as err:
        lexer(text)
    assert time.perf_counter() - started < 2.0
    assert str(err.value) == f"{where}: {msg}"


@pytest.mark.parametrize("text", ["a" + " " * 10**6, "a" + " \t\r\n" * 250_000],
                         ids=["spaces", "mixed-blanks"])
def test_trailing_blanks_lex_in_linear_time(text):
    # a token pattern that skips the blanks before a token inside its own
    # match retries the whole trailing run from each of its characters
    started = time.perf_counter()
    assert lex(text) == ["a", ""]
    assert time.perf_counter() - started < 2.0


@pytest.mark.parametrize("text, toks", [
    ("1" * 10**6 + "x", ["1" * 10**6, "x", ""]),
    ("1" * 10**6 + "a'", ["1" * 10**6, "a'", ""]),
], ids=["name-after-long-numeral", "primed-name-after-long-numeral"])
def test_glued_numerals_lex_in_linear_time(text, toks):
    # the patterns that find a numeral glued to a name, and an apostrophe
    # after a numeral, scan the whole run of digits from its first one
    started = time.perf_counter()
    assert lex(text) == toks
    assert time.perf_counter() - started < 2.0


# The `line:col: message` texts of these and of RESOLVE_ERRORS are pinned
# in golden_check.json.
PARSE_ERRORS = [
    "type = end!",                       # missing name
    "type T = !{a: end!",                # unterminated branches
    "type T = !{a: end!, a: end!}",      # duplicate label
    "type done = end!",                  # keyword as a name
    "Main() = done +[3] done",           # branch marker out of range
    "Main() = x!{a: done, a: done}",     # duplicate process label
    "Main() = $",                        # stray character
    "Main() = new x: end! in (done | done)",  # missing second endpoint
    "Main( = done",                      # broken parameter list
    "type T = end",                      # polarity missing
]

RESOLVE_ERRORS = [
    "type X = X  Main() = done",                    # direct self alias
    "type A = B\ntype B = A\nMain() = done",        # alias cycle
    "type A = end!\ntype A = end?\nMain() = done",  # duplicate typedef
    "Main() = done\nMain() = done",                 # duplicate procdef
    "Main(x: end!, x: end?) = close x",             # duplicate parameter
    "Main(x: T) = close x",                         # undefined type
    "Main() = Other()",                             # undefined process
]


@pytest.mark.parametrize("bad", PARSE_ERRORS)
def test_parse_errors(bad):
    with pytest.raises(SourceError) as err:
        parse(bad)
    assert err.value.line >= 1 and err.value.col >= 1


@pytest.mark.parametrize("source, message", [
    ("type T = !{a: end!, a: end!}", "1:21: duplicate label 'a'"),
    ("Main() = x?{a: close x, b: close x, a: close x}", "1:37: duplicate label 'a'"),
    ("type T = !{b: end!, a: end!, b: end?, a: end?}", "1:30: duplicate label 'b'"),
])
def test_duplicate_label_is_reported_at_the_repeat(source, message):
    # at the first label that repeats an earlier one
    with pytest.raises(SourceError) as err:
        parse(source)
    assert str(err.value) == message


@pytest.mark.parametrize("source, message", [
    ("type T = !{a: end!, a: end!, b: }", "1:33: expected a type, found '}'"),
    ("Main() = x?{a: done, a: done, b done}", "1:33: expected ':', found 'done'"),
])
def test_a_later_syntax_error_in_the_list_comes_first(source, message):
    with pytest.raises(SourceError) as err:
        parse(source)
    assert str(err.value) == message


# One input per place where the parser wants a given punctuation token
# next, each with the message and position it reports.
@pytest.mark.parametrize("source, message", [
    ("type T = !(end!. end!", "1:16: expected ')', found '.'"),
    ("Main() = done +[1 done", "1:19: expected ']', found 'done'"),
    ("Main(x: end!) = [x: end! x] close x", "1:26: expected ']', found 'x'"),
    ("Main(x: end?) = wait x done", "1:24: expected '.', found 'done'"),
    ("Main() = new x end! / end? in (close x | wait x. done)",
     "1:16: expected ':', found 'end'"),
    ("Main(x: !(end!).end!, y: end!) = x!(y. close x", "1:38: expected ')', found '.'"),
    ("Main(x: !(end!).end!, y: end!) = x!(y) close x", "1:40: expected '.', found 'close'"),
    ("Main(x: ?(end!).end?) = x?(y). wait x. close y", "1:29: expected ':', found ')'"),
    ("Main(x: ?(end!).end?) = x?(y: end!. wait x. close y",
     "1:35: expected ')', found '.'"),
    ("Main(x: ?(end!).end?) = x?(y: end!) wait x. close y",
     "1:37: expected '.', found 'wait'"),
    ("Main(x: end! = close x", "1:14: expected ')', found '='"),
])
def test_expected_punctuation_errors(source, message):
    with pytest.raises(SourceError) as err:
        parse(source)
    assert str(err.value) == message


# A type's branch list and a typedef's header are read by `parse_type` and
# `parse_program` themselves, not through `_branches` and `name`.
@pytest.mark.parametrize("source, message", [
    ("type T = !{a: done}", "1:15: keyword 'done' is not a type"),
    ("type T = !{a end!}", "1:14: expected ':', found 'end'"),
    ("type T = !{done: end!}", "1:12: keyword 'done' cannot be used as a name"),
    ("type T = !{a: X b: end!}", "1:17: expected '}', found 'b'"),
    ("type T = !{}", "1:12: expected 'ident', found '}'"),
    ("type T = ?{a: X,}", "1:17: expected 'ident', found '}'"),
    ("type T end!", "1:8: expected '=', found 'end'"),
    ("type in = end!", "1:6: keyword 'in' cannot be used as a name"),
])
def test_type_list_and_typedef_header_errors(source, message):
    with pytest.raises(SourceError) as err:
        parse(source)
    assert str(err.value) == message


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff11"])
def test_numbers_are_ascii_digits_only(digit):
    # str.isdigit() holds for each, but the grammar's NAT is ASCII
    with pytest.raises(SourceError, match=f"unexpected character {digit!r}"):
        parse(f"P(x: T) = close x +[{digit}] close x")


@pytest.mark.parametrize("source", [
    "P() @ {} = done",
    "P(x: end!) = [x: end! @ {}] close x",
    "P(x: end!) = close x +[{}] close x",
])
def test_overlong_number_is_a_parse_error(source):
    # more digits than int() converts from a string
    with pytest.raises(SourceError, match="number too long"):
        parse(source.format("1" * 5000))


def test_nesting_counts_open_constructs_only():
    # siblings do not add up: only constructs still open count as levels
    n = 2 * MAX_NESTING
    defs = "".join(f"P{i}() = done + done +[2] (done + done)\n" for i in range(n))
    labels = ", ".join(f"a{i}: x!a. done + close x" for i in range(n))
    assert len(parse(defs + f"Q(x: end!) = x?{{{labels}}}\n").procdefs) == n + 1
    deep = "Main() = " + "wait x. " * (MAX_NESTING - 1) + "done"
    assert parse(deep).procdefs
    # one level too deep: a prefix chain; a choice chain, which fails at its
    # last atom, never at a `+`; and a chain of channel types, which fails
    # at its innermost payload
    for deeper, col in ((deep.replace("done", "wait x. done"), 10 + 8 * MAX_NESTING),
                        ("Main() = " + " + ".join(["done"] * (MAX_NESTING + 1)), 1760),
                        ("type T = " + "!(end!)." * MAX_NESTING + "end!", 2004)):
        with pytest.raises(SourceError) as err:
            parse(deeper)
        assert err.value.msg == f"nesting deeper than {MAX_NESTING} levels"
        assert (err.value.line, err.value.col) == (1, col)


@pytest.mark.parametrize("leaf", ["X", "end!", "done"])
def test_nesting_bound_holds_at_a_branch_leaf(leaf):
    # a bare name in a branch list skips the call one level down, but not
    # at the bound: there the leaf is one level too deep, whatever it is
    def nested(n: int, leaf: str) -> str:
        return "type T = " + "!{a: " * n + leaf + "}" * n + "\ntype X = end!\n"

    with pytest.raises(SourceError) as err:
        parse(nested(MAX_NESTING, leaf))
    assert str(err.value) == f"1:1260: nesting deeper than {MAX_NESTING} levels"
    assert len(parse(nested(MAX_NESTING - 1, "X")).typedefs) == 2


@pytest.mark.parametrize("bad", RESOLVE_ERRORS)
def test_resolve_errors(bad):
    with pytest.raises(SourceError):
        load(bad)


def test_alias_resolves_to_same_id():
    program = load("type A = !{a: end!}\ntype B = A\nMain() = done")
    assert program.typedefs["A"] == program.typedefs["B"]


def _alias_chain(n: int, last: str) -> str:
    """type A0 = A1, ..., type A{n-1} = A{n}, type A{n} = last."""
    lines = [f"type A{i} = A{i + 1}" for i in range(n)]
    return "\n".join(lines + [f"type A{n} = {last}", "Main(x: A0) = close x"])


def test_long_alias_chain_resolves_to_same_id():
    # chains are followed by a loop, so their length costs no stack
    program = load(_alias_chain(1500, "end!"))
    assert {program.typedefs[f"A{i}"] for i in range(1501)} == {program.typedefs["A1500"]}
    assert program.table.node(program.param_tids["Main"][0]) == ("end", "!")


def test_long_alias_cycle_is_rejected():
    with pytest.raises(SourceError) as err:
        load(_alias_chain(1500, "A0"))
    assert err.value.msg == "non-contractive type definition 'A1500'"
    assert (err.value.line, err.value.col) == (1501, 14)


def test_preorder_and_resolution_follow_source_order():
    body = parse("Main() = new x: end! / end? in (close x | x?{a: wait x. done, "
                 "b: Q(x) +[2] [x: end?] R(x)})").procdefs[0].body
    assert [type(n).__name__ for n in preorder(body)] == [
        "NewSession", "Close", "TagComm", "Wait", "Done", "Choice", "Call",
        "Cast", "Call"]
    # the first undefined name in source order is the one reported
    with pytest.raises(SourceError) as err:
        load("Main() = new x: end! / end? in (Q(x) | wait x. R(x))")
    assert err.value.msg == "undefined process name 'Q'"


@pytest.mark.parametrize("text, msg, where", [
    ("P(x: end!, x: end!) = Q(x)", "duplicate parameter 'x' in P", (1, 1)),
    ("P(x: U) = Q(x)", "undefined type name 'U'", (1, 6)),
    ("P() = Q()\nR(x: end!, x: end!) = done", "undefined process name 'Q'", (1, 7)),
    ("P() = [x: U] Q()\nR(x: V) = done", "undefined type name 'U'", (1, 11)),
])
def test_resolution_reports_parameters_before_the_body(text, msg, where):
    # definition by definition, and in each the parameters first
    with pytest.raises(SourceError) as err:
        load(text)
    assert (err.value.msg, (err.value.line, err.value.col)) == (msg, where)


def _check_numbering(program):
    """Each body's occurrences are numbered in preorder, the definitions in
    order, and every child table and owner agrees with those numbers."""
    nodes, kids, start, owner = program.nodes, program.kids, program.start, program.owner
    first = 0
    for name, d in program.procs.items():
        order = preorder(d.body)
        mine = nodes[first:first + len(order)]
        assert start[name] == first
        assert len(mine) == len(order) and all(a is b for a, b in zip(mine, order))
        assert owner[first:first + len(order)] == [name] * len(order)
        first += len(order)
    assert len(nodes) == len(kids) == len(owner) == first
    for v, n in enumerate(nodes):
        assert [id(nodes[w]) for w in kids[v]] == [id(c) for c in children(n)]


def test_occurrence_numbers_follow_preorder():
    for name in sorted(CORPUS_RANKS):
        _check_numbering(load(corpus_text(name)))
    for source in gen.NESTED_SOURCES.values():
        _check_numbering(load(source(gen.deepest_admitted(source))))
    # a program built by hand is numbered by the same constructor
    rnd = random.Random(71)
    for _ in range(2000):
        sp = random_source_program(rnd)
        _check_numbering(Program(TypeTable(), {}, {d.name: d for d in sp.procdefs}))


def test_recursive_typedef_is_cyclic():
    program = load("type R = !{a: R, b: end!}\nMain() = done")
    r = program.typedefs["R"]
    assert dict(program.table.node(r)[2])["a"] == r


def test_resolution_interns_annotations():
    program = load("Main() = new x: !{a: end!} / ?{a: end?} in (x!a. close x | x?a. wait x. done)")
    lt, rt = program.tids[program.start["Main"]]
    want = program.table.add(("tags", "!", (("a", program.table.add(("end", "!"))),)))
    assert equiv(program.table, lt, want)
    want = program.table.add(("tags", "?", (("a", program.table.add(("end", "?"))),)))
    assert equiv(program.table, rt, want)


def _fields(obj):
    """Every field of every record under obj, each record with its identity:
    the slots of its class and its bases (`at` too, which equality leaves
    out) and, for a record kept without slots, its `vars()`."""
    if isinstance(obj, Record):
        names = [f for c in type(obj).__mro__ for f in getattr(c, "__slots__", ())]
        names += getattr(obj, "__dict__", ())
        return (type(obj), id(obj), tuple((f, _fields(getattr(obj, f))) for f in names))
    if isinstance(obj, (list, tuple)):
        return (type(obj), tuple(map(_fields, obj)))
    return obj


def test_resolve_leaves_its_input_as_parsed():
    # every syntax node, ProcDef and the SourceProgram keep every field,
    # whether resolution succeeds or fails part way
    rnd = random.Random(25)
    draws = [random_source_program(rnd) for _ in range(500)]
    inputs = [parse(corpus_text(name)) for name in sorted(CORPUS_RANKS)]
    inputs += draws + [parse(render_program(sp)) for sp in draws]
    resolved = 0
    for sp in inputs:
        before = _fields(sp)
        try:
            resolve(sp)
            resolved += 1
        except SourceError:
            pass
        assert _fields(sp) == before, render_program(sp)
    assert resolved > len(inputs) // 2


# name resolution against the recursive oracle, and the acyclic load

# every gen family at a small and a large size
FAMILY_SIZES = [
    (gen.call_dag_source, 3, 400), (gen.session_chain_source, 3, 60),
    (gen.swarm_source, 1, 7), (gen.cascade_source, 3, 400),
    (gen.diverging_source, 3, 400), (gen.holding_source, 3, 200),
    (gen.holding_loop_source, 3, 200), (gen.shared_ladder_source, 3, 200),
]


def _load_inputs(draws):
    """The corpus, the gen families, nested shapes at the bound, random draws."""
    yield from (corpus_text(name) for name in sorted(CORPUS_RANKS))
    for family, small, large in FAMILY_SIZES:
        yield family(small)
        yield family(large)
    for source in gen.NESTED_SOURCES.values():
        yield source(gen.deepest_admitted(source))
    rnd = random.Random(9)
    for _ in range(draws):
        yield render_program(random_source_program(rnd))


def _resolution(resolver, text):
    """Everything resolution computes from text, or its error."""
    try:
        program = resolver(parse(text))
    except SourceError as err:
        return str(err)
    table = program.table
    return (table.nodes, list(table.name_hint.items()), list(table.type_names.items()),
            list(program.typedefs.items()), list(program.param_tids.items()), program.tids)


def test_resolve_matches_recursive_oracle():
    rnd = random.Random(10)
    naming = [render_program(gen.random_naming_program(rnd)) for _ in range(2000)]
    outcomes = set()
    for text in [*_load_inputs(2000), *naming]:
        got = _resolution(resolve, text)
        assert got == _resolution(resolve_recursive, text), text
        outcomes.add(got.split(": ")[1].split(" '")[0] if isinstance(got, str) else "ok")
    # the inputs resolve, and fail on undefined and on cyclic names
    assert outcomes == {"ok", "undefined type name", "non-contractive type definition",
                        "undefined process name"}


# type definitions that nest, at the nesting bound: a leaf, a nested list
# with a repeated label, a nested channel type and an undefined name inside
NESTED_TYPEDEFS = [
    "type T = " + "!{a: " * (MAX_NESTING - 1) + "end?" + "}" * (MAX_NESTING - 1),
    "type T = " + "?{a: end?, b: " * (MAX_NESTING - 1) + "T" + "}" * (MAX_NESTING - 1),
    "type T = " + "!{a: T, b: " * (MAX_NESTING - 2) + "?{c: end!, c: T}" + "}" * (MAX_NESTING - 2),
    "type T = " + "!(end!).?{a: " * (MAX_NESTING // 2 - 1) + "end!" + "}" * (MAX_NESTING // 2 - 1),
    "type T = " + "?{a: !{b: end!, c: " * (MAX_NESTING // 2 - 1) + "U" + "}}" * (MAX_NESTING // 2 - 1),
]


def test_resolve_matches_the_frame_walk():
    # one walk over every body, with the slots allocated at once, builds the
    # table of a frame per constructor, or fails with its first error
    rnd = random.Random(34)
    draws = [render_program(draw(rnd)) for draw in (gen.random_naming_program,
                                                     gen.random_source_program)
             for _ in range(2000)]
    inputs = [corpus_text(name) for name in sorted(CORPUS_RANKS)]
    inputs += [gen.cascade_source(800), gen.diverging_source(800), gen.holding_source(400),
               gen.holding_loop_source(400), gen.dual_chain_source(800),
               gen.shared_ladder_source(16), *NESTED_TYPEDEFS]
    inputs += draws + [m for text in draws for m in _mutants(text, rnd, 2)]
    errors = 0
    for text in inputs:
        got = _resolution(resolve, text)
        assert got == _resolution(resolve_frames, text), text
        errors += isinstance(got, str)
    assert errors >= len(inputs) // 2, (errors, len(inputs))


@pytest.mark.parametrize("text, error", [
    # a repeated label is reported once its list has parsed: inside a
    # nested list, before a missing "}" and after a later syntax error
    ("type A = !{a: ?{b: end?, c: end!, b: A}, d: end!}", "1:35: duplicate label 'b'"),
    ("type A = !{a: end!, a: end?", "1:21: duplicate label 'a'"),
    ("type A = !{a: B, a: end!, b: A, b: B}\ntype B = end?", "1:18: duplicate label 'a'"),
    ("type A = !{a: end!, a: end?, b: done}", "1:33: keyword 'done' is not a type"),
    # an `end` leaf needs its polarity
    ("type A = !{a: end!, b: end@}", "1:27: expected '!' or '?' after 'end'"),
    ("type A = !{a: end, b: end!}", "1:18: expected '!' or '?' after 'end'"),
    ("type A = ?{a: end", "1:18: expected '!' or '?' after 'end'"),
    ("type A = !{a: B, b: end }", "1:25: expected '!' or '?' after 'end'"),
    # the nesting bound holds at an `end` leaf (one level up, in
    # NESTED_TYPEDEFS[0], it resolves) and at the bodies nested to it
    ("type T = " + "!{a: " * MAX_NESTING + "end!" + "}" * MAX_NESTING,
     f"1:1260: nesting deeper than {MAX_NESTING} levels"),
    (NESTED_TYPEDEFS[2], "1:2749: duplicate label 'c'"),
    (NESTED_TYPEDEFS[4], "1:2366: undefined type name 'U'"),
], ids=["nested-repeat", "repeat-then-no-brace", "first-repeat", "syntax-after-repeat",
        "end-at", "end-comma", "end-eof", "end-brace", "end-past-bound",
        "repeat-at-bound", "undefined-at-bound"])
def test_type_definition_errors(text, error):
    assert _resolution(resolve, text) == error


def test_load_leaves_no_cyclic_garbage():
    # the premise of the collector's pause in cli._load_program
    inputs = list(_load_inputs(1000))
    loaded = 0
    collecting = gc.isenabled()
    gc.disable()
    gc.freeze()  # a full collection then scans only what the loop allocates
    try:
        for text in inputs:
            gc.collect()
            try:
                load(text)
            except SourceError:
                continue
            assert gc.collect() == 0, text
            loaded += 1
    finally:
        gc.unfreeze()
        if collecting:
            gc.enable()
    assert loaded > len(inputs) // 2


# hypothesis: the parser is total (SourceError or an AST, nothing else)

@given(st.text(max_size=120))
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes(text):
    try:
        parse(text)
    except SourceError:
        pass


_type_exprs = st.recursive(
    st.sampled_from(["!", "?"]).map(TEnd),
    lambda sub: st.one_of(
        st.builds(TTags, st.sampled_from(["!", "?"]),
                  st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), sub),
                           min_size=1, max_size=3, unique_by=lambda b: b[0])),
        st.builds(TChan, st.sampled_from(["!", "?"]), sub, sub)),
    max_leaves=10)


@given(_type_exprs)
@settings(max_examples=200, deadline=None)
def test_type_round_trip(t):
    assert parse(f"type T = {render(t)}").typedefs[0][1] == t

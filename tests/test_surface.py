"""Lexing, parsing, rendering, and name resolution."""

import gc
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchk.surface import (MAX_NESTING, Cast, ChanIn, ChanOut, Choice, Close,
                             Done, NewSession, SourceError, TagComm, TChan, TEnd,
                             TName, TTags, Wait, lex, load, parse, preorder,
                             render_program, render_type, resolve)
from fairchk.types import equiv

import gen
from conftest import CORPUS_RANKS, corpus_text
from gen import random_source_program
from oracles import lex_charwise, resolve_recursive


def _same_source(a, b):
    assert [(n, body) for n, body, _ in a.typedefs] == \
           [(n, body) for n, body, _ in b.typedefs]
    assert a.procdefs == b.procdefs


def test_minimal_program():
    sp = parse("type E = end!  Main() = done")
    assert len(sp.typedefs) == 1 and len(sp.procdefs) == 1
    assert sp.typedefs[0][0] == "E" and sp.typedefs[0][1] == TEnd("!")
    assert sp.procdefs[0].name == "Main" and sp.procdefs[0].body == Done()


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
    assert render_type(TEnd("!")) == "end!"
    t = TTags("!", [("add", TName("SB")), ("pay", TEnd("!"))])
    assert render_type(t) == "!{add: SB, pay: end!}"


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
    sp = parse("type E = end!\nMain() = done")
    assert sp.procdefs[0].span.line == 2
    assert sp.procdefs[0].body.span == type(sp.procdefs[0].body.span)(2, 10)


def _tokens_or_error(lexer, text):
    try:
        return lexer(text)
    except SourceError as err:
        return str(err)


def _lexer_inputs():
    """The corpus, every generated family, and seeded random programs."""
    yield from (corpus_text(name) for name in sorted(CORPUS_RANKS))
    for n in (1, 5, 17):
        yield gen.call_dag_source(n)
        yield gen.session_chain_source(n)
        yield gen.cascade_source(n)
        yield gen.diverging_source(n)
        yield gen.holding_source(n)
        yield gen.holding_loop_source(n)
        yield gen.shared_ladder_source(n)
    yield from (gen.swarm_source(d) for d in (1, 4))
    for source in gen.NESTED_SOURCES.values():
        yield source(gen.deepest_admitted(source))
        yield source(gen.deepest_admitted(source) + 1)
    rnd = random.Random(8)
    for _ in range(200):
        yield render_program(random_source_program(rnd))
        yield gen.random_runnable_source(rnd)


def test_lexer_matches_charwise_oracle_on_programs():
    for text in _lexer_inputs():
        assert _tokens_or_error(lex, text) == _tokens_or_error(lex_charwise, text)


def test_lexer_matches_charwise_oracle_on_corpus_prefixes():
    for name in sorted(CORPUS_RANKS):
        text = corpus_text(name)
        for i in range(len(text) + 1):
            assert _tokens_or_error(lex, text[:i]) == _tokens_or_error(lex_charwise, text[:i])


# Every kind of token and blank, a lone dash and a leading apostrophe, and
# then, one third as often, characters the lexer must refuse: form feed, a
# non-ASCII letter, digits of other scripts and NUL.
_LEXER_ALPHABET = "aZ_q09(){}[]:,./=!?+|@--''\t\r \n\n" * 3 + "\x0c\u00e9\u00b2\u0663\x00"


def test_lexer_matches_charwise_oracle_on_random_text():
    rnd = random.Random(88)
    for _ in range(20_000):
        text = "".join(rnd.choices(_LEXER_ALPHABET, k=rnd.randrange(40)))
        assert _tokens_or_error(lex, text) == _tokens_or_error(lex_charwise, text)


@pytest.mark.parametrize("end, where", [("", "1:20"), ("\n", "2:1")])
def test_eof_after_a_comment(end, where):
    # a comment takes no columns: eof sits where it starts, or on the next line
    text = "P(x: end!) = close -- bye" + end
    assert lex(text) == lex_charwise(text)
    with pytest.raises(SourceError) as err:
        parse(text)
    assert str(err.value) == f"{where}: expected 'ident', found 'eof'"


@pytest.mark.parametrize("text, lexer, where, msg", [
    ("a" * 10**6 + "-", lex, "1:1000001", "unexpected character '-'"),
    ("a b " * 250_000 + "'", lex, "1:1000001", 'unexpected character "\'"'),
    ("P() = -- " + "a" * 10**6, parse, "1:7", "expected 'ident', found 'eof'"),
], ids=["dash-after-long-name", "apostrophe-after-many-blanks", "long-comment"])
def test_long_lines_lex_in_linear_time(text, lexer, where, msg):
    # a pattern that backtracks over these lines would take ages, not milliseconds
    started = time.perf_counter()
    with pytest.raises(SourceError) as err:
        lexer(text)
    assert time.perf_counter() - started < 2.0
    assert str(err.value) == f"{where}: {msg}"


@pytest.mark.parametrize("bad", [
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
])
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
    with pytest.raises(SourceError) as err:
        parse(deep.replace("done", "wait x. done"))
    assert err.value.msg == f"nesting deeper than {MAX_NESTING} levels"
    assert (err.value.line, err.value.col) == (1, 10 + 8 * MAX_NESTING)


@pytest.mark.parametrize("bad", [
    "type X = X  Main() = done",                    # direct self alias
    "type A = B\ntype B = A\nMain() = done",        # alias cycle
    "type A = end!\ntype A = end?\nMain() = done",  # duplicate typedef
    "Main() = done\nMain() = done",                 # duplicate procdef
    "Main(x: end!, x: end?) = close x",             # duplicate parameter
    "Main(x: T) = close x",                         # undefined type
    "Main() = Other()",                             # undefined process
])
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
    assert program.table.node(program.procs["Main"].param_tids[0]) == ("end", "!")


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


def test_recursive_typedef_is_cyclic():
    program = load("type R = !{a: R, b: end!}\nMain() = done")
    r = program.typedefs["R"]
    assert dict(program.table.node(r)[2])["a"] == r


def test_resolution_interns_annotations():
    program = load("Main() = new x: !{a: end!} / ?{a: end?} in (x!a. close x | x?a. wait x. done)")
    body = program.procs["Main"].body
    assert body.ltid is not None and body.rtid is not None
    want = program.table.add(("tags", "!", (("a", program.table.add(("end", "!"))),)))
    assert equiv(program.table, body.ltid, want)


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
    annotations = [(d.name, d.param_tids,
                    [(p.tid,) if isinstance(p, (ChanIn, Cast)) else (p.ltid, p.rtid)
                     for p in preorder(d.body) if isinstance(p, (ChanIn, Cast, NewSession))])
                   for d in program.procs.values()]
    return (table.nodes, list(table.name_hint.items()), list(table.type_names.items()),
            list(program.typedefs.items()), annotations)


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
    assert parse(f"type T = {render_type(t)}").typedefs[0][1] == t

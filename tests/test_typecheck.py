"""The checking pipeline: typing, loop safety, ranks, action bounds."""

import json
import random
from collections import Counter
from functools import cached_property

import pytest

from fairchk import graph, surface, typecheck
from fairchk.cli import main
from fairchk.surface import Cast, Choice, SourceError, children, load, resolve
from fairchk.typecheck import Checker, check_program, free_channels
from fairchk.types import INF

from conftest import ACCEPTED, CORPUS_RANKS, REJECTED, corpus_text, load_corpus
from gen import (NESTED_SOURCES, RANK_DEFS, call_dag_source, deepest_admitted,
                 random_rank_program, random_runnable_source, random_source_program,
                 rank_cycle_source, session_chain_source)
from json_schema import CHECK, validate
from oracles import (RecursiveTyping, action_bounded, cutoff_rank, free_channels_per_occurrence,
                     free_channels_recursive, infer_branches_by_cutoff, infer_branches_rebuild,
                     min_rank, preorder, typing_unfold_ok, unsafe_by_reachability)


def _report(name):
    return check_program(load_corpus(name))


def _codes(report, defname):
    for d in report["definitions"]:
        if d["name"] == defname:
            return [diag["code"] for diag in d["diagnostics"]]
    raise AssertionError(f"no definition {defname}")


@pytest.mark.parametrize("name", ACCEPTED)
def test_accepted_corpus_ranks(name):
    report = _report(name)
    assert report["verdict"] == "accepted"
    got = {d["name"]: d["rank"] for d in report["definitions"]}
    assert got == CORPUS_RANKS[name]
    assert all(d["status"] == "accepted" and d["diagnostics"] == []
               for d in report["definitions"])


@pytest.mark.parametrize("name", REJECTED)
def test_rejected_corpus_verdicts(name):
    report = _report(name)
    assert report["verdict"] == "rejected"
    assert any(d["diagnostics"] for d in report["definitions"])


def test_action_unbounded_codes():
    report = _report("action_unbounded.ft")
    assert "E-UNBOUNDED-ACTION" in _codes(report, "A")
    assert "E-UNBOUNDED-ACTION" in _codes(report, "B")


def test_session_unbounded_codes():
    report = _report("session_unbounded.ft")
    assert "E-UNSAFE-LOOP" in _codes(report, "B1")
    assert "E-UNSAFE-LOOP" in _codes(report, "B2")


def test_cast_unbounded_codes():
    report = _report("cast_unbounded.ft")
    for defname in ("A", "B"):
        codes = _codes(report, defname)
        assert "E-UNSAFE-LOOP" in codes
        assert "E-INFINITE-RANK" in codes
    got = {d["name"]: d["rank"] for d in _report("cast_unbounded.ft")["definitions"]}
    assert got["A"] == "inf" and got["B"] == "inf"


def test_forwarder_codes():
    report = _report("fwd.ft")
    codes = _codes(report, "Fwd")
    assert "E-UNSAFE-LOOP" in codes
    assert "E-INFINITE-RANK" in codes


def test_finite_unfair_casts_flagged():
    report = _report("finite_unfair.ft")
    assert _codes(report, "A") == [] and _codes(report, "B") == []
    main_codes = _codes(report, "Main")
    assert main_codes == ["E-SUBTYPE", "E-SUBTYPE"]
    main = next(d for d in report["definitions"] if d["name"] == "Main")
    for diag in main["diagnostics"]:
        assert diag["details"]["kind"] == "diverges"
    # failed casts carry weight zero, so the rank stays finite
    assert main["rank"] == 1


def test_rank_pragma_accepts_true_bound():
    text = corpus_text("bsc.ft").replace("Main() =", "Main() @ 3 =")
    report = check_program(load(text))
    assert report["verdict"] == "accepted"


def test_rank_pragma_rejects_tight_bound():
    text = corpus_text("bsc.ft").replace("Main() =", "Main() @ 2 =")
    report = check_program(load(text))
    assert "E-RANK-EXCEEDED" in _codes(report, "Main")


def test_cast_weight_annotation():
    ok = corpus_text("bsc.ft").replace("[x: SB']", "[x: SB' @1]")
    assert check_program(load(ok))["verdict"] == "accepted"
    tight = corpus_text("bsc.ft").replace("[x: SB']", "[x: SB' @0]")
    report = check_program(load(tight))
    assert "E-WEIGHT-EXCEEDED" in _codes(report, "Main")


def test_typing_unit_errors():
    cases = [
        ("Main() = close x", "E-UNBOUND-NAME"),
        ("Main() = new x: end! / end? in (close x | done)", "E-CONTEXT-LEAK"),
        ("Main() = new x: end! / end? in (wait x. done | close x)",
         "E-TYPE-MISMATCH"),
        ("Main() = new x: end! / end! in (close x | close x)", "E-INCOMPATIBLE"),
        ("T(x: end!) = close x\n"
         "Main() = new x: end? / end! in (T(x) | wait x. done)", "E-TYPE-MISMATCH"),
        ("T(x: end!, y: end!) = new z: end! / end? in (close z | wait z. T(x, x))\n"
         "Main() = done", "E-CONTEXT-LEAK"),
    ]
    for text, code in cases:
        report = check_program(load(text))
        assert report["verdict"] == "rejected", text
        codes = [c for d in report["definitions"] for c in
                 [diag["code"] for diag in d["diagnostics"]]]
        assert code in codes, (text, codes)


@pytest.mark.parametrize("text, code, col, message", [
    ("Main(x: !(end!).end!) = x!(x). close x",
     "E-TYPE-MISMATCH", 25, "x cannot carry itself"),
    ("Main(x: !(end!).end!, y: end?) = x!(y). close x",
     "E-TYPE-MISMATCH", 34, "payload y has type end?, carrier expects end!"),
    ("Main(x: ?(end!).end?, y: end!) = x?(y: end!). wait x. close y",
     "E-CONTEXT-LEAK", 34, "'y' rebinds a live channel"),
    ("Main(x: ?(end!).end?) = x?(y: end?). wait x. close y",
     "E-TYPE-MISMATCH", 25, "annotation end? differs from payload type end!"),
    ("Main(x: end?) = P(x)\nP(x: end!) = close x",
     "E-TYPE-MISMATCH", 17, "argument x has type end?, P expects end!"),
])
def test_delegation_typing_errors(text, code, col, message):
    # sending a channel over itself, a payload of the wrong type, receiving
    # into a name that is still live, an input annotation that is not the
    # payload type, and an argument that is not the parameter's type
    report = check_program(load(text))
    assert report["verdict"] == "rejected"
    assert report["definitions"][0]["diagnostics"] == [
        {"code": code, "span": {"line": 1, "col": col}, "message": message, "details": {}}]


def test_both_sides_using_a_channel_leaks():
    text = ("T(y: end?) = new x: end! / end? in (wait y. close x | wait y. wait x. done)\n"
            "Main() = done")
    report = check_program(load(text))
    codes = [diag["code"] for d in report["definitions"] for diag in d["diagnostics"]]
    assert "E-CONTEXT-LEAK" in codes


def test_call_arity_mismatch():
    text = "T(x: end!) = close x\nMain() = new x: end! / end? in (T() | wait x. done)"
    report = check_program(load(text))
    codes = [diag["code"] for d in report["definitions"] for diag in d["diagnostics"]]
    assert "E-TYPE-MISMATCH" in codes


def test_min_rank_base_cases():
    program = load("Main() = done")
    ck = Checker(program)
    assert min_rank(ck, program.procs["Main"].body, frozenset()) == 0


def test_min_rank_choice_follows_marker():
    program = load("Main() = done +[2] new x: end! / end? in (close x | wait x. done)")
    ck = Checker(program)
    body = program.procs["Main"].body
    assert min_rank(ck, body, frozenset()) == 1
    ck.marker[0] = 1
    assert min_rank(ck, body, frozenset()) == 0


def test_min_rank_antitone_in_assumptions():
    rnd = random.Random(51)
    for _ in range(200):
        program = random_rank_program(rnd)
        ck = Checker(program)
        for v, n in enumerate(ck.nodes):
            if isinstance(n, Cast):
                ck.cast_weight[v] = rnd.randint(0, 2)
        small = frozenset(rnd.sample(RANK_DEFS, rnd.randint(0, 2)))
        big = small | frozenset(rnd.sample(RANK_DEFS, rnd.randint(0, 2)))
        for name in RANK_DEFS:
            body = program.procs[name].body
            assert min_rank(ck, body, big, memo={}) <= min_rank(ck, body, small, memo={})


def _weighted_rank_program(rnd):
    """A random rank program whose casts weigh 0 to 2, and its checker."""
    ck = Checker(random_rank_program(rnd))
    for v, n in enumerate(ck.nodes):
        if isinstance(n, Cast):
            ck.cast_weight[v] = rnd.randint(0, 2)
    return ck


def test_term_graph_matches_cutoff_oracles():
    rnd = random.Random(61)
    seen = {"inf": 0, "weighted": 0, "unbounded": 0}
    for _ in range(2000):
        ck = _weighted_rank_program(rnd)
        ck.check_safe()
        # the graph answers by occurrence number, the oracles by node id
        unsafe = {id(ck.nodes[v]) for v in ck.graph.unsafe}
        assert unsafe == unsafe_by_reachability(ck)
        ck.compute_ranks()
        for name in RANK_DEFS:
            assert ck.ranks[name] == cutoff_rank(ck, name, unsafe), name
        bounded = ck.graph.bounded
        for v, n in enumerate(ck.nodes):
            assert bounded[v] == action_bounded(ck, n, frozenset())
        seen["inf"] += INF in ck.ranks.values()
        seen["weighted"] += any(w > 0 for w in ck.cast_weight.values()) and \
            any(0 < r < INF for r in ck.ranks.values())
        seen["unbounded"] += not all(bounded)
    assert all(seen.values()), seen


def _markers(ck):
    return list(ck.marker.values())


def test_infer_branches_matches_cutoff_oracle():
    rnd = random.Random(62)
    flipped = 0
    for _ in range(500):
        seed = rnd.randrange(2 ** 32)
        ck, oracle, rebuilt, written = (_weighted_rank_program(random.Random(seed))
                                        for _ in range(4))
        ck.infer_branches()
        infer_branches_by_cutoff(oracle)
        infer_branches_rebuild(rebuilt)
        assert _markers(ck) == _markers(oracle) == _markers(rebuilt)
        flipped += _markers(ck) != _markers(written)
    assert flipped > 0


def test_check_program_runs_on_rank_programs():
    # every draw runs the whole pipeline, and the markers it infers are
    # those of the rebuild oracle on the same draw after its typing walk
    flipped = 0
    for seed in range(1000):
        ck, written = (Checker(random_rank_program(random.Random(seed)), infer_branch=True)
                       for _ in range(2))
        ck.run()
        rebuilt = Checker(random_rank_program(random.Random(seed)))
        rebuilt.check_types()
        infer_branches_rebuild(rebuilt)
        assert _markers(ck) == _markers(rebuilt), seed
        flipped += _markers(ck) != _markers(written)
    assert flipped > 0


# C0 .. C12, each with one choice: as written, every marker is kept; with
# the operands swapped, every marker flips, away from a loop at C12
INFER_CHAINS = {
    "kept": "".join(f"C{i}(x: end!) = close x +[2] C{i + 1}(x)\n" for i in range(12))
            + "C12(x: end!) = close x +[1] close x\n",
    "flipped": "".join(f"C{i}(x: end!) = C{i + 1}(x) +[1] close x\n" for i in range(12))
               + "C12(x: end!) = C12(x) +[1] close x\n",
}


@pytest.mark.parametrize("chain", sorted(INFER_CHAINS))
def test_infer_branch_builds_one_graph_per_choice(chain, monkeypatch, capsys, tmp_path):
    # the written markers score on the current graph, so each choice
    # builds only the graph with its marker flipped, and the loop-safety
    # pass reads the graph that inference ends with
    path = tmp_path / "chain.ft"
    path.write_text(INFER_CHAINS[chain], encoding="utf-8")
    builds = Counter()
    inside = []

    class CountedGraph(typecheck.TermGraph):
        def __init__(self, checker):
            builds[bool(inside)] += 1
            super().__init__(checker)

    infer = Checker.infer_branches

    def counted_infer(self):
        inside.append(True)
        try:
            infer(self)
        finally:
            inside.pop()

    monkeypatch.setattr(typecheck, "TermGraph", CountedGraph)
    monkeypatch.setattr(Checker, "infer_branches", counted_infer)
    program = load(INFER_CHAINS[chain])
    written = [n.k for d in program.procs.values() for n in preorder(d.body)
               if isinstance(n, Choice)]
    assert main(["check", "--infer-branch", "--json", str(path)]) == 0
    assert builds == {True: 1 + len(written)}
    report = json.loads(capsys.readouterr().out)
    assert {d["rank"] for d in report["definitions"]} == {0}
    builds.clear()
    assert main(["check", "--json", str(path)]) == (0 if chain == "kept" else 1)
    assert builds == {False: 1}
    capsys.readouterr()
    ck = Checker(program, infer_branch=True)
    ck.run()
    assert _markers(ck) == (written if chain == "kept" else [3 - k for k in written])


def test_infer_branch_solves_each_graph_once(monkeypatch):
    # every graph inference builds is solved once, for its ranks and its
    # bounds, and the rank and bound passes read the final graph's solution
    counts = Counter()
    graph = typecheck.TermGraph
    init = graph.__init__

    def counting_init(g, checker):
        counts["builds"] += 1
        init(g, checker)

    monkeypatch.setattr(graph, "__init__", counting_init)
    for name in ("ranks", "bounded"):
        attr = graph.__dict__[name]
        solve = getattr(attr, "func", attr)  # a property kept once read, or a method

        def counting(g, solve=solve, name=name):
            counts[name] += 1
            return solve(g)

        if hasattr(attr, "func"):
            counting = cached_property(counting)
            counting.__set_name__(graph, name)
        monkeypatch.setattr(graph, name, counting)
    for name in sorted(CORPUS_RANKS):
        check_program(load_corpus(name), infer_branch=True)
    assert counts["ranks"] == counts["bounded"] == counts["builds"], counts
    assert counts["builds"] > len(CORPUS_RANKS), counts  # some choice was scored


def test_free_channel_table_matches_recursive_oracle():
    # the sets the typing walk may read are exact: every body root and
    # every child of a node with several children, so both sides of every
    # session; an only child's entry is its parent's set, extended in place
    rnd = random.Random(63)
    bodies = [d.body for name in sorted(CORPUS_RANKS)
              for d in load_corpus(name).procs.values()]
    for _ in range(1000):
        bodies.extend(d.body for d in random_rank_program(rnd).procs.values())
        bodies.extend(d.body for d in random_source_program(rnd).procdefs)
    sizes, sides = set(), 0
    for body in bodies:
        order = preorder(body)
        number = {id(n): v for v, n in enumerate(order)}
        kids = [[number[id(c)] for c in children(n)] for n in order]
        table = free_channels(order, kids)
        each = free_channels_per_occurrence(order, kids)
        assert len(table) == len(order)
        exact = [0] + [c for ks in kids if len(ks) > 1 for c in ks]
        for v in exact:
            assert table[v] == each[v] == free_channels_recursive(order[v])
            sizes.add(len(table[v]))
        for v, ks in enumerate(kids):
            if len(ks) == 1:
                assert table[ks[0]] is table[v]
        sides += sum(2 for n in order if isinstance(n, surface.NewSession))
    assert sizes == {0, 1, 2, 3, 4}
    assert sides > 1000


def test_typing_walk_is_linear_in_session_nesting(monkeypatch):
    # loading numbers the occurrences, visiting each node once, and every
    # session reads its sides' free channels from one table built from
    # the numbers
    visits = 0
    real_children = surface.children

    def counting(p):
        nonlocal visits
        visits += 1
        return real_children(p)

    monkeypatch.setattr(surface, "children", counting)
    for n in (31, 62, 124):
        visits = 0
        program = load(NESTED_SOURCES["sessions"](n))
        ck = Checker(program)
        ck.check_types()
        assert not ck.diags["Main"]
        nodes = len(ck.nodes)
        assert nodes == 3 * n + 1
        assert visits == nodes
        sides = [c for v, ks in enumerate(ck.kids) if type(ck.nodes[v]) is surface.NewSession
                 for c in ks]
        assert len(sides) == 2 * n
        assert sum(len(ck.free[c]) for c in sides) == 2 * n


def _typing(checker):
    checker.check_types()
    return checker.diags, checker.cast_weight


# every prefix that changes the context, on both sides of a choice or in
# two branches: the second side must see the context the first one saw
SHARED_CONTEXTS = """
P1(x: ?(end!).end?) = x?(y: end!). wait x. close y +[1] x?(y: end!). wait x. close y
P2(x: !(end!).end!, z: end!) = x!(z). close x +[2] x!(z). close x
P3(x: end?, z: end!) = wait x. close z +[1] wait x. close z
P4(x: !{a: end!}) = x!a. close x +[1] x!a. close x
P5(x: !{a: end!, b: end!}) = [x: !{a: end!}] x!a. close x +[1] [x: !{a: end!}] x!a. close x
P6(x: ?{a: end?, b: end?}, z: end!) = x?{a: wait x. close z, b: wait x. close z}
"""


def test_typing_walk_matches_recursive_oracle():
    shared = load(SHARED_CONTEXTS)
    assert _typing(Checker(shared))[0] == {name: [] for name in shared.procs}
    programs = [shared] + [load_corpus(name) for name in sorted(CORPUS_RANKS)]
    programs += [load(source(deepest_admitted(source)))
                 for _, source in sorted(NESTED_SOURCES.items())]
    rnd = random.Random(66)
    for _ in range(2000):
        try:
            programs.append(resolve(random_source_program(rnd)))
        except SourceError:
            pass
    # bodies that are mostly well typed, so the walk goes deeper
    programs += [load(random_runnable_source(random.Random(i))) for i in range(300)]
    codes = Counter()
    for program in programs:
        got = _typing(Checker(program))
        assert got == _typing(RecursiveTyping(program))
        codes.update(d["code"] for ds in got[0].values() for d in ds)
        codes["clean"] += sum(not ds for ds in got[0].values())
    assert len(programs) > 1700 and codes["clean"] > 200, codes
    assert all(codes[c] > 10 for c in ("E-UNBOUND-NAME", "E-CONTEXT-LEAK", "E-TYPE-MISMATCH",
                                       "E-INCOMPATIBLE", "E-SUBTYPE")), codes


def test_typing_walk_enters_once_per_definition(monkeypatch):
    calls = Counter()
    walk = Checker._tc

    def counted(self, dn, body, ctx):
        calls[dn] += 1
        return walk(self, dn, body, ctx)

    monkeypatch.setattr(Checker, "_tc", counted)
    for name in sorted(CORPUS_RANKS):
        program = load_corpus(name)
        calls.clear()
        Checker(program).check_types()
        assert calls == dict.fromkeys(program.procs, 1), name


def test_call_dag_ranks_at_scale():
    report = check_program(load(call_dag_source(60)))
    assert report["verdict"] == "accepted"
    want = {f"F{i}": 0 for i in range(60)}
    want.update({"E": 0, "O": 0, "Main": 1})
    assert {d["name"]: d["rank"] for d in report["definitions"]} == want


def test_session_chain_ranks_at_scale():
    k = 200
    report = check_program(load(session_chain_source(k)))
    assert report["verdict"] == "accepted"
    want = {f"D{i}": 2 * (k - i) for i in range(k + 1)}
    want.update({"M": 0, "P": 0, "Main": 2 * k + 1})
    assert {d["name"]: d["rank"] for d in report["definitions"]} == want


def test_rank_cycles_take_one_pass(monkeypatch):
    # the level method settles one level per distinct value leaving a
    # cycle, n levels of n nodes on this chain; a rank solve never enters
    # it, so the chain is one pass
    entered = Counter()
    solving = []
    settle, solve = graph._settle_cycle, typecheck.least

    def counted_settle(*args):
        entered["ranks" if solving else "weights"] += 1
        settle(*args)

    def counted_solve(*args):
        solving.append(True)
        try:
            return solve(*args)
        finally:
            solving.pop()

    monkeypatch.setattr(graph, "_settle_cycle", counted_settle)
    monkeypatch.setattr(typecheck, "least", counted_solve)
    n = 2000
    report = check_program(load(rank_cycle_source(n)))
    assert report["verdict"] == "accepted"
    want = {f"C{i}": n - 1 for i in range(n)}
    want.update({f"D{i}": i for i in range(n)})
    assert {d["name"]: d["rank"] for d in report["definitions"]} == want
    for name in sorted(CORPUS_RANKS):
        check_program(load_corpus(name), infer_branch=True)
    rnd = random.Random(63)
    for _ in range(1000):
        ck = _weighted_rank_program(rnd)
        ck.infer_branches()
        ck.check_safe()
        ck.compute_ranks()
    # the casts' weight cycles through output pairs still enter it
    assert entered["ranks"] == 0 and entered["weights"] > 0, entered


def test_unfolding_invariance_on_accepted_corpus():
    for name in ACCEPTED:
        program = load_corpus(name)
        ck = Checker(program)
        ck.check_types()
        for defname, d in program.procs.items():
            direct = min_rank(ck, d.body, frozenset(), memo={})
            unfolded = min_rank(ck, d.body, frozenset({defname}), memo={})
            assert direct == unfolded, (name, defname)


def test_report_is_deterministic():
    for name in sorted(CORPUS_RANKS):
        text = corpus_text(name)
        a = json.dumps(check_program(load(text)), sort_keys=True)
        b = json.dumps(check_program(load(text)), sort_keys=True)
        assert a == b


def test_report_matches_schema():
    for name in sorted(CORPUS_RANKS):
        validate(_report(name), CHECK)


def test_bounded_unfolding_agrees_on_accepted_corpus():
    for name in ACCEPTED:
        program = load_corpus(name)
        depth = 2 * max(len(program.procs), 1)
        for defname in program.procs:
            assert typing_unfold_ok(program, defname, depth), (name, defname)


def test_bounded_unfolding_rejects_a_typing_error():
    program = load("Main() = new x: end! / end? in (close x | done)")
    assert not typing_unfold_ok(program, "Main", 4)


def test_infer_branch_repairs_a_flipped_marker():
    text = ("E(x: end!) = E(x) +[1] close x\n"
            "Main() = new x: end! / end? in (E(x) | wait x. done)")
    assert check_program(load(text))["verdict"] == "rejected"
    ck = Checker(load(text), infer_branch=True)
    assert ck.run()["verdict"] == "accepted"
    assert ck.marker == {ck.start["E"]: 2}


def test_infer_branch_leaves_the_program_as_loaded():
    # inference flips the checker's markers, not the program's: the
    # program keeps its written marker, and a later plain check of it
    # equals the check of a fresh load
    text = ("E(x: end!) = E(x) +[1] close x\n"
            "Main() = new x: end! / end? in (E(x) | wait x. done)")
    program = load(text)
    assert check_program(program, infer_branch=True)["verdict"] == "accepted"
    assert program.procs["E"].body.k == 1
    assert check_program(program) == check_program(load(text))
    assert check_program(program)["verdict"] == "rejected"


def test_infer_branch_keeps_good_markers():
    program = load_corpus("infinite_sessions.ft")
    report = check_program(program, infer_branch=True)
    assert report["verdict"] == "accepted"
    assert {d["name"]: d["rank"] for d in report["definitions"]} == \
        CORPUS_RANKS["infinite_sessions.ft"]


def _sessions(n: int) -> str:
    """A process of rank n: n sessions opened one after another."""
    if n == 0:
        return "done"
    return f"new x{n}: end! / end? in (close x{n} | wait x{n}. {_sessions(n - 1)})"


@pytest.mark.parametrize("outer_rank, markers, rank", [(1, [2, 1], 1), (3, [1, 2], 0)])
def test_infer_branch_sees_the_flips_committed_before(outer_rank, markers, rank):
    # Main = (A +[1] done) +[1] C with A of rank 2. The outer choice comes
    # first in preorder. At rank 1, C is better than the inner choice as
    # written, so the outer marker flips; the body then no longer reaches
    # the inner choice, its two scores tie, and it keeps its written marker.
    # At rank 3 the outer marker stays, and the inner one flips to `done`.
    # Choices judged independently would give [2, 2] in the first case.
    ck = Checker(load(f"Main() = ({_sessions(2)} +[1] done) +[1] {_sessions(outer_rank)}"),
                 infer_branch=True)
    report = ck.run()
    assert _markers(ck) == markers
    assert report["definitions"][0]["rank"] == rank


def test_action_bounds_outermost_reporting():
    # the unbounded call sits under a prefix; only the outermost failing
    # occurrence is reported
    report = check_program(load("A() = A()\nMain() = done"))
    diags = next(d for d in report["definitions"] if d["name"] == "A")["diagnostics"]
    assert [d["code"] for d in diags] == ["E-UNBOUNDED-ACTION"]


def test_diagnostic_spans_are_meaningful():
    report = _report("fwd.ft")
    for d in report["definitions"]:
        for diag in d["diagnostics"]:
            assert diag["span"]["line"] >= 1 and diag["span"]["col"] >= 1


def test_positions_are_looked_up_only_for_diagnostics(monkeypatch):
    # loading and checking an accepted program build no position table; a
    # rejected one builds it once, however many diagnostics it prints
    built = []
    table = surface.token_positions
    monkeypatch.setattr(surface, "token_positions", lambda src: built.append(src) or table(src))
    for name in ACCEPTED:
        assert check_program(load_corpus(name))["verdict"] == "accepted"
    assert built == []
    report = _report("fwd.ft")
    assert len(built) == 1
    assert sum(len(d["diagnostics"]) for d in report["definitions"]) > 1

"""Configuration graphs, compatibility, and session rank."""

import random
from collections import Counter

from fairchk import semantics
from fairchk.semantics import compatible, moves, session_rank, to_dot
from fairchk.subtyping import fair_subtype, unfair_subtype
from fairchk.surface import load
from fairchk.types import INF, TypeTable, co, dual, equiv

from conftest import CORPUS, CORPUS_RANKS, load_corpus
from gen import intern_spec, random_spec
from oracles import (build_config_graph, compatible_graph, rank_compatibility_agreement,
                     rank_oracle, session_rank_01bfs, TAU, to_dot_stored, type_transitions)


def _ends(table):
    return table.add(("end", "!")), table.add(("end", "?"))


def test_transitions_of_end():
    table = TypeTable()
    e, _ = _ends(table)
    assert type_transitions(table, e) == []


def test_transitions_of_input_choice():
    table = TypeTable()
    _, e = _ends(table)
    t = table.add(("tags", "?", (("a", e), ("b", e))))
    acts = {act for act, _ in type_transitions(table, t)}
    assert acts == {("tag", "?", "a"), ("tag", "?", "b")}


def test_transitions_of_output_choice_are_silent():
    # a multi-branch output first commits, so only picks are visible
    table = TypeTable()
    e, _ = _ends(table)
    t = table.add(("tags", "!", (("a", e), ("b", e))))
    trans = type_transitions(table, t)
    assert all(act == ("tau",) for act, _ in trans)
    assert len(trans) == 2


def test_transitions_of_singleton_output():
    table = TypeTable()
    e, _ = _ends(table)
    t = table.add(("tags", "!", (("a", e),)))
    acts = {act for act, _ in type_transitions(table, t)}
    assert ("tag", "!", "a") in acts


def test_transitions_of_chan():
    table = TypeTable()
    e, d = _ends(table)
    t = table.add(("chan", "!", e, d))
    assert type_transitions(table, t) == [(("chan", "!", e), d)]


def _moves_by_transitions(table, cfg):
    """`moves` of a configuration, built from the raw transitions of its
    two sides: a side's picks, unless it is a one-branch output, whose one
    pick is a self-loop; and every pair of complementary visible actions."""
    a, b = cfg
    ta, tb = type_transitions(table, a), type_transitions(table, b)
    picks_a = [x for act, x in ta if act == TAU]
    picks_b = [x for act, x in tb if act == TAU]
    tau = {(x, b) for x in picks_a if len(picks_a) > 1}
    tau |= {(a, x) for x in picks_b if len(picks_b) > 1}
    sync = [(la[2], (a2, b2))
            for la, a2 in ta if la != TAU for lb, b2 in tb if lb != TAU
            if la[0] == lb[0] and la[1] == co(lb[1])
            and (la[2] == lb[2] if la[0] == "tag" else equiv(table, la[2], lb[2]))]
    na, nb = [x if type(x) is tuple else table.node(x) for x in cfg]
    return tau, sync, na[0] == "end" and nb[0] == "end" and na[1] == co(nb[1])


def test_moves_match_the_raw_transitions_of_both_sides():
    pairs = []
    rnd = random.Random(41)
    for i in range(1200):
        table = TypeTable()
        spec = random_spec(rnd, 8)
        a = intern_spec(table, spec)
        # against its dual, the payloads are the same ids; against the dual
        # of a second copy, equal trees under other ids
        b = (intern_spec(table, random_spec(rnd, 8)), dual(table, a),
             dual(table, intern_spec(table, spec)))[i % 3]
        pairs.append((table, a, b))
    for name in sorted(CORPUS_RANKS):
        program = load_corpus(name)
        ids = list(program.typedefs.values())
        pairs += [(program.table, s, t) for s in ids for t in ids]
    seen = Counter()
    for table, s, t in pairs:
        todo, reached = [(s, t)], {(s, t)}
        while todo:
            cfg = todo.pop()
            tau, sync, done = moves(table, cfg)
            want_tau, want_sync, want_done = _moves_by_transitions(table, cfg)
            assert set(tau) == want_tau, cfg
            assert sync == want_sync and len(sync) <= 1, cfg
            assert done == want_done, cfg
            seen.update(["configs"] + ["pick"] * bool(tau) + ["success"] * done)
            seen.update(type(label).__name__ for label, _ in sync)
            for nxt in [*want_tau, *(d for _, d in want_sync)]:
                if nxt not in reached:
                    reached.add(nxt)
                    todo.append(nxt)
    # tag synchronizations are labelled by a str, channel ones by an int
    assert seen["configs"] > 4000 and seen["int"] > 50, seen
    assert all(seen[k] > 500 for k in ("pick", "success", "str")), seen


def test_a_pick_is_the_held_node_and_equal_picks_are_one_side():
    # X's pick of b is the one-branch output the table already holds, as W's
    # child; the pick of a, which X and Y share, is a node the table does
    # not hold, and it is one side and one configuration for both
    program = load("type S = ?{p: X, q: Y}\n"
                   "type X = !{a: end!, b: end!}\n"
                   "type Y = !{a: end!, c: end!}\n"
                   "type W = ?{w: !{b: end!}}\n"
                   "type T = !{p: D, q: D}\n"
                   "type D = ?{a: end?, b: end?, c: end?}\n")
    table, t = program.table, program.typedefs
    size = len(table.nodes)
    held = table.node(t["W"])[2][0][1]
    (xa, _), (xb, _) = moves(table, (t["X"], t["D"]))[0]
    (ya, _), (yc, _) = moves(table, (t["Y"], t["D"]))[0]
    assert xb == held
    assert xa == ya == ("tags", "!", (("a", table.lookup(("end", "!"))),))
    assert type(yc) is tuple and yc != xa
    dot = to_dot(table, t["S"], t["T"])
    nodes = [line for line in dot.splitlines() if "shape=" in line]
    assert len(nodes) == 9 and sum('"!{a: end!} # ' in line for line in nodes) == 1
    assert compatible(table, t["S"], t["T"]) and session_rank(table, t["S"], t["T"]) == 3
    assert len(table.nodes) == size


def test_no_type_question_adds_to_the_table():
    # subtyping, compatibility, rank and the DOT printer on random pairs,
    # half of them a type and its dual: each leaves the table's nodes and
    # its hash-cons map as they were built
    rnd = random.Random(36)
    picked = 0
    for i in range(600):
        table = TypeTable()
        a = intern_spec(table, random_spec(rnd, 8))
        b = dual(table, a) if i % 2 else intern_spec(table, random_spec(rnd, 8))
        nodes, cons = list(table.nodes), dict(table._cons)
        fair_subtype(table, a, b)
        compatible(table, a, b)
        session_rank(table, a, b)
        picked += "style=dashed" in to_dot(table, a, b)
        assert table.nodes == nodes and table._cons == cons, i
    assert picked > 100, picked


def test_end_pair_graph():
    table = TypeTable()
    e, d = _ends(table)
    g = build_config_graph(table, e, d)
    assert len(g.nodes) == 1
    assert g.tau[g.root] == [] and g.sync[g.root] == []
    assert g.success == {g.root}


def test_bsc_graph_reaches_success():
    bsc = load_corpus("bsc.ft")
    g = build_config_graph(bsc.table, bsc.typedefs["SB"], bsc.typedefs["SS"])
    assert g.success


def test_compatible_examples():
    bsc = load_corpus("bsc.ft")
    table = TypeTable()
    e, d = _ends(table)
    assert compatible(table, e, d)
    assert not compatible(table, e, e)
    assert compatible(bsc.table, bsc.typedefs["SB"], bsc.typedefs["SS"])
    assert not compatible(bsc.table, bsc.typedefs["SBi"], bsc.typedefs["SS"])


def _expanding_once(monkeypatch) -> list:
    """Patch `semantics.moves` to fail when one configuration is expanded
    twice; the list it returns holds the configurations expanded so far."""
    expanded = []
    moves = semantics.moves

    def once(table, cfg):
        assert cfg not in expanded, f"{cfg} expanded twice"
        expanded.append(cfg)
        return moves(table, cfg)

    monkeypatch.setattr(semantics, "moves", once)
    return expanded


def test_session_rank_expands_each_configuration_once(monkeypatch):
    expanded = _expanding_once(monkeypatch)
    rnd = random.Random(33)
    infinite = 0
    for i in range(500):
        table = TypeTable()
        a = intern_spec(table, random_spec(rnd, 8))
        b = dual(table, a) if i % 2 else intern_spec(table, random_spec(rnd, 8))
        got = session_rank(table, a, b)
        expanded.clear()
        assert got == session_rank_01bfs(table, a, b)
        expanded.clear()
        infinite += got == INF
    assert infinite > 50


def test_compatible_expands_each_configuration_once(monkeypatch):
    expanded = _expanding_once(monkeypatch)
    rnd = random.Random(35)
    seen = set()
    for i in range(500):
        table = TypeTable()
        a = intern_spec(table, random_spec(rnd, 8))
        b = dual(table, a) if i % 2 else intern_spec(table, random_spec(rnd, 8))
        got = compatible(table, a, b)
        expanded.clear()
        assert got == compatible_graph(table, a, b)
        expanded.clear()
        seen.add(got)
    assert seen == {True, False}


def test_session_rank_stops_at_the_first_success(monkeypatch):
    # a 200-state loop whose way out is one synchronization from the root
    n = 200
    source = "".join(f"type A{i} = ?{{more: A{(i + 1) % n}, stop: end?}}\n"
                     for i in range(n)) + "Main() = done\n"
    program = load(source)
    table, a = program.table, program.typedefs["A0"]
    b = dual(table, a)
    size = len(build_config_graph(table, a, b).nodes)
    expanded = _expanding_once(monkeypatch)
    assert session_rank(table, a, b) == 2
    assert len(expanded) < 10 < 3 * n <= size


def test_session_rank_examples():
    ranks = load_corpus("rank_example.ft")
    assert session_rank(ranks.table, ranks.typedefs["S4"], ranks.typedefs["T4"]) == 4
    table = TypeTable()
    e, d = _ends(table)
    assert session_rank(table, d, e) == 1
    bsc = load_corpus("bsc.ft")
    assert session_rank(bsc.table, bsc.typedefs["SB"], bsc.typedefs["SS"]) == 2
    assert session_rank(bsc.table, bsc.typedefs["SBi"], bsc.typedefs["SS"]) == INF


def test_session_rank_matches_value_iteration_oracle():
    rnd = random.Random(31)
    ranks = []
    for i in range(2000):
        table = TypeTable()
        a = intern_spec(table, random_spec(rnd, 8))
        b = dual(table, a) if i % 2 else intern_spec(table, random_spec(rnd, 8))
        got = session_rank(table, a, b)
        assert got == rank_oracle(table, a, b) == session_rank_01bfs(table, a, b)
        ranks.append(got)
    assert sum(3 <= r < INF for r in ranks) > 50 and ranks.count(INF) > 100


def test_compatible_is_symmetric():
    rnd = random.Random(32)
    for _ in range(500):
        table = TypeTable()
        a = intern_spec(table, random_spec(rnd, 5))
        b = intern_spec(table, random_spec(rnd, 5))
        assert compatible(table, a, b) == compatible(table, b, a)


def test_compatible_implies_finite_rank():
    rnd = random.Random(33)
    bsc = load_corpus("bsc.ft")
    for s, t in [(bsc.typedefs["SB"], bsc.typedefs["SS"]),
                 (bsc.typedefs["SB'"], bsc.typedefs["SS"])]:
        assert compatible(bsc.table, s, t) and session_rank(bsc.table, s, t) < INF
    for _ in range(200):
        table = TypeTable()
        a = intern_spec(table, random_spec(rnd, 5))
        b = intern_spec(table, random_spec(rnd, 5))
        agreement = rank_compatibility_agreement(table, a, b)
        assert agreement["consistent"]
        if agreement["compatible"]:
            assert agreement["rank"] < INF


def test_rank_antitone_under_unfair_widening():
    # if t' only narrows choices available to the peer, the shortest
    # terminating schedule cannot get shorter
    bsc = load_corpus("bsc.ft")
    slot = load_corpus("slot.ft")
    triples = [
        (bsc.table, bsc.typedefs["SS"], bsc.typedefs["SB"], bsc.typedefs["SB'"]),
        (bsc.table, bsc.typedefs["SS"], bsc.typedefs["SB"], bsc.typedefs["SBi"]),
        (slot.table, slot.typedefs["R"], slot.typedefs["S"], slot.typedefs["T"]),
    ]
    for table, u, t, t2 in triples:
        assert unfair_subtype(table, t, t2)
        assert compatible(table, u, t)
        assert session_rank(table, u, t) <= session_rank(table, u, t2)


def test_graph_node_count_is_bounded():
    rnd = random.Random(34)
    for _ in range(200):
        table = TypeTable()
        a = intern_spec(table, random_spec(rnd, 6))
        b = intern_spec(table, random_spec(rnd, 6))
        g = build_config_graph(table, a, b)
        bound = 4 * len(table.reachable(a)) * len(table.reachable(b))
        assert len(g.nodes) <= bound


def test_dot_output_shape():
    table = TypeTable()
    e, d = _ends(table)
    dot = to_dot(table, e, d)
    assert dot.startswith("digraph config {")
    assert "doublecircle" in dot
    assert dot.rstrip().endswith("}")


def test_dot_marks_picks_dashed():
    bsc = load_corpus("bsc.ft")
    dot = to_dot(bsc.table, bsc.typedefs["SB"], bsc.typedefs["SS"])
    assert 'label="pick", style=dashed' in dot
    assert 'label="add"' in dot or 'label="pay"' in dot


def test_dot_labels_a_channel_payload_with_its_type():
    table = TypeTable()
    e, d = _ends(table)
    s = table.add(("chan", "!", e, e))
    t = table.add(("chan", "?", e, d))
    dot = to_dot(table, s, t)
    assert '  n0 -> n1 [label="(end!)"];' in dot.splitlines()


def test_picks_follow_label_order_not_source_order():
    table = TypeTable()
    e, d = _ends(table)
    s = table.add(("tags", "!", (("b", e), ("a", e))))
    t = table.add(("tags", "?", (("a", d), ("b", d))))
    dot = to_dot(table, s, t)
    assert dot.index('"!{a: end!} #') < dot.index('"!{b: end!} #')


def test_dot_matches_the_stored_graph_printer():
    # one search that prints as it goes against the whole graph stored,
    # then printed: on random pairs, half of them a type and its dual, and
    # on every ordered pair of corpus typedefs
    rnd = random.Random(35)
    cases = []
    for i in range(2000):
        table = TypeTable()
        a = intern_spec(table, random_spec(rnd, 8))
        b = dual(table, a) if i % 2 else intern_spec(table, random_spec(rnd, 8))
        cases.append((table, a, b))
    for path in sorted(CORPUS.glob("*.ft")):
        program = load(path.read_text(encoding="utf-8"))
        ids = [program.typedefs[n] for n in sorted(program.typedefs)]
        cases += [(program.table, a, b) for a in ids for b in ids]
    seen = Counter()
    for table, a, b in cases:
        dot = to_dot(table, a, b)
        assert dot == to_dot_stored(table, build_config_graph(table, a, b)), (a, b)
        seen.update(k for k in ("doublecircle", "style=dashed", '[label="(') if k in dot)
    assert len(cases) >= 2192 and all(seen[k] > 50 for k in seen) and len(seen) == 3, seen

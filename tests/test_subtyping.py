"""Unfair simulation, the weight system, and fair subtyping."""

import random

import pytest

from fairchk import graph
from fairchk.graph import cyclic, tarjan
from fairchk.semantics import compatible, session_rank
from fairchk.subtyping import (_judge, fair_subtype, render_weight, simulate,
                               solve_weights, unfair_subtype)
from fairchk.surface import load
from fairchk.types import INF, TypeTable, _matched, dual

from conftest import load_corpus
from gen import (cascade_source, diverging_source, holding_loop_source,
                 holding_source, intern_spec, mutated_pair, random_spec,
                 supertype_of, unfold_root)
from json_schema import SUBTYPE, validate
from oracles import (_premises, compatible_graph, diverges, judge_oracle, reachable_pairs,
                     session_rank_graph, simulate_closure, simulate_sweep,
                     solve_weights_kleene, subtype_weight, tarjan_rescan,
                     weight_agrees_with_search)


def test_unfair_examples(bsc):
    table = bsc.table
    assert unfair_subtype(table, bsc.typedefs["SB"], bsc.typedefs["SBi"])
    e = table.add(("end", "!"))
    d = table.add(("end", "?"))
    assert not unfair_subtype(table, e, d)


def test_unfair_allows_wider_input():
    program = load("type SS = ?{add: SS, pay: end?}\n"
                   "type SS2 = ?{add: SS2, pay: end?, search: end?}\n"
                   "Main() = done")
    assert unfair_subtype(program.table, program.typedefs["SS"], program.typedefs["SS2"])


def test_unfair_rejects_missing_input_branch():
    program = load("type A = ?{add: end?, pay: end?}\n"
                   "type B = ?{add: end?}\n"
                   "Main() = done")
    sim = simulate(program.table, program.typedefs["A"], program.typedefs["B"])
    assert not sim.holds
    assert sim.failure[1] == "supertype misses an input branch of the subtype"


def test_unfair_rejects_extra_output_branch():
    program = load("type A = !{add: end!}\n"
                   "type B = !{add: end!, pay: end!}\n"
                   "Main() = done")
    sim = simulate(program.table, program.typedefs["A"], program.typedefs["B"])
    assert not sim.holds
    assert sim.failure[1] == "supertype outputs a label the subtype lacks"


def test_weight_pinned_values(bsc):
    table = bsc.table
    assert subtype_weight(table, bsc.typedefs["SB"], bsc.typedefs["SB'"]) == 1
    assert subtype_weight(table, bsc.typedefs["SB"], bsc.typedefs["SB"]) == 0
    assert subtype_weight(table, bsc.typedefs["SB"], bsc.typedefs["SBi"]) == INF


def test_weight_requires_simulation():
    table = TypeTable()
    e = table.add(("end", "!"))
    d = table.add(("end", "?"))
    with pytest.raises(ValueError):
        subtype_weight(table, e, d)


def test_fair_verdicts(bsc, slot):
    good = fair_subtype(bsc.table, bsc.typedefs["SB"], bsc.typedefs["SB'"])
    assert good.holds and good.weight == 1 and good.failure is None

    bad = fair_subtype(bsc.table, bsc.typedefs["SB"], bsc.typedefs["SBi"])
    assert not bad.holds and bad.failure[0] == "diverges"

    slot_bad = fair_subtype(slot.table, slot.typedefs["S"], slot.typedefs["T"])
    assert not slot_bad.holds and slot_bad.failure[0] == "diverges"
    assert unfair_subtype(slot.table, slot.typedefs["S"], slot.typedefs["T"])

    # verdicts and simulations compare by their fields
    assert fair_subtype(bsc.table, bsc.typedefs["SB"], bsc.typedefs["SBi"]) == bad
    assert bad != good
    sim = simulate(bsc.table, bsc.typedefs["SB"], bsc.typedefs["SB'"])
    assert sim == simulate(bsc.table, bsc.typedefs["SB"], bsc.typedefs["SB'"])


def test_diverges_examples(bsc):
    assert diverges(bsc.table, bsc.typedefs["SB"], bsc.typedefs["SBi"])
    assert not diverges(bsc.table, bsc.typedefs["SB"], bsc.typedefs["SB"])


def test_failure_kind_not_simulated():
    table = TypeTable()
    e = table.add(("end", "!"))
    d = table.add(("end", "?"))
    v = fair_subtype(table, e, d)
    assert not v.holds and v.failure[0] == "not-simulated"
    assert v.failure[2] == "polarity mismatch"


def test_witness_starts_at_root_and_is_premise_closed(bsc):
    sim = simulate(bsc.table, bsc.typedefs["SB"], bsc.typedefs["SB'"])
    assert sim.holds
    assert sim.witness[0] == (bsc.typedefs["SB"], bsc.typedefs["SB'"])
    assert len(sim.witness) == len(set(sim.witness))


def test_deep_divergence_sinks_the_root():
    # the root weight alone would be finite through the pay branch; the
    # diverging add pair must still disqualify the refinement
    program = load("type A = !{add: L, pay: end!}\n"
                   "type L = !{add: L, pay: end!}\n"
                   "type B = !{add: Li, pay: end!}\n"
                   "type Li = !{add: Li}\n"
                   "Main() = done")
    table = program.table
    v = fair_subtype(table, program.typedefs["A"], program.typedefs["B"])
    assert not v.holds and v.failure[0] == "diverges"
    assert v.failure[1] == (program.typedefs["L"], program.typedefs["Li"])


def test_reflexivity_random():
    rnd = random.Random(41)
    for _ in range(100):
        table = TypeTable()
        t = intern_spec(table, random_spec(rnd))
        v = fair_subtype(table, t, t)
        assert v.holds and v.weight == 0


def test_unfolding_has_weight_zero():
    rnd = random.Random(42)
    for _ in range(50):
        table = TypeTable()
        spec = random_spec(rnd)
        a = intern_spec(table, spec)
        b = intern_spec(table, unfold_root(spec))
        v = fair_subtype(table, a, b)
        assert v.holds and v.weight == 0


def test_fair_implies_unfair():
    rnd = random.Random(43)
    for _ in range(150):
        table = TypeTable()
        sub, sup = mutated_pair(rnd)
        a, b = intern_spec(table, sub), intern_spec(table, sup)
        if fair_subtype(table, a, b).holds:
            assert unfair_subtype(table, a, b)


def test_weights_stay_under_cutoff():
    # every finite component of the least solution is at most K
    rnd = random.Random(44)
    holding = 0
    for _ in range(150):
        table = TypeTable()
        sub, sup = mutated_pair(rnd)
        a, b = intern_spec(table, sub), intern_spec(table, sup)
        sim = simulate(table, a, b)
        if not sim.holds:
            continue
        rk = solve_weights(sim)
        for w in rk.values():
            assert w == INF or w <= len(sim.witness)
        holding += 1
    assert holding > 20


def test_transitivity_small():
    rnd = random.Random(45)
    for _ in range(60):
        spec0 = random_spec(rnd, 5)
        spec1 = supertype_of(spec0, rnd)
        spec2 = supertype_of(spec1, rnd)
        table = TypeTable()
        t0 = intern_spec(table, spec0)
        t1 = intern_spec(table, spec1)
        t2 = intern_spec(table, spec2)
        assert fair_subtype(table, t0, t1).holds
        assert fair_subtype(table, t1, t2).holds
        assert fair_subtype(table, t0, t2).holds


def test_weight_search_oracle_small():
    rnd = random.Random(46)
    checked = 0
    while checked < 25:
        table = TypeTable()
        sub, sup = mutated_pair(rnd)
        a, b = intern_spec(table, sub), intern_spec(table, sup)
        if not simulate(table, a, b).holds:
            continue
        assert weight_agrees_with_search(table, a, b)
        checked += 1


def test_render_weight():
    assert render_weight(0) == 0
    assert render_weight(3) == 3
    assert render_weight(INF) == "inf"


def test_verdict_json_matches_schema(bsc):
    table = bsc.table
    for pair in [("SB", "SB'"), ("SB", "SBi")]:
        v = fair_subtype(table, bsc.typedefs[pair[0]], bsc.typedefs[pair[1]])
        validate(v.to_json(table), SUBTYPE)
    good = fair_subtype(table, bsc.typedefs["SB"], bsc.typedefs["SB'"]).to_json(table)
    assert good == {"holds": True, "weight": 1, "simulationSize": 3}


def _tarjan_by_pair(witness: list, premises: dict) -> list[list]:
    """`tarjan` on the witness pairs numbered in witness order, its
    components mapped back to pairs."""
    num = {p: k for k, p in enumerate(witness)}
    sccs = tarjan([[num[q] for q in premises[p]] for p in witness])
    return [[witness[k] for k in scc] for scc in sccs]


def _weights(text: str, sub: str, sup: str):
    program = load(text)
    table = program.table
    sim = simulate(table, program.typedefs[sub], program.typedefs[sup])
    assert sim.holds
    rk = solve_weights(sim)
    assert rk == solve_weights_kleene(table, sim.witness)
    return program, rk, _tarjan_by_pair(sim.witness, sim.premises)


def test_solvers_match_sweep_and_kleene_oracles():
    rnd = random.Random(47)
    seen = {"failure": 0, "infinite": 0, "positive": 0, "positive_cycle": 0}
    for i in range(6000):
        table = TypeTable()
        if i % 3 == 0:
            a = intern_spec(table, random_spec(rnd, 8))
            b = intern_spec(table, random_spec(rnd, 8))
        elif i % 3 == 1:
            sub, sup = mutated_pair(rnd, 8)
            a, b = intern_spec(table, sub), intern_spec(table, sup)
        else:
            sub = random_spec(rnd, 8)
            a = intern_spec(table, sub)
            b = intern_spec(table, supertype_of(sub, rnd))
        got, want = simulate(table, a, b), simulate_sweep(table, a, b)
        assert (got.holds, got.witness, got.failure) == (want.holds, want.witness, want.failure)
        if not got.holds:
            seen["failure"] += 1
            continue
        rk = solve_weights(got)
        assert rk == solve_weights_kleene(table, got.witness)
        assert list(rk) == got.witness
        assert (_tarjan_by_pair(got.witness, got.premises)
                == tarjan_rescan(got.witness, got.premises))
        seen["infinite"] += INF in rk.values()
        seen["positive"] += any(0 < w < INF for w in rk.values())
        prem = {p: _premises(table, *p) for p in got.witness}
        seen["positive_cycle"] += any(
            cyclic(scc, prem) and any(0 < rk[p] < INF for p in scc)
            for scc in _tarjan_by_pair(got.witness, prem))
    assert seen["failure"] > 1000 and seen["positive"] > 200
    assert seen["infinite"] > 50 and seen["positive_cycle"] > 50


def test_one_search_matches_the_carrier_and_stored_graph_oracles():
    # the simulation against the judged carrier and its backward closure,
    # compatibility and rank against the stored configuration graph
    rnd = random.Random(49)
    seen = {"holds": 0, "not-simulated": 0, "diverges": 0, "compatible": 0,
            "incompatible": 0, "finite rank": 0, "infinite rank": 0}
    for i in range(4500):
        table = TypeTable()
        if i % 3 == 0:
            a = intern_spec(table, random_spec(rnd, 8))
            b = intern_spec(table, random_spec(rnd, 8))
        else:
            sub, sup = mutated_pair(rnd, 8)
            a, b = intern_spec(table, sub), intern_spec(table, sup)
        got, want = simulate(table, a, b), simulate_closure(table, a, b)
        assert (got.holds, got.witness, got.equation, got.premises, got.failure) == (
            want.holds, want.witness, want.equation, want.premises, want.failure)
        verdict = fair_subtype(table, a, b)
        seen[verdict.failure[0] if verdict.failure else "holds"] += 1
        for u, v in ((a, b), (a, dual(table, b))):
            ok = compatible(table, u, v)
            assert ok == compatible_graph(table, u, v)
            rank = session_rank(table, u, v)
            assert rank == session_rank_graph(table, u, v)
            seen["compatible" if ok else "incompatible"] += 1
            seen["infinite rank" if rank == INF else "finite rank"] += 1
    assert seen["diverges"] >= 100, seen
    assert min(n for kind, n in seen.items() if kind != "diverges") > 1000, seen


def test_judge_matches_the_three_oracle_readings():
    # every carrier pair, the pairs below a shape violation included
    rnd = random.Random(48)

    def rewired(node, n):
        # channel payloads pointed elsewhere, labels listed in reverse
        if node[0] == "chan":
            return ("chan", node[1], rnd.randrange(n), node[3])
        if node[0] == "tags":
            return ("tags", node[1], node[2][::-1])
        return node

    seen = {"payload": 0, "below": 0, "strict": 0, "equal": 0, "chan": 0}
    for i in range(4000):
        table = TypeTable()
        if i % 4 == 0:
            a = intern_spec(table, random_spec(rnd, 8))
            b = intern_spec(table, random_spec(rnd, 8))
        elif i % 4 == 1:
            sub, sup = mutated_pair(rnd, 8)
            a, b = intern_spec(table, sub), intern_spec(table, sup)
        elif i % 4 == 2:
            sub = random_spec(rnd, 8)
            a = intern_spec(table, sub)
            b = intern_spec(table, supertype_of(sub, rnd))
        else:
            sub = random_spec(rnd, 8)
            a = intern_spec(table, [rewired(n, len(sub)) for n in sub])
            b = intern_spec(table, [rewired(n, len(sub)) for n in sub])
        for p in reachable_pairs(table, a, b):
            got = _judge(table, *p)
            assert got == judge_oracle(table, *p)
            seen["payload"] += got[0] == "channel payload types differ"
            # a shape violation with carrier pairs below it
            seen["below"] += got[1] is None and bool(_matched(table, *p))
            seen[got[0]] = seen.get(got[0], 0) + 1
    assert seen["payload"] > 100 and seen["below"] > 200
    assert min(seen["strict"], seen["equal"], seen["chan"]) > 100


def test_weight_of_a_zero_cost_input_loop_is_zero(monkeypatch):
    # the least fixpoint enters the loop with 0, the largest value entering
    # it, in one pass: a cycle of input pairs skips the level method
    entered = []
    settle = graph._settle_cycle
    monkeypatch.setattr(graph, "_settle_cycle", lambda *args: entered.append(1) or settle(*args))
    for text, pairs in (("type T = ?{a: T}", 1), ("type T = ?{a: T, b: end?}", 2)):
        program, rk, _ = _weights(text + "\nMain() = done", "T", "T")
        t = program.typedefs["T"]
        assert rk[(t, t)] == 0 and set(rk.values()) == {0} and len(rk) == pairs, text
    assert entered == []


def test_holding_loop_settles_one_weight_per_level():
    n = 50
    program, rk, sccs = _weights(holding_loop_source(n), "X3", "Y3")
    pair = (program.typedefs["X3"], program.typedefs["Y3"])
    assert rk[pair] == 48
    loop = [scc for scc in sccs if len(scc) > 1]
    assert len(loop) == 1 and len(loop[0]) == n
    assert sorted(rk[p] for p in loop[0]) == list(range(1, n + 1))


def test_zero_cost_loop_takes_the_weight_of_its_exit():
    k = 3
    text = (holding_source(k)
            + "type A = ?{a: A, b: W0, c: end?}\n"
            + "type B = ?{a: B, b: Z0, c: end?, d: end!}\n")
    program, rk, sccs = _weights(text, "A", "B")
    loop = (program.typedefs["A"], program.typedefs["B"])
    assert rk[loop] == k
    assert [loop] in sccs
    assert fair_subtype(program.table, *loop).weight == k


def test_cascade_ladder_at_scale():
    n = 1600
    program = load(cascade_source(n))
    v = fair_subtype(program.table, program.typedefs["A0"], program.typedefs["B0"])
    assert not v.holds and v.failure[0] == "not-simulated"
    u, w = v.failure[1]
    assert (program.table.node(u), program.table.node(w)) == (("end", "!"), ("end", "?"))
    assert v.failure[2] == "polarity mismatch"


def test_diverging_ladder_at_scale():
    n = 1600
    program = load(diverging_source(n))
    v = fair_subtype(program.table, program.typedefs["U0"], program.typedefs["V0"])
    assert not v.holds and v.failure[0] == "diverges"
    assert v.simulation_size == n


def test_holding_ladder_at_scale():
    n = 1600
    program = load(holding_source(n))
    v = fair_subtype(program.table, program.typedefs["W0"], program.typedefs["Z0"])
    assert v.holds and v.weight == n and v.simulation_size == n + 1

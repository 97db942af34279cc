"""Scheduler and reduction tests.

Golden step counts below were produced by this implementation and frozen;
they guard against accidental changes to the scheduler's probe order or to
the generator stream, both of which are part of the observable contract
(same seed, same trace).
"""

import random
from collections import Counter

import pytest

from conftest import CORPUS, RUNNABLE, load_corpus
from fairchk.runtime import RULES, RunOutcome, Soup, SplitMix64, drive, run
from fairchk.schema import RUN_STATS, TRACE_ENTRY
from fairchk.surface import ChanIn, ChanOut, Close, TagComm, Wait, load
from gen import random_runnable_source, swarm_source
from json_schema import validate
from oracles import OracleSoup, TreeSoup, drive_tree


# SplitMix64 reference outputs for seed 0, from the published algorithm.
SEED0_VECTOR = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_reference_vector():
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(3)] == SEED0_VECTOR


def test_splitmix64_is_deterministic():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_splitmix64_below_stays_in_range():
    gen = SplitMix64(42)
    seen = set()
    for _ in range(2000):
        v = gen.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_below_one_is_always_zero():
    gen = SplitMix64(3)
    assert all(gen.below(1) == 0 for _ in range(20))


def test_trivial_main_terminates_immediately():
    out = run(load("Main() = done"), seed=0)
    assert out.kind == "terminated"
    assert out.steps == 0


def test_single_session_close_wait():
    prog = load("Main() = new x: end! / end? in (close x | wait x. done)")
    out = run(prog, seed=0, want_trace=True)
    assert out.kind == "terminated"
    assert out.steps == 2
    assert [e.rule for e in out.trace] == ["rb-par", "rb-signal"]


def test_bsc_seed1_golden_run():
    out = run(load_corpus("bsc"), seed=1, want_trace=True)
    assert out.kind == "terminated"
    assert out.steps == 11
    assert "rb-cast" in {e.rule for e in out.trace}


def test_trace_length_matches_steps():
    out = run(load_corpus("slot"), seed=7, want_trace=True)
    assert out.kind == "terminated"
    assert out.steps == 9
    assert len(out.trace) == out.steps


def test_trace_rules_are_known():
    for name, seed in [("bsc", 2), ("slot", 3), ("delegation", 4)]:
        out = run(load_corpus(name), seed=seed, want_trace=True)
        assert {e.rule for e in out.trace} <= RULES


def test_trace_entries_satisfy_schema():
    out = run(load_corpus("bsc"), seed=1, want_trace=True)
    for entry in out.trace:
        validate(entry.to_json(), TRACE_ENTRY)


def test_trace_line_format():
    out = run(load_corpus("bsc"), seed=1, want_trace=True)
    first = out.trace[0].line()
    fields = first.split("\t")
    assert len(fields) == 4
    assert fields[0] == "0"
    assert fields[1] in RULES


def test_delegation_exercises_channel_passing():
    out = run(load_corpus("delegation"), seed=3, want_trace=True)
    assert out.kind == "terminated"
    assert "rb-channel" in {e.rule for e in out.trace}


def test_choice_rule_appears_in_branching_programs():
    out = run(load_corpus("infinite_sessions"), seed=5, want_trace=True)
    assert out.kind == "terminated"
    assert out.steps == 8
    assert "rb-choice" in {e.rule for e in out.trace}


def test_same_seed_same_trace():
    a = run(load_corpus("bsc"), seed=9, want_trace=True)
    b = run(load_corpus("bsc"), seed=9, want_trace=True)
    assert a.kind == b.kind and a.steps == b.steps
    assert [e.line() for e in a.trace] == [e.line() for e in b.trace]


def test_dump_is_empty_after_termination():
    out = run(load_corpus("bsc"), seed=1)
    assert out.kind == "terminated"
    assert out.dump == []


def test_two_closers_get_stuck():
    prog = load("Main() = new x: end! / end! in (close x | close x)")
    out = run(prog, seed=0)
    assert out.kind == "stuck"
    assert out.steps == 1
    assert len(out.dump) == 2
    assert all("close" in line for line in out.dump)


def test_step_limit_reported():
    out = run(load_corpus("bsc"), seed=1, max_steps=0)
    assert out.kind == "step-limit"
    assert out.steps == 0


def test_missing_entry_point_raises():
    with pytest.raises(ValueError):
        run(load("A() = done"), seed=0)


def test_entry_point_with_parameters_raises():
    with pytest.raises(ValueError):
        run(load("Main(x: end!) = close x"), seed=0)


def test_alternate_entry_point():
    prog = load("Go() = done\nMain() = done")
    out = run(prog, seed=0, entry="Go")
    assert out.kind == "terminated"


@pytest.mark.parametrize("name", RUNNABLE)
def test_twenty_seeds_terminate(name):
    for seed in range(20):
        out = run(load_corpus(name), seed=seed)
        assert out.kind == "terminated", f"{name} seed {seed}: {out.kind}"


# -- the interpreter against the tree interpreter and the rebuild oracle -------

def _runs_agree(program, seed: int, max_steps: int,
                oracle=OracleSoup) -> tuple[RunOutcome, Soup]:
    """Run `program` with the interpreter and with an oracle soup driven on
    syntax trees; every observable part of the two outcomes must be equal.
    The oracle is the tree interpreter with its redex index, or with a
    rebuild of every redex at each step. Returns the outcome and the soup
    as the run left it."""
    soup = Soup(program, SplitMix64(seed))
    soup.spawn_main()
    got = drive(soup, max_steps, want_trace=True)
    tree = oracle(program, SplitMix64(seed))
    tree.spawn_main()
    want = drive_tree(tree, max_steps, want_trace=True)
    assert (got.kind, got.steps) == (want.kind, want.steps)
    assert [e.line() for e in got.trace] == [e.line() for e in want.trace]
    assert got.dump == want.dump
    assert got.stats == want.stats
    # keeping no trace changes nothing else
    bare = run(program, seed=seed, max_steps=max_steps)
    assert (bare.kind, bare.steps, bare.trace, bare.dump, bare.stats) == (
        got.kind, got.steps, [], got.dump, got.stats)
    return got, soup


def test_number_interpreter_matches_the_tree_interpreter():
    for path in sorted(CORPUS.glob("*.ft")):
        program = load(path.read_text(encoding="utf-8"))
        if "Main" not in program.procs:
            continue
        for seed in range(8):
            _runs_agree(program, seed, 400, TreeSoup)
    for d in range(1, 7):
        program = load(swarm_source(d))
        for seed in range(2):
            assert _runs_agree(program, seed, 100_000, TreeSoup)[0].kind == "terminated"
    kinds: Counter = Counter()
    for i in range(300):
        program = load(random_runnable_source(random.Random(i)))
        for seed in range(8):
            out, soup = _runs_agree(program, 8 * i + seed, 300, TreeSoup)
            kinds[out.kind] += 1
            # a dump that prints a picked output as its one branch
            kinds["picked"] += any(th.pick is not None for th in soup.threads.values())
    assert min(kinds[k] for k in ("stuck", "step-limit", "terminated")) >= 100, kinds
    assert kinds["picked"] >= 50, kinds


def test_incremental_redexes_match_rebuild_oracle():
    # every corpus file, accepted or not, run as --unsafe runs it
    for path in sorted(CORPUS.glob("*.ft")):
        program = load(path.read_text(encoding="utf-8"))
        if "Main" not in program.procs:
            continue
        for seed in range(32):
            _runs_agree(program, seed, 400)
    for d in range(1, 7):
        program = load(swarm_source(d))
        for seed in range(2):
            assert _runs_agree(program, seed, 100_000)[0].kind == "terminated"
    kinds: Counter = Counter()
    fired: Counter = Counter()
    for i in range(1000):
        out, _ = _runs_agree(load(random_runnable_source(random.Random(i))), i, 300)
        kinds[out.kind] += 1
        fired.update(rule for rule, n in out.stats["rules"].items() if n)
    assert kinds["stuck"] >= 100 and kinds["step-limit"] >= 50 and kinds["terminated"] >= 25
    assert min(fired[rule] for rule in RULES) >= 20, fired


def test_random_runs_share_miss_and_leave_payloads_unbound():
    # what the differential test above must cover: several threads with
    # their head on one handle, heads on missing handles, unbound payloads
    programs: Counter = Counter()

    class Watch(Soup):
        seen: set[str]

        def step(self, step_no):
            handles = []
            for th in self.threads.values():
                p = self.program.nodes[th.occ]
                if isinstance(p, (Close, Wait, TagComm, ChanOut, ChanIn)):
                    if p.chan not in th.env:
                        self.seen.add("missing")
                    elif isinstance(p, ChanOut) and p.payload not in th.env:
                        self.seen.add("unbound payload")
                    else:
                        handles.append(th.env[p.chan])
            if len(set(handles)) < len(handles):
                self.seen.add("shared")
            return super().step(step_no)

    for i in range(1000):
        soup = Watch(load(random_runnable_source(random.Random(i))), SplitMix64(i))
        soup.seen = set()
        soup.spawn_main()
        drive(soup, 300, want_trace=False)
        programs.update(soup.seen)
    assert min(programs[k] for k in ("shared", "missing", "unbound payload")) >= 50, programs


def test_step_work_independent_of_thread_count(monkeypatch):
    # count the threads each step re-reads, and the threads whose occurrence
    # it looks up; the work, not the time
    per_step: list[int] = []
    looked_up: list[int] = []
    refresh, step, role = Soup._refresh, Soup.step, Soup._role

    def counting_refresh(soup, tids):
        tids = tuple(tids)
        per_step[-1] += len(tids)
        return refresh(soup, tids)

    def counting_step(soup, step_no):
        per_step.append(0)
        looked_up.append(0)
        return step(soup, step_no)

    def counting_role(soup, th):
        looked_up[-1] += 1
        return role(soup, th)

    monkeypatch.setattr(Soup, "_refresh", counting_refresh)
    monkeypatch.setattr(Soup, "step", counting_step)
    monkeypatch.setattr(Soup, "_role", counting_role)
    for d in (3, 8):
        per_step[:] = [0]  # spawning Main
        looked_up[:] = [0]
        out = run(load(swarm_source(d)), seed=d)
        assert out.kind == "terminated"
        assert out.stats["peakThreads"] > 2 ** d
        assert len(per_step) == len(looked_up) == 1 + out.steps
        assert per_step[0] == 1 and max(per_step) <= 3
        assert looked_up[0] == 1 and max(looked_up) <= 3


def test_run_stats_count_rules_threads_and_sessions():
    out = run(load_corpus("bsc"), seed=1)
    assert out.stats == {
        "rules": {"rb-cast": 1, "rb-channel": 0, "rb-choice": 0, "rb-par": 2,
                  "rb-pick": 1, "rb-signal": 2, "rb-tag": 2, "sb-call": 3},
        "peakThreads": 3, "sessionsOpened": 2}
    assert sum(out.stats["rules"].values()) == out.steps
    validate(out.stats, RUN_STATS)
    d = 4
    out = run(load(swarm_source(d)), seed=0)
    # Main's link, two links per inner tree node and one game per leaf
    assert out.stats["sessionsOpened"] == 1 + 2 * (2 ** d - 1) + 2 ** d
    assert out.stats["rules"]["rb-par"] == out.stats["sessionsOpened"]
    assert run(load("Main() = done"), seed=0).stats["peakThreads"] == 0

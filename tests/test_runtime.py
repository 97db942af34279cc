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
from fairchk.surface import ChanIn, ChanOut, Close, Done, TagComm, Wait, load
from fairchk.typecheck import check_program
from gen import random_runnable_source, swarm_source
from json_schema import RUN_STATS, TRACE_ENTRY, validate
from oracles import OracleSoup, TreeSoup, drive_tree


# SplitMix64 reference outputs for seed 0, from the published algorithm.
SEED0_VECTOR = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_reference_vector():
    # the multiply-shift reduction into [0, 2**64) is the output itself
    gen = SplitMix64(0)
    assert [gen.below(1 << 64) for _ in range(3)] == SEED0_VECTOR


def test_splitmix64_is_deterministic():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.below(1 << 64) for _ in range(50)] == [b.below(1 << 64) for _ in range(50)]


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
    # outcomes and trace entries compare by their fields, and have no hash
    assert a == b and a.trace[0] == b.trace[0]
    c = run(load_corpus("bsc"), seed=1, want_trace=True)
    assert [e.line() for e in c.trace] != [e.line() for e in a.trace] and c != a
    with pytest.raises(TypeError):
        hash(a)


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
            # a dump that prints a picked output as its one branch, an
            # occurrence the soup adds past the program's
            kinds["picked"] += any(occ >= len(program.nodes) for occ in soup.threads.values())
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


def test_a_run_leaves_the_program_as_loaded():
    # the soup extends its own copy of the occurrence table: the checker
    # shares the program, so a run must leave it as it was loaded
    sources = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.ft"))]
    sources += [swarm_source(d) for d in range(1, 7)]
    sources += [random_runnable_source(random.Random(i)) for i in range(300)]
    picking = 0
    for i, source in enumerate(sources):
        program = load(source)
        nodes, kids = list(program.nodes), [list(k) for k in program.kids]
        start, report = dict(program.start), check_program(program)
        if "Main" in program.procs:
            run(program, seed=i, max_steps=300)
        assert program.nodes == nodes and program.kids == kids and program.start == start
        assert check_program(program) == report
        # the extension: an output with several branches moves to itself
        # once picked, one one-branch output per label, in order, each with
        # that branch's continuation as its only kid; then one done
        soup = Soup(program, SplitMix64(i))
        for v, n in enumerate(nodes):
            if type(n) is TagComm and n.pol == "!" and len(n.labels) > 1:
                picking += 1
                picked = soup.kids[v]
                assert [soup.nodes[p].labels for p in picked] == [(a,) for a in n.labels]
                assert all(soup.nodes[p].pol == "!" and soup.nodes[p].chan == n.chan
                           for p in picked)
                assert [soup.kids[p] for p in picked] == [[k] for k in kids[v]]
            else:
                assert soup.kids[v] == kids[v]
        assert soup.done == len(soup.nodes) - 1 and type(soup.nodes[-1]) is Done
        assert soup.kids[-1] == []
    assert picking >= 100


def _drive_every_run(soup_class) -> Counter:
    """Drive the corpus at 8 seeds, `swarm_source(d)` for d = 1..6 at 2
    seeds and the 1000 `random_runnable_source` draws of the differential
    test on soups of `soup_class`; return how often each rule fired."""
    runs = [(path.read_text(encoding="utf-8"), seed, 400)
            for path in sorted(CORPUS.glob("*.ft")) for seed in range(8)]
    runs += [(swarm_source(d), seed, 100_000) for d in range(1, 7) for seed in range(2)]
    runs += [(random_runnable_source(random.Random(i)), i, 300) for i in range(1000)]
    fired: Counter = Counter()
    for source, seed, max_steps in runs:
        program = load(source)
        if "Main" not in program.procs:
            continue
        soup = soup_class(program, SplitMix64(seed))
        soup.spawn_main()
        fired.update(drive(soup, max_steps, want_trace=False).stats["rules"])
    return fired


def test_threads_own_their_environments():
    # a step writes environments in place, so after every step no two
    # live threads may hold the same dict
    class Owned(Soup):
        def step(self, step_no):
            rule = super().step(step_no)
            envs = {id(env) for env in self.env.values()}
            assert len(envs) == len(self.threads), (rule, step_no)
            return rule

    fired = _drive_every_run(Owned)
    assert min(fired["rb-par"], fired["rb-channel"], fired["sb-call"]) >= 100, fired


def test_index_matches_a_rebuild_after_every_step():
    # a step re-indexes a thread only where its role changed; after every
    # step the index must equal what a fresh soup builds by re-reading
    # every live thread
    seen: Counter = Counter()

    class Checked(Soup):
        def step(self, step_no):
            before = {tid: (self.role.get(tid), occ) for tid, occ in self.threads.items()}
            rule = super().step(step_no)
            fresh = Soup(self.program, SplitMix64(0))
            fresh.threads, fresh.env = dict(self.threads), dict(self.env)
            fresh._refresh(tuple(self.threads))
            for name in ("role", "singles", "heads", "sessions", "pairs"):
                assert getattr(self, name) == getattr(fresh, name), (name, rule, step_no)
            for tid, (role, occ) in before.items():
                now = self.role.get(tid)
                if type(role) is int and now == role and self.threads[tid] != occ:
                    seen["head stays on its handle"] += 1
                elif type(role) is str and type(now) is str and now != role:
                    seen["single to another single"] += 1
            return rule

    _drive_every_run(Checked)
    assert min(seen[k] for k in ("head stays on its handle",
                                 "single to another single")) >= 100, seen


def test_random_runs_share_miss_and_leave_payloads_unbound():
    # what the differential test above must cover: several threads with
    # their head on one handle, heads on missing handles, unbound payloads
    programs: Counter = Counter()

    class Watch(Soup):
        seen: set[str]

        def step(self, step_no):
            handles = []
            for tid, occ in self.threads.items():
                p, env = self.nodes[occ], self.env[tid]
                if isinstance(p, (Close, Wait, TagComm, ChanOut, ChanIn)):
                    if p.chan not in env:
                        self.seen.add("missing")
                    elif isinstance(p, ChanOut) and p.payload not in env:
                        self.seen.add("unbound payload")
                    else:
                        handles.append(env[p.chan])
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


def test_step_work_independent_of_thread_count():
    # count the threads each step re-reads, and the reads of the
    # per-occurrence table; the work, not the time
    per_step: list[int] = []
    reads: list[int] = []

    class Counting(list):
        def __getitem__(self, v):
            reads[-1] += 1
            return super().__getitem__(v)

    class Counted(Soup):
        def step(self, step_no):
            per_step.append(0)
            reads.append(0)
            return super().step(step_no)

        def _refresh(self, tids):
            per_step[-1] += len(tids)
            return super()._refresh(tids)

    for d in (3, 8):
        per_step[:] = [0]  # spawning Main
        reads[:] = [0]
        soup = Counted(load(swarm_source(d)), SplitMix64(d))
        soup.shapes = Counting(soup.shapes)
        soup.spawn_main()
        out = drive(soup, 100_000, want_trace=False)
        assert out.kind == "terminated"
        assert out.stats["peakThreads"] > 2 ** d
        assert len(per_step) == len(reads) == 1 + out.steps
        assert per_step[0] == 1 and max(per_step) <= 3
        # the most is an rb-tag: the sender's and the receiver's entry to
        # fire it, the two threads re-read, and the session's two heads
        assert reads[0] == 1 and max(reads) <= 6


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

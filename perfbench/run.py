"""The fairchk benchmark: verdict latency and run throughput, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload is one client in a
closed loop in this process: every operation is one in-process CLI
invocation, `fairchk.cli.main(argv)`, with stdout captured and checked
against an answer derived from how the input was built (see families.py).
fairchk only ever sees the generated `.ft` files, written under
perfbench/out/.

Set-up imports fairchk from src/, generates the inputs and expected
answers, self-checks the generators at small sizes and runs one untimed
warm-up pass over every operation; it is repeated and the median reported
as `setup_s`. The timed loop then repeats whole passes over the operations
until `--seconds` have gone by. Every output, with `timings` removed, must
be byte-identical to the warm-up output of the same operation. Throughput
counts every invocation; latencies come from the completed ones. Every
time is scaled to a reference host speed (hostspeed.py); the raw
wall-clock figures are printed beside them.

An operation fails when it raises, or when its exit code or output differs
from the expected answer; failures are counted, never retried or hidden.
`correct` is false when an operation gave a wrong or nondeterministic
answer, raised anything but the exception its workload lists as known for
it (`Op.known_failure`), or when the generator self-check failed.

With --trace 0 the last line holds the end-to-end metrics. With --trace 1
the loop runs untraced for half the time, then one traced pass over every
operation gives the per-layer metrics (tracing.py), so counts repeat
exactly for a seed; the tracing overhead is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import families as fam
from families import Expect, Family
from hostspeed import HostSpeed
from tracing import DETERMINISTIC_COUNTS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# set-up runs this many times and `setup_s` is the median
SETUP_REPEATS = 3


@dataclass
class Op:
    label: str
    argv: list[str]
    expect: Expect
    # the exception this operation raises at the commit that added the
    # benchmark: counted as a failure, not as a wrong answer
    known_failure: str | None = None

    @property
    def is_run(self) -> bool:
        return self.argv[0] == "run"


@dataclass
class Result:
    start: float
    latency: float
    code: int | None
    out: str
    raised: str | None


# -- workloads ----------------------------------------------------------------

def _write(family: Family, workdir: Path, label: str | None = None,
           known_failure: str | None = None) -> list[Op]:
    label = label or family.name
    path = workdir / f"{label}.ft"
    path.write_text(family.source, encoding="utf-8")
    return [Op(label, [argv[0], str(path)] + argv[1:], expect, known_failure)
            for argv, expect in family.queries]


def _seeds(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(1, 2 ** 31) for _ in range(n)]


def corpus(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for name, expect in fam.CORPUS_CHECK.items():
        path = str(ROOT / "corpus" / name)
        ops.append(Op(name, ["check", path, "--json"], expect))
        ops.append(Op(name, ["check", path, "--infer-branch", "--json"], expect))
    for name, argv, expect in fam.CORPUS_QUERIES:
        ops.append(Op(name, [argv[0], str(ROOT / "corpus" / name)] + argv[1:], expect))
    for name in fam.CORPUS_RUNNABLE:
        for s in _seeds(rng, 16):
            ops.append(Op(name, ["run", str(ROOT / "corpus" / name), "--json",
                                 "--seed", str(s)],
                          Expect(0, {"seed": s}, outcome="terminated")))
    return ops


def check_scaling(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for n in range(12, 18):
        ops += _write(fam.call_dag(rng, n), workdir)
    # 13 operations: an odd number puts the median inside one of them, and
    # two draws of the largest chain keep the tail inside one size class.
    for i, k in enumerate((20, 30, 40, 45, 50, 60, 60)):
        ops += _write(fam.session_chain(rng, k), workdir, f"chain-{k}-{i}")
    return ops


def types_scaling(rng: random.Random, workdir: Path) -> list[Op]:
    # 21 operations, 19 of which complete. The median of the completed
    # ones is the middle of three of about 60 ms (shared-14 and the two on
    # dual-800), and p80 falls among three of about 250 ms (shared-16,
    # cascade-600, holding-300), so neither sits on a gap between sizes.
    ops = []
    for n in (100, 200, 400, 600, 800):
        ops += _write(fam.cascade(rng, n), workdir)
    for n in (200, 400, 800):
        # rendering the witness of 400 or more states overflows the stack
        ops += _write(fam.diverging_ladder(rng, n), workdir,
                      known_failure="RecursionError" if n >= 400 else None)
        ops += _write(fam.dual_pair(rng, n), workdir)
    for n in (100, 200, 300, 400):
        ops += _write(fam.holding_ladder(rng, n), workdir)
    for n in (12, 14, 16):
        ops += _write(fam.diverging_ladder(rng, n, shared=True), workdir)
    return ops


# Depth: runs per pass. The median sits inside depth 5 and p80 inside
# depth 6. Two runs of depth 7 take half the time of a pass; their step
# counts vary by about 10% with the seed.
SWARM_MIX = {4: 4, 5: 8, 6: 4, 7: 2}


def run_swarm(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for d, runs in SWARM_MIX.items():
        family = fam.swarm(rng, d, _seeds(rng, runs))
        ops += [op for op in _write(family, workdir) if op.is_run]
    return ops


# Workload: (operations, percentile of `op_tail_ms`). Each percentile
# leaves at least ten samples beyond it in a 20 s run on a slow host, and
# falls inside a group of operations of about the same latency, not on the
# gap between two sizes. It is fixed, not taken from the sample count,
# because a percentile that follows the count moves from one operation size
# to the next whenever the host's speed changes the number of passes in a
# run. On `corpus`, p99 lies beyond every operation's usual latency and
# measures the host's brief stalls: over ten runs it read 2.4 ms when the
# host's speed held and up to 3.4 ms when it changed during the run.
WORKLOADS = {"corpus": (corpus, 95), "check_scaling": (check_scaling, 88),
             "types_scaling": (types_scaling, 80), "run_swarm": (run_swarm, 80)}


def self_check_ops(workdir: Path) -> list[Op]:
    """Every generated family at small sizes, with their expected answers."""
    rng = random.Random(0)
    families = ([fam.call_dag(rng, n) for n in (1, 2, 3)]
                + [fam.session_chain(rng, k) for k in (1, 2, 3)]
                + [fam.swarm(rng, d, [1, 2, 3]) for d in (1, 2)]
                + [fam.cascade(rng, n) for n in (1, 2, 3)]
                + [fam.diverging_ladder(rng, n) for n in (1, 2, 3)]
                + [fam.diverging_ladder(rng, n, shared=True) for n in (1, 2, 3)]
                + [fam.holding_ladder(rng, n) for n in (1, 2, 3)]
                + [fam.dual_pair(rng, n) for n in (1, 2, 3)])
    return [op for f in families for op in _write(f, workdir)]


# -- invoking the CLI ------------------------------------------------------------

def import_fairchk():
    """Import fairchk afresh from the checkout's src/ and return its cli."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "fairchk" or n.startswith("fairchk.")]:
        del sys.modules[name]
    return importlib.import_module("fairchk.cli")


def invoke(cli, op: Op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # counted as a failed operation
            raised = type(exc).__name__
        latency = time.perf_counter() - start
    return Result(start, latency, code, out.getvalue(), raised)


def stable_output(res: Result) -> str:
    """The output with the `timings` block removed, or what was raised."""
    if res.raised is not None:
        return f"raised {res.raised}"
    if '"timings"' not in res.out:
        return res.out
    obj = json.loads(res.out)
    obj.pop("timings", None)
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def wrong_answer(op: Op, res: Result) -> str | None:
    try:
        return op.expect.mismatch(res.code, json.loads(res.out))
    except ValueError:
        return "output is not JSON"
    except (KeyError, TypeError, AttributeError):
        return "output lacks an expected field"


class Tally:
    """Times and outcomes of the invocations of one workload."""

    def __init__(self) -> None:
        # (start, latency, completed) of every invocation
        self.samples: list[tuple[float, float, bool]] = []
        self.failures: dict[str, int] = {}
        self.wrong: list[str] = []
        self.runs: list[tuple[float, float, int]] = []  # start, latency, steps

    def add(self, op: Op, res: Result, reference: str) -> bool:
        """Check one invocation; True when it completed."""
        if res.raised is not None:
            problem = f"raised {res.raised}"
            if res.raised != op.known_failure:
                self.wrong.append(f"{op.label} {op.argv[0]}: {problem}")
        else:
            problem = wrong_answer(op, res)
            if problem is None and stable_output(res) != reference:
                problem = "output differs from the warm-up pass"
            if problem is not None:
                self.wrong.append(f"{op.label} {op.argv[0]}: {problem}")
        self.samples.append((res.start, res.latency, problem is None))
        if problem is not None:
            key = f"{op.label} {op.argv[0]}: {problem}"
            self.failures[key] = self.failures.get(key, 0) + 1
            return False
        if op.is_run:
            self.runs.append((res.start, res.latency, json.loads(res.out)["steps"]))
        return True

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(not ok for _, _, ok in self.samples)


def throughput(samples: list[tuple[float, float, bool]], speed: HostSpeed | None) -> float:
    """Completed invocations per second of time spent invoking, at the
    reference speed, or raw when `speed` is None."""
    spent = sum(lat if speed is None else speed.scaled(t, t + lat)
                for t, lat, _ in samples)
    return sum(ok for _, _, ok in samples) / spent


def loop(cli, ops: list[Op], reference: list[str], seconds: float,
         tally: Tally, speed: HostSpeed, tracer: Tracer | None = None) -> list:
    """Whole passes over `ops` until `seconds` have gone by, at least one;
    returns the samples of the last pass."""
    start = time.perf_counter()
    while True:
        last = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            speed.tick()
            res = invoke(cli, op)
            tally.add(op, res, reference[i])
            last.append(tally.samples[-1])
        if time.perf_counter() - start >= seconds:
            speed.sample()
            return last


def setup(workload: str, seed: int, workdir: Path, speed: HostSpeed):
    """Import, generate, self-check and warm up; returns the elapsed time
    at the reference speed, without the time spent sampling it."""
    speed.sample()
    spent = speed.spent
    start = time.perf_counter()
    cli = import_fairchk()
    ops = WORKLOADS[workload][0](random.Random(f"{workload}:{seed}"), workdir)
    problems = []
    for op in self_check_ops(workdir / "selfcheck"):
        speed.tick()
        res = invoke(cli, op)
        problem = (f"raised {res.raised}" if res.raised is not None
                   else wrong_answer(op, res))
        if problem is not None:
            problems.append(f"self-check {op.label} {op.argv[0]}: {problem}")
    reference = []
    for op in ops:
        speed.tick()
        reference.append(stable_output(invoke(cli, op)))
    end = time.perf_counter()
    speed.sample()
    elapsed = end - start - (speed.spent - speed.kernel_s[-1] - spent)
    return elapsed / speed.factor(start, end), cli, ops, reference, problems


# -- reporting --------------------------------------------------------------------

def end_to_end(tally: Tally, speed: HostSpeed, setup_s: float,
               pct: int) -> dict[str, tuple[float, str]]:
    done = sorted(((lat, speed.scaled(t, t + lat)) for t, lat, ok in tally.samples if ok),
                  key=lambda pair: pair[1])
    n = len(done)
    tail = math.ceil(pct * n / 100) - 1
    scaled = [s for _, s in done]
    raw = sorted(lat for lat, _ in done)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (throughput(tally.samples, speed), "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1000.0, "ms"),
        "op_tail_ms": (scaled[tail] * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    factors = [speed.factor(t, t + lat) for t, lat, _ in tally.samples]
    print(f"host speed: {len(speed.kernel_s)} kernel samples, slowdown against the "
          f"reference {statistics.median(factors):.3f} (median), "
          f"{min(factors):.3f} to {max(factors):.3f}")
    print(f"raw wall clock: ops_per_s {throughput(tally.samples, None):.6g}, "
          f"op_p50_ms {statistics.median(raw) * 1000.0:.6g}, "
          f"op_tail_ms {raw[tail] * 1000.0:.6g}")
    print(f"latencies from the {n} completed of {tally.attempted} invocations; "
          f"op_tail_ms is p{pct}, {n - tail - 1} samples beyond it")
    print(f"error_rate {tally.failed / tally.attempted:.6f} ratio "
          f"({tally.failed} of {tally.attempted})")
    if tally.runs:
        steps = sum(n for _, _, n in tally.runs)
        seconds = sum(speed.scaled(t, t + lat) for t, lat, _ in tally.runs)
        print(f"steps_per_s {steps / seconds:.1f} 1/s "
              f"({steps} steps in {seconds:.3f} s of run invocations)")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fairchk").is_dir() or not (ROOT / "corpus").is_dir():
        print(f"error: no fairchk sources under {ROOT}", file=sys.stderr)
        return 2
    workdir = HERE / "out" / f"{args.workload}-{args.seed}"
    (workdir / "selfcheck").mkdir(parents=True, exist_ok=True)

    speed = HostSpeed()
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        elapsed, cli, ops, reference, problems = setup(args.workload, args.seed,
                                                       workdir, speed)
        setups.append(elapsed)
    print(f"{args.workload}: {len(ops)} operations per pass, seed {args.seed}")
    # A CLI process is short, so it seldom runs a full collection over the
    # interpreter's own objects; freezing them keeps the in-process loop
    # from paying for that every few hundred invocations.
    gc.collect()
    gc.freeze()

    tally = Tally()
    if not args.trace:
        loop(cli, ops, reference, args.seconds, tally, speed)
        metrics = end_to_end(tally, speed, statistics.median(setups),
                             WORKLOADS[args.workload][1])
    else:
        loop(cli, ops, reference, args.seconds / 2, tally, speed)
        untraced = throughput(tally.samples, speed)
        tracer = Tracer()
        uninstall = tracer.install()
        try:
            traced = throughput(loop(cli, ops, reference, 0, tally, speed, tracer),
                                speed)
        finally:
            uninstall()
        tracer.write(workdir / "spans.jsonl")
        if tracer.missing:
            print("not traced, no longer in fairchk: " + ", ".join(tracer.missing))
        print(f"tracing overhead: {untraced:.2f} ops/s untraced, {traced:.2f} ops/s "
              f"traced, {untraced / traced:.3f}x")
        metrics = tracer.metrics()
        counts = {k: tracer.counts[k] for k in DETERMINISTIC_COUNTS}
        print("deterministic counts " + json.dumps(counts, sort_keys=True))
        print(f"runtime.fired_per_enumerated = {tracer.counts['runtime.steps']} steps"
              f" / {tracer.counts['runtime.redexes_enumerated']} redexes enumerated")

    for problem, count in sorted(tally.failures.items()):
        print(f"failed {count}x: {problem}")
    for problem in problems:
        print(problem)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not tally.wrong and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 when the query succeeds or the relation holds, 1 when a check
fails or the relation does not hold, 2 on usage or parse errors. Output is
human-readable by default; --json switches every subcommand to JSON on
stdout. Diagnostics always go to stderr. Color is used only on a terminal
and never when NO_COLOR is set.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
import time

from . import runtime, semantics, subtyping, typecheck
from .surface import Program, SourceError, load
from .types import INF


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _paint(text: str, good: bool) -> str:
    if not _color_enabled():
        return text
    code = "32" if good else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _load_program(path: str) -> Program:
    """Read and load a program, with the cyclic garbage collector paused.

    Loading allocates a tuple per token and an object per syntax node, none
    of which can form a cycle, so the collector's scans over them would find
    nothing. Only the load is paused: argparse's parser and an indented
    `json.dumps` do leave cycles behind.
    """
    collecting = gc.isenabled()
    if collecting:
        gc.disable()
    try:
        return _read_program(path)
    finally:
        if collecting:
            gc.enable()


def _read_program(path: str) -> Program:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text: {exc.reason} at byte {exc.start}",
              file=sys.stderr)
        raise SystemExit(2)
    try:
        return load(text)
    except SourceError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        raise SystemExit(2)


def _named_type(program: Program, name: str) -> int:
    tid = program.typedefs.get(name)
    if tid is None:
        known = ", ".join(sorted(program.typedefs)) or "none"
        print(f"error: no type named {name!r} (defined: {known})", file=sys.stderr)
        raise SystemExit(2)
    return tid


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _print_diagnostics(path: str, definition: dict) -> None:
    for diag in definition["diagnostics"]:
        span = diag["span"]
        print(f"  {path}:{span['line']}:{span['col']}: "
              f"{diag['code']}: {diag['message']}", file=sys.stderr)


def _ms_since(started: float) -> float:
    return round((time.perf_counter() - started) * 1000.0, 3)


def cmd_check(args) -> int:
    started = time.perf_counter()
    program = _load_program(args.file)
    load_ms = _ms_since(started)
    checker = typecheck.Checker(program, infer_branch=args.infer_branch)
    started = time.perf_counter()
    report = checker.run()
    check_ms = _ms_since(started)
    if args.json:
        report["timings"] = {"loadMs": load_ms, "checkMs": check_ms, **checker.timings}
        _emit_json(report)
    else:
        width = max((len(d["name"]) for d in report["definitions"]), default=4)
        for d in report["definitions"]:
            status = _paint(d["status"], d["status"] == "accepted")
            print(f"{d['name']:<{width}}  rank {d['rank']:>4}  {status}")
            _print_diagnostics(args.file, d)
        print(_paint(report["verdict"], report["verdict"] == "accepted"))
    return 0 if report["verdict"] == "accepted" else 1


def cmd_subtype(args) -> int:
    program = _load_program(args.file)
    s = _named_type(program, args.sub)
    t = _named_type(program, args.sup)
    verdict = subtyping.fair_subtype(program.table, s, t)
    if args.json:
        _emit_json(verdict.to_json(program.table))
    elif verdict.holds:
        print(f"holds, weight {subtyping.render_weight(verdict.weight)}")
    else:
        kind, (u, v), detail = verdict.failure  # type: ignore[misc]
        where = f"({program.table.render(u)}, {program.table.render(v)})"
        if kind == "diverges":
            print(f"fails: divergence at {where}")
        else:
            print(f"fails: not simulated at {where}: {detail}")
    return 0 if verdict.holds else 1


def cmd_compatible(args) -> int:
    program = _load_program(args.file)
    s = _named_type(program, args.left)
    t = _named_type(program, args.right)
    ok = semantics.compatible(program.table, s, t)
    if args.json:
        _emit_json({"compatible": ok})
    else:
        print("compatible" if ok else "incompatible")
    return 0 if ok else 1


def cmd_rank(args) -> int:
    program = _load_program(args.file)
    s = _named_type(program, args.left)
    t = _named_type(program, args.right)
    rank = semantics.session_rank(program.table, s, t)
    if args.json:
        _emit_json({"rank": subtyping.render_weight(rank)})
    else:
        print(subtyping.render_weight(rank))
    return 0 if rank < INF else 1


def cmd_graph(args) -> int:
    program = _load_program(args.file)
    s = _named_type(program, args.left)
    t = _named_type(program, args.right)
    g = semantics.build_config_graph(program.table, s, t)
    print(semantics.to_dot(program.table, g))
    return 0


def cmd_run(args) -> int:
    program = _load_program(args.file)
    if not args.unsafe:
        report = typecheck.check_program(program)
        if report["verdict"] != "accepted":
            print("program rejected by the checker; use --unsafe to run anyway",
                  file=sys.stderr)
            for d in report["definitions"]:
                _print_diagnostics(args.file, d)
            return 1
    try:
        outcome = runtime.run(program, seed=args.seed, max_steps=args.max_steps,
                              want_trace=args.trace or args.trace_json)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for entry in outcome.trace:
        print(entry.line() if args.trace else json.dumps(entry.to_json()))
    if args.json:
        report = {"outcome": outcome.kind, "steps": outcome.steps, "seed": args.seed}
        if args.stats:
            report["stats"] = outcome.stats
        _emit_json(report)
    else:
        label = f"{outcome.kind} after {outcome.steps} steps (seed {args.seed})"
        print(_paint(label, outcome.kind == "terminated"))
        if args.stats:
            stats = outcome.stats
            fired = ", ".join(f"{rule} {n}" for rule, n in stats["rules"].items() if n)
            print(f"peak threads {stats['peakThreads']}, sessions opened "
                  f"{stats['sessionsOpened']}, rules fired: {fired or 'none'}")
        for line in outcome.dump:
            print(f"  {line}", file=sys.stderr)
    return 0 if outcome.kind == "terminated" else 1


def integer(text: str) -> int:
    """An argparse type: ASCII digits, with an optional leading '-'.

    `int` alone also takes other scripts' digits, `_` and spaces, none of
    which the lexer admits in a source file.
    """
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(text)
    return int(text)


def natural(text: str) -> int:
    """An argparse type: a whole number, 0 or more."""
    n = integer(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairchk",
        description="Checker and interpreter for fair-termination session types.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="type-check a program and report ranks")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--infer-branch", action="store_true",
                   help="flip choice markers when the other branch checks better")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("subtype", help="decide fair subtyping between two named types")
    p.add_argument("file")
    p.add_argument("sub")
    p.add_argument("sup")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_subtype)

    p = sub.add_parser("compatible", help="decide compatibility of two named types")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compatible)

    p = sub.add_parser("rank", help="session rank of a pair of named types")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("run", help="execute a program under the random scheduler")
    p.add_argument("file")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--max-steps", type=natural, default=100_000)
    p.add_argument("--trace", action="store_true",
                   help="print one line per applied rule")
    p.add_argument("--trace-json", action="store_true",
                   help="print the trace as JSON lines")
    p.add_argument("--unsafe", action="store_true",
                   help="skip the checker before running")
    p.add_argument("--stats", action="store_true",
                   help="report rules fired, peak live threads and sessions opened")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("graph", help="emit the configuration graph of a type pair")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--emit-graph", choices=["dot"], default="dot")
    p.set_defaults(fn=cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end tests through the argparse front end.

Each test calls main() with a constructed argv and inspects exit code,
stdout, and stderr. Exit code contract: 0 success/holds, 1 fails/rejected,
2 usage or parse errors.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from conftest import CORPUS, corpus_path
from fairchk import cli, load
from fairchk.cli import _color_enabled, build_parser, main
from fairchk.surface import MAX_NESTING
from gen import NESTED_SOURCES, deepest_admitted, diverging_source, shared_ladder_source
from json_schema import CHECK, COMPATIBLE, RANK, RUN, SUBTYPE, TRACE_ENTRY, validate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- check


def test_check_accepted_exits_zero(capsys):
    code, out, err = run_cli(capsys, "check", corpus_path("bsc"))
    assert code == 0
    assert "accepted" in out
    assert "Main" in out
    assert err == ""


def test_check_rejected_exits_one(capsys):
    code, out, err = run_cli(capsys, "check", corpus_path("fwd"))
    assert code == 1
    assert "rejected" in out
    assert "E-" in err


def test_check_json_shape_and_timings(capsys):
    code, out, err = run_cli(capsys, "check", "--json", corpus_path("bsc"))
    assert code == 0
    report = json.loads(out)
    validate(report, CHECK)
    assert "timings" in report
    assert report["timings"]["checkMs"] >= 0
    timings = report["timings"]
    assert set(timings) == {"loadMs", "checkMs", "typingMs", "safetyMs", "ranksMs",
                            "boundsMs", "inferMs"}
    assert all(v >= 0 for v in timings.values())
    assert timings["inferMs"] == 0
    # loading the file comes before the checker, so it is outside checkMs
    passes = sum(v for k, v in timings.items() if k not in ("loadMs", "checkMs"))
    assert passes <= timings["checkMs"] + 0.01
    code, out, err = run_cli(capsys, "check", "--json", "--infer-branch",
                             corpus_path("infinite_sessions"))
    validate(json.loads(out), CHECK)
    assert json.loads(out)["timings"]["inferMs"] > 0


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.ft")))
def test_check_json_validates_for_every_corpus_file(capsys, name):
    code, out, err = run_cli(capsys, "check", "--json", corpus_path(name))
    report = json.loads(out)
    validate(report, CHECK)
    assert code == (0 if report["verdict"] == "accepted" else 1)


def test_check_human_ranks_column(capsys):
    code, out, err = run_cli(capsys, "check", corpus_path("bsc"))
    lines = out.strip().splitlines()
    assert lines[-1] == "accepted"
    ranks = {}
    for line in lines[:-1]:
        name, _, rest = line.partition("  rank ")
        ranks[name.strip()] = rest.split()[0]
    assert ranks == {"Buyer": "0", "Seller": "0", "Carrier": "0", "Main": "3"}


# ---------------------------------------------------------------- errors


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ft"
    bad.write_text("Main() = close close\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(bad)])
    assert exc.value.code == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("shape", sorted(NESTED_SOURCES))
def test_nesting_bound(shape, tmp_path, capsys):
    # the deepest admitted program passes every pass after the parser; one
    # level more, or far more, is a parse error and not a RecursionError
    source = NESTED_SOURCES[shape]
    n = deepest_admitted(source)
    path = tmp_path / "deep.ft"
    path.write_text(source(n), encoding="utf-8")
    assert run_cli(capsys, "check", str(path))[0] == 0
    assert run_cli(capsys, "check", "--json", "--infer-branch", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "run", "--json", str(path))
    assert code == 0 and json.loads(out)["outcome"] == "terminated"
    for deeper in (n + 1, 4 * MAX_NESTING):
        path.write_text(source(deeper), encoding="utf-8")
        for cmd in ("check", "run"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, str(path)])
            assert exc.value.code == 2
            assert f"nesting deeper than {MAX_NESTING} levels" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "/nonexistent/nowhere.ft"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["check"], ["subtype", "A", "B"], ["compatible", "A", "B"],
                                  ["rank", "A", "B"], ["graph", "A", "B"], ["run"]])
def test_non_utf8_source_exits_two(argv, tmp_path, capsys):
    path = tmp_path / "latin.ft"
    path.write_bytes(b"Main() = done\n\xff")
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(path)] + argv[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: not UTF-8 text: invalid start byte at byte 14\n"


def test_negative_max_steps_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", corpus_path("bsc"), "--max-steps", "-3"])
    assert exc.value.code == 2
    assert "argument --max-steps: must be 0 or more, got -3" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "run", corpus_path("bsc"), "--max-steps", "0")
    assert code == 1 and out == "step-limit after 0 steps (seed 0)\n"


@pytest.mark.parametrize("n", [20, 200])
def test_leak_ladder_diagnostic_is_linear(n, tmp_path, capsys):
    # unfolded, the unused channel's type would take 2^n copies of the loop
    path = tmp_path / "ladder.ft"
    path.write_text(shared_ladder_source(n), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 1
    body = lambda i: f"!{{a: A{(i + 1) % n}, b: A{(i + 1) % n}, c: end!}}"
    shown = f"{body(0)} where " + ", ".join(f"A{i} = {body(i)}" for i in range(1, n))
    assert err == (f"  {path}:{n + 1}:12: E-CONTEXT-LEAK: "
                   f"unconsumed channels: x: {shown}\n")
    assert len(err) < 50 * n + len(str(path))


def test_unknown_type_name_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["subtype", corpus_path("bsc"), "SB", "NoSuchType"])
    assert exc.value.code == 2
    assert "NoSuchType" in capsys.readouterr().err


def _collector_cases(tmp_path):
    """(argv, exit code) of each way main can end after or inside a load."""
    bad = tmp_path / "bad.ft"
    bad.write_text("Main() = close close\n")
    latin = tmp_path / "latin.ft"
    latin.write_bytes(b"Main() = done\n\xff")
    return [(["check", corpus_path("bsc")], 0), (["check", corpus_path("fwd")], 1),
            (["check", str(bad)], 2), (["check", str(latin)], 2),
            (["check", str(tmp_path / "missing.ft")], 2), (["check", "--no-such-flag"], 2)]


def _set_collector(on):
    if on:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored(enabled, tmp_path, capsys, monkeypatch):
    # the load runs with the collector paused, whatever the state before
    during = []

    def watched_load(text):
        during.append(gc.isenabled())
        return load(text)

    load = cli.load
    monkeypatch.setattr(cli, "load", watched_load)
    was = gc.isenabled()
    try:
        for argv, want in _collector_cases(tmp_path):
            _set_collector(enabled)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code == want, argv
            assert gc.isenabled() is enabled, argv
    finally:
        _set_collector(was)
    capsys.readouterr()
    assert during == [False] * 3


def test_no_subcommand_adds_to_the_loaded_type_table(monkeypatch):
    # `check`, with and without branch inference, on every corpus file,
    # and the four pair questions on every ordered pair of its typedefs:
    # each leaves the table's nodes and its hash-cons map as `load` built them
    loaded = []

    def load_and_keep(text):
        program = load(text)
        loaded.append((program.table, list(program.table.nodes), dict(program.table._cons)))
        return program

    monkeypatch.setattr(cli, "load", load_and_keep)
    runs = Counter()
    for path in sorted(CORPUS.glob("*.ft")):
        file = str(path)
        names = sorted(load(path.read_text(encoding="utf-8")).typedefs)
        argvs = [["check", file], ["check", file, "--infer-branch"]]
        argvs += [[command, file, a, b] for a in names for b in names
                  for command in ("subtype", "compatible", "rank", "graph")]
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    main(argv)
                except SystemExit:
                    pass
            table, nodes, cons = loaded.pop()
            assert table.nodes == nodes and table._cons == cons, argv
            runs[argv[0]] += 1
    assert runs["check"] == 20 and runs["graph"] >= 192, runs


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------- the parser
#
# `main` declares only the subcommand its argv names first. The parser with
# all six, `build_parser()`, is the oracle for every call.


def _declared(parser) -> dict:
    """Subcommand name -> subparser, for the subcommands parser declares."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _options(parser) -> set[str]:
    """The option strings of parser, help left out."""
    return {s for a in parser._actions if not isinstance(a, argparse._HelpAction)
            for s in a.option_strings}


def _outcome(parse, argv) -> tuple:
    """The namespace, or the exit code, then stdout and stderr of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _parser_shapes(name: str) -> list[list[str]]:
    """Argvs for subcommand name: help, missing and extra positionals, flags
    it lacks, bad values, and one call with every flag it has."""
    declared = _declared(build_parser())
    positionals = [a for a in declared[name]._actions if not a.option_strings]
    whole = [name, *["f.ft", "A", "B"][:len(positionals)]]
    foreign = set().union(*map(_options, declared.values())) - _options(declared[name])
    every = [s for a in declared[name]._actions
             if a.option_strings and not isinstance(a, argparse._HelpAction)
             for s in ([a.option_strings[0]] if a.nargs == 0 else [a.option_strings[0], "7"])]
    shapes = [[name, "-h"], [name, "--help"], [name, "--json", "-h"], [*whole, "-h"],
              [name], whole[:-1], whole, [*whole, "extra"], [*whole, "--bogus"],
              [*whole, "--seed", "x1"], [*whole, "--seed", "-3"], [*whole, "--max-steps", "-1"],
              [*whole, *every], *([*whole, flag] for flag in sorted(foreign))]
    return list(map(list, dict.fromkeys(map(tuple, shapes))))


@pytest.mark.parametrize("columns", [40, 80, 200])
@pytest.mark.parametrize("name", [name for name, *_ in cli.COMMANDS])
def test_the_one_command_parser_matches_the_full_parser(name, columns, monkeypatch):
    # argparse wraps help and usage to $COLUMNS; the top-level usage line of
    # an "unrecognized arguments" error names every subcommand only through
    # the metavar
    monkeypatch.setenv("COLUMNS", str(columns))
    for argv in _parser_shapes(name):
        one = build_parser(argv)
        assert list(_declared(one)) == [name]
        got = _outcome(one.parse_args, argv)
        assert got == _outcome(build_parser().parse_args, argv), argv


@pytest.mark.parametrize("columns", [40, 80, 200])
def test_top_level_calls_match_the_full_parser(columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", str(columns))
    for argv in [[], ["-h"], ["--help"], ["bogus"], ["Check"], ["bogus", "f.ft"], ["-h", "run"]]:
        assert _outcome(main, argv) == _outcome(build_parser().parse_args, argv), argv


def test_main_declares_only_the_command_it_runs(capsys, monkeypatch):
    built = []

    def watched(argv):
        parser = build(argv)
        built.append(list(_declared(parser)))
        return parser

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", watched)
    monkeypatch.setattr(sys, "argv", ["fairchk", "rank", corpus_path("rank_example"), "S4", "T4"])
    assert main() == 0
    assert main(["check", corpus_path("bsc")]) == 0
    with pytest.raises(SystemExit):
        main(["Check", corpus_path("bsc")])
    assert built == [["rank"], ["check"], [name for name, *_ in cli.COMMANDS]]
    capsys.readouterr()


# ---------------------------------------------------------------- subtype


def test_subtype_holds_message(capsys):
    code, out, err = run_cli(capsys, "subtype", corpus_path("bsc"), "SB", "SB'")
    assert code == 0
    assert out.strip() == "holds, weight 1"


def test_subtype_divergence_message(capsys):
    code, out, err = run_cli(capsys, "subtype", corpus_path("bsc"), "SB", "SBi")
    assert code == 1
    assert out.startswith("fails: divergence at (")


def test_subtype_not_simulated_message(capsys):
    code, out, err = run_cli(capsys, "subtype", corpus_path("bsc"), "SS", "SB")
    assert code == 1
    assert out.startswith("fails: not simulated at (")


def test_subtype_json(capsys):
    code, out, err = run_cli(capsys, "subtype", "--json",
                             corpus_path("bsc"), "SB", "SB'")
    verdict = json.loads(out)
    validate(verdict, SUBTYPE)
    assert verdict["holds"] is True
    assert verdict["weight"] == 1
    assert verdict["simulationSize"] == 3


def test_subtype_json_failure_carries_pair(capsys):
    code, out, err = run_cli(capsys, "subtype", "--json",
                             corpus_path("bsc"), "SB", "SBi")
    verdict = json.loads(out)
    validate(verdict, SUBTYPE)
    assert verdict["holds"] is False
    assert verdict["failure"] == "diverges"
    assert len(verdict["offendingPair"]) == 2


def test_subtype_deep_divergence_renders_without_recursion(tmp_path, capsys):
    # rendering the offending pair unfolds the whole 1600-state loop
    path = tmp_path / "ladder.ft"
    path.write_text(diverging_source(1600), encoding="utf-8")
    code, out, err = run_cli(capsys, "subtype", "--json", str(path), "U0", "V0")
    verdict = json.loads(out)
    validate(verdict, SUBTYPE)
    assert code == 1 and err == ""
    assert verdict["failure"] == "diverges" and verdict["simulationSize"] == 1600
    sub, sup = verdict["offendingPair"]
    assert sub.count("b: end!") == 1600 and sup.endswith("}" * 1600)
    code, out, err = run_cli(capsys, "subtype", str(path), "U0", "V0")
    assert code == 1 and err == ""
    assert out == f"fails: divergence at ({sub}, {sup})\n"


# ------------------------------------------------- compatible and rank


def test_compatible_yes(capsys):
    code, out, err = run_cli(capsys, "compatible", corpus_path("slot"), "R", "S")
    assert code == 0
    assert out.strip() == "compatible"


def test_compatible_no(capsys):
    code, out, err = run_cli(capsys, "compatible", corpus_path("slot"), "R", "T")
    assert code == 1
    assert out.strip() == "incompatible"


def test_compatible_json(capsys):
    for other, answer in (("S", True), ("T", False)):
        code, out, err = run_cli(capsys, "compatible", "--json",
                                 corpus_path("slot"), "R", other)
        assert code == (0 if answer else 1)
        validate(json.loads(out), COMPATIBLE)
        assert json.loads(out) == {"compatible": answer}


def test_rank_finite(capsys):
    code, out, err = run_cli(capsys, "rank", corpus_path("rank_example"),
                             "S4", "T4")
    assert code == 0
    assert out.strip() == "4"


def test_rank_infinite(capsys):
    code, out, err = run_cli(capsys, "rank", corpus_path("slot"), "R", "T")
    assert code == 1
    assert out.strip() == "inf"


def test_rank_json(capsys):
    code, out, err = run_cli(capsys, "rank", "--json",
                             corpus_path("rank_example"), "S4", "T4")
    payload = json.loads(out)
    validate(payload, RANK)
    assert payload == {"rank": 4}


# ---------------------------------------------------------------- graph


def test_graph_emits_dot(capsys):
    code, out, err = run_cli(capsys, "graph", corpus_path("bsc"), "SB", "SS")
    assert code == 0
    assert out.startswith("digraph")
    assert "doublecircle" in out


# ------------------------------------------------------------------ run


def test_run_json_golden(capsys):
    code, out, err = run_cli(capsys, "run", "--json", "--seed", "1",
                             corpus_path("bsc"))
    assert code == 0
    payload = json.loads(out)
    validate(payload, RUN)
    assert payload == {"outcome": "terminated", "steps": 11, "seed": 1}


def test_run_human_label(capsys):
    code, out, err = run_cli(capsys, "run", "--seed", "1", corpus_path("bsc"))
    assert code == 0
    assert out.strip() == "terminated after 11 steps (seed 1)"


def test_run_trace_lines(capsys):
    code, out, err = run_cli(capsys, "run", "--seed", "1", "--trace",
                             corpus_path("bsc"))
    lines = out.strip().splitlines()
    trace, label = lines[:-1], lines[-1]
    assert len(trace) == 11
    assert all(len(line.split("\t")) == 4 for line in trace)
    assert label.startswith("terminated")


def test_run_trace_json_lines(capsys):
    code, out, err = run_cli(capsys, "run", "--seed", "1", "--trace-json",
                             "--json", corpus_path("bsc"))
    lines = out.strip().splitlines()
    for line in lines[:11]:
        validate(json.loads(line), TRACE_ENTRY)
    payload = json.loads("".join(lines[11:]))
    assert payload["steps"] == 11


def test_run_rejected_program_refuses(capsys):
    code, out, err = run_cli(capsys, "run", corpus_path("fwd"))
    assert code == 1
    assert "--unsafe" in err


def test_run_unsafe_skips_checker(capsys):
    code, out, err = run_cli(capsys, "run", "--unsafe", "--seed", "1",
                             corpus_path("bsc"))
    assert code == 0


def test_run_unsafe_hits_step_limit(capsys):
    code, out, err = run_cli(capsys, "run", "--unsafe", "--max-steps", "50",
                             corpus_path("finite_unfair"))
    assert code == 1
    assert "step-limit" in out


def test_run_unsafe_pick_on_unbound_channel_blocks(tmp_path, capsys):
    # the machine picks its answer on a channel it does not hold
    text = (CORPUS / "slot.ft").read_text(encoding="utf-8")
    assert "x!{win:" in text
    src = tmp_path / "slot_unbound.ft"
    src.write_text(text.replace("x!{win:", "y!{win:"))
    for seed in range(8):
        code, out, err = run_cli(capsys, "run", "--unsafe", "--seed", str(seed),
                                 str(src))
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert "stuck" in out


def test_run_without_main_exits_two(tmp_path, capsys):
    src = tmp_path / "nomain.ft"
    src.write_text("A() = done\n")
    code = main(["run", "--unsafe", str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert "Main" in captured.err


def test_run_json_stats(capsys):
    code, out, err = run_cli(capsys, "run", "--json", "--stats", "--seed", "1",
                             corpus_path("bsc"))
    assert code == 0
    payload = json.loads(out)
    validate(payload, RUN)
    assert payload["stats"]["rules"]["rb-par"] == payload["stats"]["sessionsOpened"] == 2
    assert payload["stats"]["peakThreads"] == 3
    assert sum(payload["stats"]["rules"].values()) == payload["steps"] == 11


@pytest.mark.parametrize("name", ["bsc", "slot", "delegation", "infinite_sessions",
                                  "finite_unfair"])
def test_run_json_stats_validates_for_every_runnable_file(capsys, name):
    code, out, err = run_cli(capsys, "run", "--unsafe", "--json", "--stats",
                             "--max-steps", "300", corpus_path(name))
    validate(json.loads(out), RUN)


def test_run_stats_human_line(capsys):
    code, out, err = run_cli(capsys, "run", "--stats", "--seed", "1", corpus_path("bsc"))
    assert code == 0
    assert out.splitlines() == [
        "terminated after 11 steps (seed 1)",
        "peak threads 3, sessions opened 2, rules fired: rb-cast 1, rb-par 2, "
        "rb-pick 1, rb-signal 2, rb-tag 2, sb-call 3"]


def test_a_closed_stdout_exits_two_without_a_traceback(tmp_path):
    # the trace is about 2 MB, and the reader closes after its first line
    (tmp_path / "loop.ft").write_text("Main() = Main()\n")
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "fairchk.cli", "run", str(tmp_path / "loop.ft"), "--unsafe",
         "--trace", "--max-steps", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.readline() == b"0\tsb-call\t-\tMain\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == b""


def test_import_loads_neither_dataclasses_nor_typing():
    # without `site`, which may import typing itself
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import fairchk.cli; "
         "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))", str(src)],
        capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


# ---------------------------------------------------------------- color


def test_color_disabled_by_no_color(monkeypatch):
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    monkeypatch.setenv("NO_COLOR", "1")
    assert not _color_enabled()
    monkeypatch.delenv("NO_COLOR")
    assert _color_enabled()


def test_no_escape_codes_when_not_a_tty(capsys):
    code, out, err = run_cli(capsys, "check", corpus_path("bsc"))
    assert "\x1b[" not in out

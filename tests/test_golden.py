"""Pinned CLI output, with every printed `line:col` in it, and pinned
printer output.

golden_check.json holds, for every corpus file and for the hand-written
rejected programs below, the exit code and output of `check --json` (with
`timings` removed, diagnostic spans kept), `check --infer-branch --json`
and the text `check`, whose stderr prints `path:line:col` for each
diagnostic. It also holds the stderr of `check` on each source of
`test_parse_errors` and `test_resolve_errors`. Paths are written as
`<file>`.

golden_render.json holds `TypeTable.render` of every node of the corpus
and of the shared and diverging ladders at a few sizes, once at the real
`RENDER_LIMIT` and once at a small one, so that both the unfolding and the
equation form are pinned. It also holds `render_program` of the corpus and
of each `NESTED_SOURCES` shape at depths up to the deepest the parser
admits.

golden_run.json holds the exit code, stdout and stderr of `run`: `--trace`,
`--trace-json` and `--json --stats` on the runnable corpus programs at
seeds 0-7; `--unsafe --trace` on every corpus file and on the stuck
programs below at seeds 0-3, with the dump of every thread left; and the
usage errors of `run`. Paths are written as `<file>`.

The files change only with the output contract. After such a change,
regenerate them from the root of the checkout with

    PYTHONPATH=src:tests python tests/test_golden.py --write
"""

import contextlib
import io
import json
import pathlib
import re
import sys
import tempfile
from unittest import mock

from fairchk import types
from fairchk.cli import main
from fairchk.surface import load, parse, render_program

from conftest import CORPUS, RUNNABLE, corpus_path
from gen import NESTED_SOURCES, deepest_admitted, diverging_source, shared_ladder_source
from test_surface import PARSE_ERRORS, RESOLVE_ERRORS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_check.json"
RENDER_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_render.json"
RUN_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_run.json"

# Rejected programs whose diagnostics sit past comments, blank lines, tabs,
# carriage returns and on later lines of a definition.
REJECTED = {
    "labels-after-comments": (
        "-- a session one side never waits on\n"
        "\n"
        "type S = !{a: end!, b: end!}   -- two labels\n"
        "Main() = new x: S / ?{a: end?, b: end?} in\n"
        "\t(x!a. close x | x?{a: done, b: wait x. done})\n"),
    "leak": (
        "-- the right side never waits\n"
        "Main() = new x: end! / end? in\n"
        "  (close x |\n"
        "   done)\n"),
    "mismatch-crlf": (
        "type S = !{a: end!}\r\n"
        "P(x: S) = x!b. close x\r\n"
        "Q(y: end?) =\r\n"
        "    close y\r\n"
        "Main() = done -- trailing comment"),
    "unbound-and-arity": (
        "T(x: end!) = close x\n"
        "U() = close z\n"
        "Main() = new x: end! / end? in (T() | wait x. done)\n"),
    "incompatible": (
        "type L = !{a: end!}  type R = ?{b: end?}\n"
        "Main() =\n"
        "  new x: L / R in (x!a. close x | x?{b: wait x. done})\n"),
    "rank-and-weight": (
        "type SB = !{a: end!, b: end!}\n"
        "type SBa = !{a: end!}\n"
        "type CB = ?{a: end?, b: end?}\n"
        "Main() @ 0 = new x: SB / CB in\n"
        "  ([x: SBa @0] x!a. close x | x?{a: wait x. done, b: wait x. done})\n"),
    "unbounded-loop": (
        "A() = A()      -- no way out\n"
        "B(x: end!) = B(x) +[2] close x\n"
        "Main() = done\n"),
}


def _run(argv: list[str], path: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    got: dict = {"code": code, "stderr": err.getvalue().replace(path, "<file>")}
    if "--json" in argv and out.getvalue():
        report = json.loads(out.getvalue())
        report.pop("timings", None)
        got["json"] = report
    else:
        got["stdout"] = out.getvalue().replace(path, "<file>")
    return got


def _checks(path: str) -> dict:
    return {"check --json": _run(["check", path, "--json"], path),
            "check --infer-branch --json": _run(["check", path, "--infer-branch", "--json"],
                                                path),
            "check": _run(["check", path], path)}


def collect() -> dict:
    """What the golden file pins, computed by the code under test."""
    golden: dict = {"corpus": {}, "rejected": {}, "parse_errors": {}, "resolve_errors": {}}
    for path in sorted(CORPUS.glob("*.ft")):
        golden["corpus"][path.name] = _checks(corpus_path(path.name))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "prog.ft")
        for name, text in REJECTED.items():
            pathlib.Path(path).write_bytes(text.encode("utf-8"))
            golden["rejected"][name] = _checks(path)
        for group, sources in (("parse_errors", PARSE_ERRORS),
                               ("resolve_errors", RESOLVE_ERRORS)):
            for text in sources:
                pathlib.Path(path).write_bytes(text.encode("utf-8"))
                golden[group][text] = _run(["check", path], path)
    return golden


def test_check_output_matches_the_golden_file():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = collect()
    assert set(got) == set(want)
    for group in want:
        assert set(got[group]) == set(want[group]), group
        for name in want[group]:
            assert got[group][name] == want[group][name], (group, name)


def test_the_golden_file_covers_every_diagnostic_position():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    codes = {diag["code"]
             for group in ("corpus", "rejected") for entry in want[group].values()
             for d in entry["check --json"]["json"]["definitions"]
             for diag in d["diagnostics"]}
    assert codes >= {"E-CONTEXT-LEAK", "E-TYPE-MISMATCH", "E-UNBOUND-NAME",
                     "E-INCOMPATIBLE", "E-SUBTYPE", "E-WEIGHT-EXCEEDED",
                     "E-RANK-EXCEEDED", "E-UNSAFE-LOOP", "E-INFINITE-RANK",
                     "E-UNBOUNDED-ACTION"}, codes
    errors = [e["stderr"] for group in ("parse_errors", "resolve_errors")
              for e in want[group].values()]
    assert len(errors) == len(PARSE_ERRORS) + len(RESOLVE_ERRORS)
    assert all(e.startswith("<file>:") and e.count(":") >= 3 for e in errors)


def _render_sources() -> dict[str, str]:
    """Source name -> text: the corpus, then the ladders at a few sizes."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(CORPUS.glob("*.ft"))}
    for n in (1, 2, 5, 9, 12, 16):
        sources[f"shared_ladder {n}"] = shared_ladder_source(n)
    for n in (1, 3, 40):
        sources[f"diverging {n}"] = diverging_source(n)
    return sources


def collect_renders() -> dict:
    """What golden_render.json pins, printed by the code under test."""
    golden: dict = {}
    tables = {name: load(text).table for name, text in _render_sources().items()}
    for budget in (types.RENDER_LIMIT, 64):
        with mock.patch.object(types, "RENDER_LIMIT", budget):
            golden[f"render at {budget}"] = {
                name: [table.render(i) for i, n in enumerate(table.nodes) if n is not None]
                for name, table in tables.items()}
    programs = {path.name: render_program(parse(path.read_text(encoding="utf-8")))
                for path in sorted(CORPUS.glob("*.ft"))}
    for shape, source in sorted(NESTED_SOURCES.items()):
        for n in sorted({1, 2, 17, deepest_admitted(source)}):
            programs[f"{shape} {n}"] = render_program(parse(source(n)))
    golden["render_program"] = programs
    return golden


def test_printers_match_the_golden_file():
    want = json.loads(RENDER_GOLDEN.read_text(encoding="utf-8"))
    got = collect_renders()
    assert set(got) == set(want)
    for group in want:
        assert set(got[group]) == set(want[group]), group
        for name in want[group]:
            assert got[group][name] == want[group][name], (group, name)


def test_the_render_golden_file_holds_both_forms():
    want = json.loads(RENDER_GOLDEN.read_text(encoding="utf-8"))
    for group in ("render at 4096", "render at 64"):
        texts = [t for ts in want[group].values() for t in ts]
        assert any(" where " in t for t in texts), group
        assert any(len(t) > 64 and " where " not in t for t in texts), group


# Programs that get stuck, each for another reason, so that the dump of
# every kind of blocked thread is pinned: a picked output prints as its
# one branch.
STUCK = {
    "two-closers": "Main() = new x: end! / end! in (close x | close x)\n",
    "picked-output": (
        "type S = !{a: end!, b: end!}\n"
        "Main() = new x: S / ?{c: end?} in\n"
        "  (x!{a: close x +[1] close x, b: close x} | x?{c: wait x. done})\n"),
    "missing-handle": "Main() = wait y. done\n",
    "unbound-payload": (
        "Main() = new x: end! / end? in\n"
        "  (x!(y). close x | x?(z: end!). wait x. done)\n"),
    "unbound-argument": "P(a: end!) = close a\nMain() = P(b)\n",
    "unbound-cast": "Main() = [y: end!] done\n",
    "unbound-pick": "Main() = y!{a: done, b: done}\n",
    "shared-handle": (
        "Main() = new x: end! / end? in\n"
        "  (new y: end! / end? in (close x | wait y. close x) | wait x. done)\n"),
}

# `run` calls that exit with a usage error, a missing file or a `Main` that
# cannot run; "<prog>" is a file that holds PARAMS_MAIN.
PARAMS_MAIN = "Main(x: end!) = close x\n"
RUN_ERRORS = {
    "bad seed": ["run", "<bsc>", "--seed", "x1"],
    "negative max-steps": ["run", "<bsc>", "--max-steps", "-1"],
    "missing file": ["run", "<missing>"],
    "Main with parameters": ["run", "<prog>"],
    "Main with parameters, unsafe": ["run", "<prog>", "--unsafe"],
}


def _runs(path: str, flag_sets: list[list[str]], seeds) -> dict:
    return {f"{' '.join(flags)} --seed {seed}":
            _run(["run", path, *flags, "--seed", str(seed)], path)
            for flags in flag_sets for seed in seeds}


def collect_runs() -> dict:
    """What golden_run.json pins, computed by the code under test. Every
    `--unsafe` run stops at 200 steps, so that a run that never ends is
    pinned by its first steps and its dump."""
    golden: dict = {"runnable": {}, "unsafe": {}, "stuck": {}, "errors": {}}
    unsafe = [["--unsafe", "--trace", "--max-steps", "200"]]
    for name in RUNNABLE:
        golden["runnable"][name] = _runs(
            corpus_path(name), [["--trace"], ["--trace-json"], ["--json", "--stats"]],
            range(8))
    for path in sorted(CORPUS.glob("*.ft")):
        golden["unsafe"][path.name] = _runs(str(path), unsafe, range(4))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "prog.ft")
        for name, text in STUCK.items():
            pathlib.Path(path).write_bytes(text.encode("utf-8"))
            golden["stuck"][name] = _runs(path, unsafe, range(4))
        pathlib.Path(path).write_bytes(PARAMS_MAIN.encode("utf-8"))
        missing = str(pathlib.Path(tmp) / "missing.ft")
        for name, argv in RUN_ERRORS.items():
            argv = [{"<bsc>": corpus_path("bsc"), "<prog>": path,
                     "<missing>": missing}.get(a, a) for a in argv]
            got = _run(argv, argv[1])
            # argparse wraps its usage lines to the terminal's width
            got["stderr"] = re.sub(r"^usage: .*?^(?=fairchk run: )", "<usage>\n",
                                   got["stderr"], flags=re.S | re.M)
            golden["errors"][name] = got
    return golden


def test_run_output_matches_the_golden_file():
    want = json.loads(RUN_GOLDEN.read_text(encoding="utf-8"))
    got = collect_runs()
    assert set(got) == set(want)
    for group in want:
        assert set(got[group]) == set(want[group]), group
        for name in want[group]:
            assert got[group][name] == want[group][name], (group, name)


def test_the_run_golden_file_holds_every_outcome():
    want = json.loads(RUN_GOLDEN.read_text(encoding="utf-8"))
    outs = [r.get("stdout", "") for group in ("runnable", "unsafe", "stuck")
            for runs in want[group].values() for r in runs.values()]
    for kind in ("terminated after", "step-limit after", "stuck after"):
        assert any(kind in out for out in outs), kind
    for rule in ("rb-choice", "sb-call", "rb-cast", "rb-par",
                 "rb-pick", "rb-signal", "rb-tag", "rb-channel"):
        assert any(f"\t{rule}\t" in out for out in outs), rule
    dumps = [r["stderr"] for runs in want["stuck"].values() for r in runs.values()]
    assert any("x!a. (close x +[1] close x)" in d for d in dumps)
    assert all(e["code"] == 2 for e in want["errors"].values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    RENDER_GOLDEN.write_text(json.dumps(collect_renders(), indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    RUN_GOLDEN.write_text(json.dumps(collect_runs(), indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")

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

The files change only with the output contract. After such a change,
regenerate them from the root of the checkout with

    PYTHONPATH=src:tests python tests/test_golden.py --write
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
from unittest import mock

from fairchk import types
from fairchk.cli import main
from fairchk.surface import load, parse, render_program

from conftest import CORPUS, corpus_path
from gen import NESTED_SOURCES, deepest_admitted, diverging_source, shared_ladder_source
from test_surface import PARSE_ERRORS, RESOLVE_ERRORS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_check.json"
RENDER_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_render.json"

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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    RENDER_GOLDEN.write_text(json.dumps(collect_renders(), indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")

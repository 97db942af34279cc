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

golden_cli.json holds the exit code, stdout and stderr of the type
questions: `subtype`, `subtype --json`, `compatible --json` and
`rank --json` on every ordered pair of typedefs of each corpus file, `graph`
on the pairs whose configuration graph has at most GRAPH_LIMIT nodes, and
the errors of an unknown type name and of a missing file for each of the
four. Paths are written as `<file>`.

golden_digest.json holds a sha256 per chunk of DIGEST_CHUNK in-process
`main` calls on generated programs (see `digest_calls`): of each call's
argv, exit code, stdout with the `timings` block cut out, and stderr.
A mismatch names the first chunk that differs; `digest_chunk(i)` returns
that chunk's calls and outputs to compare by hand.

The files change only with the output contract, and golden_digest.json
also with a change to a generator's draws. After such a change, say why in
CHANGES.md and regenerate them from the root of the checkout with

    PYTHONPATH=src:tests python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import re
import sys
import tempfile
from unittest import mock

from fairchk import types
from fairchk.cli import COMMANDS, build_parser, main
from fairchk.surface import load, parse, render_program

from conftest import CORPUS, RUNNABLE, corpus_path
import gen
from gen import NESTED_SOURCES, deepest_admitted, diverging_source, shared_ladder_source
from oracles import build_config_graph
from test_cli import _declared, _options
from test_surface import PARSE_ERRORS, RESOLVE_ERRORS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_check.json"
RENDER_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_render.json"
RUN_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_run.json"
CLI_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.json"
DIGEST_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_digest.json"

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


def _call(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one in-process `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _run(argv: list[str], path: str) -> dict:
    code, out, err = _call(argv)
    got: dict = {"code": code, "stderr": err.replace(path, "<file>")}
    if "--json" in argv and out:
        report = json.loads(out)
        report.pop("timings", None)
        got["json"] = report
    else:
        got["stdout"] = out.replace(path, "<file>")
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


# The questions asked of every pair of corpus typedefs, and the largest
# configuration graph whose `graph` output is pinned.
PAIR_QUESTIONS = [["subtype"], ["subtype", "--json"], ["compatible", "--json"],
                  ["rank", "--json"]]
GRAPH_LIMIT = 50


def collect_cli() -> dict:
    """What golden_cli.json pins, computed by the code under test."""
    golden: dict = {"pairs": {}, "graph": {}, "errors": {}}
    for path in sorted(CORPUS.glob("*.ft")):
        file = str(path)
        program = load(path.read_text(encoding="utf-8"))
        names = sorted(program.typedefs)
        for a in names:
            for b in names:
                key = f"{path.name} {a} {b}"
                golden["pairs"][key] = {" ".join(q): _run([q[0], file, a, b, *q[1:]], file)
                                        for q in PAIR_QUESTIONS}
                g = build_config_graph(program.table, program.typedefs[a],
                                       program.typedefs[b])
                if len(g.nodes) <= GRAPH_LIMIT:
                    golden["graph"][key] = _run(["graph", file, a, b], file)
    with tempfile.TemporaryDirectory() as tmp:
        missing = str(pathlib.Path(tmp) / "missing.ft")
        for command in ("subtype", "compatible", "rank", "graph"):
            golden["errors"][f"{command}, unknown type"] = _run(
                [command, corpus_path("bsc"), "SB", "Nope"], corpus_path("bsc"))
            golden["errors"][f"{command}, missing file"] = _run(
                [command, missing, "A", "B"], missing)
    return golden


def test_type_questions_match_the_golden_file():
    want = json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
    got = collect_cli()
    assert set(got) == set(want)
    for group in want:
        assert set(got[group]) == set(want[group]), group
        for name in want[group]:
            assert got[group][name] == want[group][name], (group, name)


def test_the_cli_golden_file_holds_every_answer():
    want = json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
    pairs = want["pairs"].values()
    verdicts = [e["subtype"]["stdout"] for e in pairs]
    for kind in ("holds, weight ", "fails: not simulated at ", "fails: divergence at "):
        assert any(v.startswith(kind) for v in verdicts), kind
    assert {e["compatible --json"]["json"]["compatible"] for e in pairs} == {True, False}
    assert any(e["rank --json"]["json"]["rank"] == "inf" for e in pairs)
    assert want["graph"] and all(e["stdout"].startswith("digraph config {")
                                 for e in want["graph"].values())
    assert all(e["code"] == 2 and e["stderr"].startswith("error: ")
               for e in want["errors"].values())


def _pinned_argvs(got, want):
    """The argv of every entry of want, read off got, a collection of the
    same file made with `_recorded` in place of `_run`."""
    if "argv" in got:
        yield got["argv"]
        return
    for key in got:
        if key in want:
            yield from _pinned_argvs(got[key], want[key])


def _recorded(argv: list[str], path: str) -> dict:
    return {"argv": argv, "stderr": ""}


def test_the_golden_files_cover_every_subcommand_and_option():
    argvs = []
    with mock.patch.object(sys.modules[__name__], "_run", _recorded):
        for collector, file in ((collect, GOLDEN), (collect_runs, RUN_GOLDEN),
                                (collect_cli, CLI_GOLDEN)):
            want = json.loads(file.read_text(encoding="utf-8"))
            argvs += _pinned_argvs(collector(), want)
    subparsers = _declared(build_parser())
    assert list(subparsers) == [name for name, *_ in COMMANDS]
    for name, subparser in subparsers.items():
        used = {arg for argv in argvs if argv[0] == name for arg in argv}
        assert name in used, name
        # help is left out: its output is compared with the full parser's in
        # test_cli.py, and no golden entry pins it
        assert _options(subparser) <= used, (name, sorted(_options(subparser) - used))


# -- the output digest ----------------------------------------------------------

DIGEST_CHUNK = 100

# Draw counts, chosen to keep the digest test well under 15 s (about 8 s on
# a shared 2-vCPU host): rendered
# random_source_program draws, random_runnable_source draws with the run
# seeds of each, and mutated_pair and random_spec pairs.
SOURCE_DRAWS, RUNNABLE_DRAWS, RUN_SEEDS, PAIR_DRAWS = 600, 400, (0, 1), 400

# The generated counterparts of the check_scaling and types_scaling inputs:
# (source, sizes, questions), the questions naming the types they ask about.
SCALING = [
    (gen.call_dag_source, range(12, 18), [["check", "--json"]]),
    (gen.session_chain_source, (20, 40, 60), [["check", "--json"]]),
    (gen.cascade_source, (100, 400, 800), [["subtype", "--json", "A0", "B0"]]),
    (gen.diverging_source, (200, 800), [["subtype", "--json", "U0", "V0"]]),
    (gen.holding_source, (100, 400), [["subtype", "--json", "W0", "Z0"]]),
    (gen.dual_chain_source, (200, 800), [["compatible", "--json", "L0", "C0"],
                                         ["rank", "--json", "L0", "C0"]]),
    (gen.shared_ladder_source, (12, 16), [["check", "--json"]]),
]


def _spec_source(specs: dict) -> str:
    """Typedefs for index specs: node i of the spec under X is type X{i}."""
    lines = []
    for name, spec in specs.items():
        for i, node in enumerate(spec):
            if node[0] == "end":
                body = f"end{node[1]}"
            elif node[0] == "tags":
                body = node[1] + "{" + ", ".join(f"{l}: {name}{j}" for l, j in node[2]) + "}"
            else:
                body = f"{node[1]}({name}{node[2]}). {name}{node[3]}"
            lines.append(f"type {name}{i} = {body}")
    return "\n".join(lines) + "\n"


def digest_calls():
    """(source, argv tail after the file) of every call the digest covers,
    in order; the sources are drawn from fixed seeds."""
    rnd = random.Random(3201)
    for _ in range(SOURCE_DRAWS):
        source = render_program(gen.random_source_program(rnd))
        yield source, ["check"]
        yield source, ["check", "--json", "--infer-branch"]
    rnd = random.Random(3202)
    for _ in range(RUNNABLE_DRAWS):
        source = gen.random_runnable_source(rnd)
        yield source, ["check"]
        yield source, ["check", "--json", "--infer-branch"]
        for seed in RUN_SEEDS:
            tail = ["--unsafe", "--max-steps", "300", "--seed", str(seed)]
            yield source, ["run", "--json", "--stats", *tail]
            yield source, ["run", "--trace-json", *tail]
    rnd = random.Random(3203)
    for i in range(PAIR_DRAWS):
        sub, sup = (gen.mutated_pair(rnd) if i % 2 else
                    (gen.random_spec(rnd, 4), gen.random_spec(rnd, 4)))
        source = _spec_source({"S": sub, "U": sup})
        for q in PAIR_QUESTIONS[1:]:
            yield source, [*q, "S0", "U0"]
        yield source, ["graph", "S0", "U0"]
    for family, sizes, questions in SCALING:
        for n in sizes:
            for q in questions:
                yield family(n), q


def _digest_record(path: str, source: str, tail: list[str]) -> list:
    """[argv, exit code, stdout without `timings`, stderr] of one call,
    with the file's path written as `<file>`."""
    pathlib.Path(path).write_text(source, encoding="utf-8")
    code, out, err = _call([tail[0], path, *tail[1:]])
    out = re.sub(r'^  "timings": \{\n.*?^  \},?\n', "", out, flags=re.M | re.S)
    return [[tail[0], "<file>", *tail[1:]], code,
            out.replace(path, "<file>"), err.replace(path, "<file>")]


def _digest_chunks():
    """Each chunk's records, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "prog.ft")
        chunk = []
        for source, tail in digest_calls():
            chunk.append(_digest_record(path, source, tail))
            if len(chunk) == DIGEST_CHUNK:
                yield chunk
                chunk = []
        if chunk:
            yield chunk


def collect_digest() -> list:
    """What golden_digest.json pins: the call count and sha256 of each chunk."""
    return [{"calls": len(chunk),
             "sha256": hashlib.sha256(json.dumps(chunk).encode("utf-8")).hexdigest()}
            for chunk in _digest_chunks()]


def digest_chunk(i: int) -> list:
    """The records of chunk i, to print when its digest differs."""
    for k, chunk in enumerate(_digest_chunks()):
        if k == i:
            return chunk
    raise IndexError(i)


def test_generated_outputs_match_the_golden_digest():
    want = json.loads(DIGEST_GOLDEN.read_text(encoding="utf-8"))
    got = collect_digest()
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"chunk {i} differs; see digest_chunk({i})"
    assert len(got) == len(want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    RENDER_GOLDEN.write_text(json.dumps(collect_renders(), indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    RUN_GOLDEN.write_text(json.dumps(collect_runs(), indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    CLI_GOLDEN.write_text(json.dumps(collect_cli(), indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    DIGEST_GOLDEN.write_text(json.dumps(collect_digest(), indent=1) + "\n",
                             encoding="utf-8")

"""Seeded mutations of the corpus: no input crashes the library or the CLI.

Each token mutant deletes, duplicates or swaps tokens of a corpus file, or
renames one occurrence of an identifier (say slot's `x!{win: ...}` to
`y!{win: ...}`). Whatever comes out, the library raises only SourceError
or ValueError, and the CLI exits with 0, 1 or 2 and prints no traceback.

Byte mutants work below the lexer: random bytes, a file cut inside a
multi-byte character, invalid UTF-8, NUL and other non-ASCII text. With
odd arguments (a directory as the file, a missing file, a negative step
bound, a number in other digits than ASCII) they go through every
subcommand under the same contract.
"""

import random

import pytest

from fairchk.cli import main
from fairchk.runtime import run
from fairchk.surface import KEYWORDS, SourceError, lex, load
from fairchk.typecheck import check_program

from conftest import CORPUS_RANKS, corpus_path, corpus_text

MUTANTS_PER_FILE = 30
MAX_STEPS = 200


def _mutants(text: str, rnd: random.Random, count: int = MUTANTS_PER_FILE) -> list[str]:
    toks = lex(text)[:-1]  # the token strings, without eof
    names = sorted({t for t in toks if (t[0].isalpha() or t[0] == "_") and t not in KEYWORDS})
    out = []
    for _ in range(count):
        words = list(toks)
        i = rnd.randrange(len(words))
        # half of the mutants are renames: most of them still parse
        kind = rnd.randrange(6)
        if kind == 0:
            del words[i]
        elif kind == 1:
            words.insert(i, words[i])
        elif kind == 2:
            j = rnd.randrange(len(words))
            words[i], words[j] = words[j], words[i]
        else:
            i = rnd.choice([k for k, t in enumerate(toks) if t in names])
            words[i] = rnd.choice([n for n in names + ["q"] if n != words[i]])
        out.append(" ".join(words))
    return out


def _library(text: str, seed: int) -> None:
    try:
        program = load(text)
    except SourceError:
        return
    check_program(program)
    check_program(program, infer_branch=True)
    try:
        run(program, seed=seed, max_steps=MAX_STEPS)
    except ValueError:
        pass  # no runnable Main


def _cli(argv: list[str], capsys) -> int:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err, (argv, err)
    return code


@pytest.mark.parametrize("name", sorted(CORPUS_RANKS))
def test_corpus_mutants_never_crash(name, tmp_path, capsys):
    rnd = random.Random(f"mutate {name}")
    path = tmp_path / name
    for k, text in enumerate(_mutants(corpus_text(name), rnd)):
        _library(text, seed=k)
        path.write_text(text, encoding="utf-8")
        for argv in (["check", str(path)],
                     ["check", str(path), "--infer-branch"],
                     ["run", str(path), "--unsafe", "--seed", str(k),
                      "--max-steps", str(MAX_STEPS)]):
            assert _cli(argv, capsys) in (0, 1, 2), (argv, text)


# -- byte-level mutants ------------------------------------------------------

# well-formed UTF-8 the grammar does not admit: a superscript and an
# Arabic-Indic digit, a letter, a line separator, a byte-order mark
NON_ASCII = ["\u00b2", "\u0663", "\u00e9", "\u2028", "\ufeff"]
# bytes no UTF-8 decoder accepts: a lone continuation byte, a stray lead
# byte, an overlong slash, a surrogate half
INVALID_UTF8 = [b"\x80", b"\xff", b"\xc0\xaf", b"\xed\xa0\x80"]


def _byte_mutants(data: bytes, rnd: random.Random) -> list[bytes]:
    out = []
    for _ in range(MUTANTS_PER_FILE):
        i = rnd.randrange(len(data) + 1)
        kind = rnd.randrange(6)
        if kind == 0:
            out.append(bytes(rnd.randrange(256) for _ in range(rnd.randrange(64))))
        elif kind == 1:
            # cut the file inside a character of two or more bytes
            wide = rnd.choice(NON_ASCII).encode("utf-8")
            out.append(data[:i] + wide[:rnd.randrange(1, len(wide))])
        elif kind == 2:
            out.append(data[:i] + rnd.choice(INVALID_UTF8) + data[i:])
        elif kind == 3:
            out.append(data[:i] + b"\x00" + data[i:])
        elif kind == 4:
            out.append(data[:i] + rnd.choice(NON_ASCII).encode("utf-8") + data[i:])
        else:
            j = min(i, len(data) - 1)
            out.append(data[:j] + bytes([rnd.randrange(256)]) + data[j + 1:])
    return out


def _every_subcommand(path: str, names: list[str]) -> list[list[str]]:
    a, b = (names * 2)[:2] if names else ("A", "B")
    return [["check", path], ["check", path, "--json", "--infer-branch"],
            ["subtype", path, a, b], ["compatible", path, a, b],
            ["rank", path, a, b], ["graph", path, a, b],
            ["run", path, "--unsafe", "--max-steps", str(MAX_STEPS)]]


@pytest.mark.parametrize("name", sorted(CORPUS_RANKS))
def test_corpus_byte_mutants_never_crash(name, tmp_path, capsys):
    rnd = random.Random(f"bytes {name}")
    names = sorted(load(corpus_text(name)).typedefs)
    path = tmp_path / name
    for data in _byte_mutants(corpus_text(name).encode("utf-8"), rnd):
        path.write_bytes(data)
        for argv in _every_subcommand(str(path), names):
            assert _cli(argv, capsys) in (0, 1, 2), (argv, data)


def test_odd_arguments_are_usage_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing.ft")
    for path in (str(tmp_path), missing):
        for argv in _every_subcommand(path, []):
            assert _cli(argv, capsys) == 2, argv
    bsc = corpus_path("bsc")
    # numbers are ASCII digits, as in a source file: int() alone would take
    # an Arabic-Indic three, a superscript two, a fullwidth one, `_` and
    # surrounding spaces
    odd = ["x", "1.5", "", "-", "\u0663", "\u00b2", "\uff11", "1_0", " 3", "3 ", "+3"]
    for bound in ["-3", "-1"] + odd:
        assert _cli(["run", bsc, "--max-steps", bound], capsys) == 2, bound
    for seed in odd + ["-\u0661", "--1"]:
        assert _cli(["run", bsc, "--seed", seed], capsys) == 2, seed
    assert _cli(["run", bsc, "--max-steps", "0"], capsys) == 1
    assert _cli(["run", bsc, "--seed", "-1", "--max-steps", "0100"], capsys) == 0

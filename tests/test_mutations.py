"""Seeded mutations of the corpus: no input crashes the library or the CLI.

Each mutant deletes, duplicates or swaps tokens of a corpus file, or
renames one occurrence of an identifier (say slot's `x!{win: ...}` to
`y!{win: ...}`). Whatever comes out, the library raises only SourceError
or ValueError, and the CLI exits with 0, 1 or 2 and prints no traceback.
"""

import random

import pytest

from fairchk.cli import main
from fairchk.runtime import run
from fairchk.surface import KEYWORDS, SourceError, lex, load
from fairchk.typecheck import check_program

from conftest import CORPUS_RANKS, corpus_text

MUTANTS_PER_FILE = 30
MAX_STEPS = 200


def _mutants(text: str, rnd: random.Random) -> list[str]:
    toks = [t for t in lex(text) if t.kind != "eof"]
    names = sorted({t.text for t in toks if t.kind == "ident" and t.text not in KEYWORDS})
    out = []
    for _ in range(MUTANTS_PER_FILE):
        words = [t.text for t in toks]
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
            i = rnd.choice([k for k, t in enumerate(toks) if t.text in names])
            words[i] = rnd.choice([n for n in names + ["q"] if n != words[i]])
        out.append(" ".join(words))
    return out


def _library(text: str, seed: int) -> None:
    try:
        program = load(text)
    except SourceError:
        return
    check_program(program)
    # a fresh copy: inference rewrites the choice markers it flips
    check_program(load(text), infer_branch=True)
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

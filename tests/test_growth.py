"""Counted work on doubling families: the asymptotic targets as tests.

Each test counts the work of a pass on one family at n, 2n and 4n and
bounds the ratio per doubling. Counts are a pure function of the input,
so unlike wall clock they repeat exactly on any host.
"""

import pytest

from fairchk import graph, load, semantics, typecheck
from fairchk.typecheck import Checker, TermGraph

from gen import call_dag_source, dual_chain_source, session_chain_source


class _Reads(list):
    """A list that counts the items read from it, by index or by iteration,
    into `counter[0]`."""

    def __init__(self, items, counter: list[int]):
        super().__init__(items)
        self.counter = counter

    def __getitem__(self, i):
        self.counter[0] += 1
        return super().__getitem__(i)

    def __iter__(self):
        for item in super().__iter__():
            self.counter[0] += 1
            yield item


def _term_graph_reads(source: str, monkeypatch) -> int:
    """The successor lists read while the termination-path graph of a typed
    program is built, and its ranks and action bounds solved: its build
    reads `kids`, `tarjan` and the solvers read the graph's `succ`."""
    count = [0]
    ck = Checker(load(source))
    ck.check_types()
    ck.kids = _Reads(ck.kids, count)
    monkeypatch.setattr(typecheck, "tarjan", lambda succ: graph.tarjan(_Reads(succ, count)))
    g = TermGraph(ck)
    g.succ = _Reads(g.succ, count)
    assert len(g.ranks) == len(g.bounded) == len(ck.nodes)
    return count[0]


@pytest.mark.parametrize("family, sizes", [
    (call_dag_source, (100, 200, 400)),
    (session_chain_source, (50, 100, 200)),
], ids=["call_dag", "session_chain"])
def test_term_graph_work_is_linear(family, sizes, monkeypatch):
    reads = [_term_graph_reads(family(n), monkeypatch) for n in sizes]
    ratios = [b / a for a, b in zip(reads, reads[1:])]
    assert all(r <= 2.2 for r in ratios), (reads, ratios)


def _moves_calls(n: int, monkeypatch) -> int:
    """The configurations `compatible` and `session_rank` expand on the
    dual chain of n states a side: one `moves` call each."""
    program = load(dual_chain_source(n))
    table, s, t = program.table, program.typedefs["L0"], program.typedefs["C0"]
    count = [0]
    moves = semantics.moves

    def counted(table, cfg):
        count[0] += 1
        return moves(table, cfg)

    monkeypatch.setattr(semantics, "moves", counted)
    assert semantics.compatible(table, s, t)
    assert semantics.session_rank(table, s, t) == n + 1
    return count[0]


def test_dual_pair_work_is_linear(monkeypatch):
    calls = [_moves_calls(n, monkeypatch) for n in (100, 200, 400)]
    ratios = [b / a for a, b in zip(calls, calls[1:])]
    assert all(r <= 2.2 for r in ratios), (calls, ratios)

"""Counted work on doubling families: the asymptotic targets as tests.

Each test counts the work of a pass on one family at n, 2n and 4n and
bounds the ratio per doubling. Counts are a pure function of the input,
so unlike wall clock they repeat exactly on any host.
"""

import pytest

from fairchk import graph, load, typecheck
from fairchk.typecheck import Checker, TermGraph

from gen import call_dag_source, session_chain_source


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

"""Counted work on doubling families: the asymptotic targets as tests.

Each test counts the work of a pass on one family at n, 2n and 4n and
bounds the ratio per doubling. Counts are a pure function of the input,
so unlike wall clock they repeat exactly on any host.
"""

import pytest

from fairchk import graph, load, semantics, surface, typecheck
from fairchk.surface import (Close, Done, NewSession, ProcDef, SourceProgram, TChan, TEnd,
                             TTags, Wait, parse, resolve)
from fairchk.typecheck import Checker, TermGraph
from fairchk.types import TypeTable

from gen import call_dag_source, cascade_source, dual_chain_source, session_chain_source


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


def _wait_chain(k: int):
    """D(x0: end?, …, x{k-1}: end?) = wait x0. … wait x{k-1}. done"""
    body = Done()
    for i in reversed(range(k)):
        body = Wait(f"x{i}", body)
    return body


def _nested_sessions(k: int):
    """D(x0: end?, …, x{k-1}: end?) = new y0: end! / end? in
    (wait x0. close y0 | wait y0. new y1: … in (…| wait y{k-1}. done)):
    session i splits x_i off the k - i parameters still live."""
    body = Done()
    for i in reversed(range(k)):
        body = NewSession(f"y{i}", TEnd("!"), TEnd("?"), Wait(f"x{i}", Close(f"y{i}")),
                          Wait(f"y{i}", body))
    return body


class _Writes(dict):
    """A context that counts the writes made on it into `counter[0]`."""

    def __init__(self, items, counter: list[int]):
        super().__init__(items)
        self.counter = counter

    def __setitem__(self, key, value):
        self.counter[0] += 1
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.counter[0] += 1
        super().__delitem__(key)


class _CountedWrites(Checker):
    """A checker whose typing walk starts from a `_Writes` context that
    counts into `writes`."""

    def _tc(self, dn, body, ctx):
        super()._tc(dn, body, _Writes(ctx, self.writes))


def _typing_work(family, k: int) -> tuple[int, int, int]:
    """The typing walk of `family(k)`, built as a syntax tree so that no
    nesting bound applies, as three counts: the writes made on the context
    handed to `_tc`; the entries of the distinct free-channel sets, less
    the split scan; and the split scan, the live channels every session
    splits, read off its sides' sets. A session's own set holds its live
    context, so the sets repeat the scan, which is not bounded here."""
    params = [(f"x{i}", TEnd("?")) for i in range(k)]
    program = resolve(SourceProgram([], [ProcDef("D", params, None, family(k))]))
    ck = _CountedWrites(program)
    ck.writes = [0]
    ck.check_types()
    assert ck.diags == {"D": []}
    scan = sum(len(ck.free[ks[0]]) + len(ck.free[ks[1]]) - 2
               for ks, n in zip(ck.kids, ck.nodes) if type(n) is NewSession)
    entries = sum(len(s) for s in {id(s): s for s in ck.free}.values())
    return ck.writes[0], entries - scan, scan


def _linear(counts) -> bool:
    """Each count is at most 2.2 times the one at half the size."""
    return all(b <= 2.2 * a for a, b in zip(counts, counts[1:]))


SIZES = (1000, 2000, 4000)


def test_typing_walk_writes_a_wait_chain_in_place():
    # each wait deletes its channel from the one context the walk owns, and
    # the whole chain takes over one free-channel set
    writes, sets, scans = zip(*(_typing_work(_wait_chain, k) for k in SIZES))
    assert writes == SIZES
    assert _linear(sets), sets
    assert scans == (0, 0, 0)


def test_typing_walk_on_nested_sessions():
    # the root session hands both sides contexts of their own, so no write
    # reaches the passed context; the sets beyond the scan grow linearly,
    # while the split scans every live parameter at every session, k(k+1)/2
    # entries, which the message reports
    writes, sets, scans = zip(*(_typing_work(_nested_sessions, k) for k in SIZES))
    assert _linear(writes) and _linear(sets), (writes, sets, scans)


class _Written(list):
    """A list that counts the items written into it, appended or set, into
    `counter[0]`."""

    def __init__(self, items, counter: list[int]):
        super().__init__(items)
        self.counter = counter

    def append(self, item):
        self.counter[0] += 1
        super().append(item)

    def __setitem__(self, i, item):
        self.counter[0] += 1
        super().__setitem__(i, item)


def _resolve_work(source: str, monkeypatch) -> int:
    """The work of `resolve` on a parsed source: the table nodes it writes,
    the definitions it reads off the typedef list, and the (label, child)
    pairs its walk reads off the branch lists."""
    count = [0]

    class Counted(TypeTable):
        def __init__(self, hints=()):
            super().__init__(hints)
            self.nodes = _Written(self.nodes, count)

    monkeypatch.setattr(surface, "TypeTable", Counted)
    sp = parse(source)
    stack = [body for _, body, _ in sp.typedefs]
    while stack:
        t = stack.pop()
        if type(t) is TTags:
            t.branches = _Reads(t.branches, count)
            stack += [c for _, c in t.branches]
        elif type(t) is TChan:
            stack += [t.payload, t.cont]
    sp.typedefs = _Reads(sp.typedefs, count)
    table = resolve(sp).table
    assert None not in table.nodes and type(table) is Counted
    return count[0]


def _nested_typedefs(n: int) -> str:
    """T_i = !{a: ?{b: A_{i+1}, c: !(A0).end?}, d: end!} and the alias
    A_i = T_i, for i < n, with T_n = end!: bodies with nested constructors
    that name each other through aliases."""
    lines = [f"type T{i} = !{{a: ?{{b: A{i + 1}, c: !(A0).end?}}, d: end!}}\ntype A{i} = T{i}"
             for i in range(n)]
    return "\n".join(lines) + f"\ntype A{n} = T{n}\ntype T{n} = end!\n"


@pytest.mark.parametrize("family", [cascade_source, _nested_typedefs],
                         ids=["cascade", "nested"])
def test_resolve_work_is_linear(family, monkeypatch):
    work = [_resolve_work(family(n), monkeypatch) for n in (200, 400, 800)]
    assert _linear(work), work

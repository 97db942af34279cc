"""The static pipeline: typing walk, loop safety, ranks, action bounds.

A program passes when five independent obligations all hold:

  1. Every definition body type-checks against an exact linear context
     (communication must match the channel's type to the letter; the only
     place subtyping enters is an explicit cast).
  2. No session creation and no positive-weight cast sits on a loop of the
     termination-path relation. Such a loop lets a run defer termination
     while piling up obligations, so no finite rank exists for it.
  3. Every definition gets a finite minimum rank.
  4. User rank assertions (the `@ n` pragma) are not exceeded.
  5. Every sub-process is action bounded: some branch of every choice
     structure reaches done/close without unfolding any definition twice.

Casts that fail their subtyping obligation are reported, given weight 0,
and the walk continues, so one bad cast does not mask the rest of the
program's diagnostics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import NoReturn

from .graph import closure, cyclic, reverse, tarjan
from .semantics import compatible
from .subtyping import fair_subtype, render_weight
from .surface import (Call, Cast, ChanIn, ChanOut, Choice, Close, Done,
                      NewSession, ProcExpr, Program, Span, TagComm, Wait,
                      children, preorder)
from .types import INF, TypeTable, equiv


@dataclass
class Diagnostic:
    code: str
    span: Span
    message: str
    details: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "span": {"line": self.span.line, "col": self.span.col},
            "message": self.message,
            "details": self.details,
        }


class _Abort(Exception):
    """Stops the typing walk of one definition after a hard failure."""


def free_channels(order: list[ProcExpr]) -> dict[int, set[str]]:
    """The free channels of every node of a preorder, keyed by node id.

    One pass in reverse preorder meets every node after its children, so
    each node's set is built from its children's sets once.
    """
    free: dict[int, set[str]] = {}
    for p in reversed(order):
        out: set[str] = set()
        for c in children(p):
            out |= free[id(c)]
        if isinstance(p, Call):
            out.update(p.args)
        elif isinstance(p, ChanOut):
            out.update((p.chan, p.payload))
        elif isinstance(p, ChanIn):
            out.discard(p.var)
            out.add(p.chan)
        elif isinstance(p, NewSession):
            out.discard(p.chan)
        elif not isinstance(p, (Done, Choice)):
            out.add(p.chan)
        free[id(p)] = out
    return free


class Checker:
    """One full run of the pipeline over a resolved program."""

    def __init__(self, program: Program, infer_branch: bool = False):
        self.program = program
        self.table: TypeTable = program.table
        self.infer_branch = infer_branch
        self.diags: dict[str, list[Diagnostic]] = {n: [] for n in program.procs}
        self.cast_weight: dict[int, int] = {}
        self.occs = {name: preorder(d.body) for name, d in program.procs.items()}
        # per definition, built at its first session: most have none
        self.free: dict[str, dict[int, set[str]]] = {}
        self.ranks: dict[str, int | float] = {}
        self.timings: dict[str, float] = {"inferMs": 0.0}
        self.pair_memo: dict[tuple, object] = {}

    def _per_pair(self, fn, s: int, t: int):
        """`fn(table, s, t)`, computed once per pair of type ids; the ids
        of a hash-consed table are stable keys."""
        key = (fn, s, t)
        if key not in self.pair_memo:
            self.pair_memo[key] = fn(self.table, s, t)
        return self.pair_memo[key]

    def diag(self, defname: str, code: str, at: int, message: str, **details) -> Diagnostic:
        """Report a diagnostic at token `at` of the source."""
        d = Diagnostic(code, self.program.span(at), message, details)
        self.diags[defname].append(d)
        return d

    # -- pass 1: typing walk ----------------------------------------------

    def _render(self, tid: int) -> str:
        return self.table.render(tid)

    def check_types(self) -> None:
        for name, d in self.program.procs.items():
            ctx = {v: t for (v, _), t in zip(d.params, d.param_tids or [])}
            try:
                self._tc(name, d.body, ctx)
            except _Abort:
                pass

    def _fail(self, dn: str, code: str, p: ProcExpr, message: str, **details) -> NoReturn:
        """Report a hard failure at p and end the walk of its definition."""
        self.diag(dn, code, p.at, message, **details)
        raise _Abort

    def _lookup(self, dn: str, p: ProcExpr, ctx: dict[str, int], var: str) -> int:
        if var not in ctx:
            self._fail(dn, "E-UNBOUND-NAME", p, f"channel {var!r} is not in scope")
        return ctx[var]

    def _leak(self, dn: str, p: ProcExpr, ctx: dict[str, int], keep: set[str]) -> None:
        extra = sorted(set(ctx) - keep)
        if extra:
            shown = ", ".join(f"{v}: {self._render(ctx[v])}" for v in extra)
            self._fail(dn, "E-CONTEXT-LEAK", p, f"unconsumed channels: {shown}")

    def _tc(self, dn: str, body: ProcExpr, ctx: dict[str, int]) -> None:
        """Check a definition body against its parameters' context.

        One loop over a stack of (node, context) pairs; children are pushed
        in reverse, so they are checked, and report, in source order. A
        context is never changed once made, so siblings may share one.
        """
        table, fail, render = self.table, self._fail, self._render
        stack = [(body, ctx)]
        while stack:
            p, ctx = stack.pop()
            if isinstance(p, Done):
                self._leak(dn, p, ctx, set())
            elif isinstance(p, Close):
                t = self._lookup(dn, p, ctx, p.chan)
                if table.node(t) != ("end", "!"):
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"close needs {p.chan}: end!, found {render(t)}")
                self._leak(dn, p, ctx, {p.chan})
            elif isinstance(p, Wait):
                t = self._lookup(dn, p, ctx, p.chan)
                if table.node(t) != ("end", "?"):
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"wait needs {p.chan}: end?, found {render(t)}")
                stack.append((p.cont, {v: u for v, u in ctx.items() if v != p.chan}))
            elif isinstance(p, Call):
                target = self.program.procs[p.name]
                if len(p.args) != len(set(p.args)):
                    fail(dn, "E-CONTEXT-LEAK", p, f"call to {p.name} passes a channel twice")
                if len(p.args) != len(target.params):
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"{p.name} expects {len(target.params)} arguments, got {len(p.args)}")
                for arg, want in zip(p.args, target.param_tids or []):
                    got = self._lookup(dn, p, ctx, arg)
                    if not equiv(table, got, want):
                        fail(dn, "E-TYPE-MISMATCH", p,
                             f"argument {arg} has type {render(got)}, "
                             f"{p.name} expects {render(want)}")
                self._leak(dn, p, ctx, set(p.args))
            elif isinstance(p, TagComm):
                t = self._lookup(dn, p, ctx, p.chan)
                node = table.node(t)
                if node[0] != "tags" or node[1] != p.pol:
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"{p.chan}{p.pol} does not match its type {render(t)}")
                branches = dict(node[2])
                plabels = {l for l, _ in p.branches}
                if set(branches) != plabels:
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"labels on {p.chan} are {sorted(plabels)}, "
                         f"type has {sorted(branches)}")
                stack.extend((b, {**ctx, p.chan: branches[l]}) for l, b in reversed(p.branches))
            elif isinstance(p, ChanOut):
                t = self._lookup(dn, p, ctx, p.chan)
                node = table.node(t)
                if node[0] != "chan" or node[1] != "!":
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"{p.chan} cannot send a channel at type {render(t)}")
                if p.payload == p.chan:
                    fail(dn, "E-TYPE-MISMATCH", p, f"{p.chan} cannot carry itself")
                got = self._lookup(dn, p, ctx, p.payload)
                if not equiv(table, got, node[2]):
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"payload {p.payload} has type {render(got)}, "
                         f"carrier expects {render(node[2])}")
                rest = {v: u for v, u in ctx.items() if v != p.payload}
                stack.append((p.cont, {**rest, p.chan: node[3]}))
            elif isinstance(p, ChanIn):
                t = self._lookup(dn, p, ctx, p.chan)
                node = table.node(t)
                if node[0] != "chan" or node[1] != "?":
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"{p.chan} cannot receive a channel at type {render(t)}")
                assert p.tid is not None
                if not equiv(table, p.tid, node[2]):
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"annotation {render(p.tid)} differs from "
                         f"payload type {render(node[2])}")
                if p.var in ctx or p.var == p.chan:
                    fail(dn, "E-CONTEXT-LEAK", p, f"{p.var!r} rebinds a live channel")
                stack.append((p.cont, {**ctx, p.chan: node[3], p.var: p.tid}))
            elif isinstance(p, Choice):
                stack += [(p.right, ctx), (p.left, ctx)]
            elif isinstance(p, NewSession):
                if p.chan in ctx:
                    fail(dn, "E-CONTEXT-LEAK", p, f"{p.chan!r} rebinds a live channel")
                assert p.ltid is not None and p.rtid is not None
                if not self._per_pair(compatible, p.ltid, p.rtid):
                    fail(dn, "E-INCOMPATIBLE", p,
                         f"endpoint types of {p.chan} cannot terminate together",
                         left=render(p.ltid), right=render(p.rtid))
                if dn not in self.free:
                    self.free[dn] = free_channels(self.occs[dn])
                fvl, fvr = self.free[dn][id(p.left)], self.free[dn][id(p.right)]
                lctx, rctx = {p.chan: p.ltid}, {p.chan: p.rtid}
                for v, t in ctx.items():
                    if v in fvl and v in fvr:
                        fail(dn, "E-CONTEXT-LEAK", p, f"channel {v!r} is used by both components")
                    if v in fvl:
                        lctx[v] = t
                    elif v in fvr:
                        rctx[v] = t
                    else:
                        fail(dn, "E-CONTEXT-LEAK", p,
                             f"channel {v!r} is used by neither component")
                stack += [(p.right, rctx), (p.left, lctx)]
            elif isinstance(p, Cast):
                t = self._lookup(dn, p, ctx, p.chan)
                assert p.tid is not None
                verdict = self._per_pair(fair_subtype, t, p.tid)
                if verdict.holds:
                    w = int(verdict.weight)
                    if p.weight_ann is not None and w > p.weight_ann:
                        self.diag(dn, "E-WEIGHT-EXCEEDED", p.at,
                                  f"cast weight is {w}, annotation allows {p.weight_ann}")
                else:
                    kind, (u, v), detail = verdict.failure  # type: ignore[misc]
                    self.diag(dn, "E-SUBTYPE", p.at,
                              f"cast target is not a fair supertype of {render(t)}",
                              kind=kind, detail=detail,
                              offendingPair=[render(u), render(v)],
                              source=render(t), target=render(p.tid))
                    w = 0
                self.cast_weight[id(p)] = w
                stack.append((p.cont, {**ctx, p.chan: p.tid}))
            else:
                raise TypeError(f"not a process node: {p!r}")

    # -- termination-path graph and loop safety -----------------------------

    def term_successors(self, p: ProcExpr) -> tuple[ProcExpr, ...]:
        if isinstance(p, Call):
            return (self.program.procs[p.name].body,)
        if isinstance(p, Choice):
            return (p.left if p.k == 1 else p.right,)
        return children(p)

    def check_safe(self) -> None:
        """Build the termination-path graph and flag the sessions and
        positive-weight casts on its loops."""
        self.graph = TermGraph(self)
        for name, order in self.occs.items():
            for n in order:
                if id(n) not in self.graph.unsafe:
                    continue
                if isinstance(n, NewSession):
                    self.diag(name, "E-UNSAFE-LOOP", n.at,
                              "session created inside a termination-path loop")
                else:
                    self.diag(name, "E-UNSAFE-LOOP", n.at,
                              "positive-weight cast inside a termination-path loop",
                              weight=self.cast_weight[id(n)])

    # -- ranks --------------------------------------------------------------

    def compute_ranks(self) -> None:
        """Least ranks over the termination-path graph; ∞ exactly when the
        body's termination paths cross an unsafe loop."""
        rank = self.graph.ranks()
        for name, d in self.program.procs.items():
            self.ranks[name] = rank[id(d.body)]
            if self.ranks[name] == INF:
                self.diag(name, "E-INFINITE-RANK", d.at,
                          f"{name} admits no finite rank: its termination "
                          "paths cross an unsafe loop")
            if d.rank_ann is not None and self.ranks[name] > d.rank_ann:
                self.diag(name, "E-RANK-EXCEEDED", d.at,
                          f"rank of {name} is {render_weight(self.ranks[name])}, "
                          f"annotation allows {d.rank_ann}")

    # -- action boundedness ---------------------------------------------------

    def check_action_bounds(self) -> None:
        # every sub-occurrence must be bounded on its own; report only the
        # outermost failures, in preorder, to keep the noise down
        bounded = self.graph.bounded()
        for name, d in self.program.procs.items():
            stack = [d.body]
            while stack:
                p = stack.pop()
                if id(p) not in bounded:
                    self.diag(name, "E-UNBOUNDED-ACTION", p.at,
                              "no branch of this process reaches done or close "
                              "without unfolding a definition twice")
                    continue
                stack.extend(children(p)[::-1])

    # -- branch inference ------------------------------------------------------

    def infer_branches(self) -> None:
        """Flip choice markers where the other branch checks out better.

        Choices are taken in definition order, then in preorder, and each
        is scored with the markers already decided for earlier ones: better
        means the body is action bounded first, then has a finite and
        smaller rank; a tie keeps the written marker.
        """
        for name, d in self.program.procs.items():
            choices = [n for n in self.occs[name] if isinstance(n, Choice)]
            for c in choices:
                written = c.k
                scores = {}
                for k in (1, 2):
                    c.k = k
                    g = TermGraph(self)
                    rank = g.ranks()[id(d.body)]
                    scores[k] = (id(d.body) not in g.bounded(), rank == INF, rank,
                                 k != written)
                c.k = min((1, 2), key=lambda k: scores[k])

    # -- driver -----------------------------------------------------------------

    def _timed(self, key: str, fn) -> None:
        started = time.perf_counter()
        fn()
        self.timings[key] = round((time.perf_counter() - started) * 1000.0, 3)

    def run(self) -> dict:
        self._timed("typingMs", self.check_types)
        if self.infer_branch:
            self._timed("inferMs", self.infer_branches)
        self._timed("safetyMs", self.check_safe)
        self._timed("ranksMs", self.compute_ranks)
        self._timed("boundsMs", self.check_action_bounds)
        definitions = []
        for name in self.program.procs:
            ds = self.diags[name]
            definitions.append({
                "name": name,
                "rank": render_weight(self.ranks[name]),
                "status": "rejected" if ds else "accepted",
                "diagnostics": [d.to_json() for d in ds],
            })
        verdict = "accepted" if all(not self.diags[n] for n in self.program.procs) else "rejected"
        return {"verdict": verdict, "definitions": definitions}


class TermGraph:
    """The termination-path relation over every occurrence of a program.

    Nodes are occurrence ids and edges are `Checker.term_successors`; the
    strongly connected components come from one run of `tarjan`, which
    emits every component after all the components it reaches. Ranks and
    action bounds are least fixpoints over this graph, each solved in time
    linear in its size.
    """

    def __init__(self, checker: Checker):
        self.node: dict[int, ProcExpr] = {}
        self.succ: dict[int, list[int]] = {}
        for order in checker.occs.values():
            for n in order:
                self.node[id(n)] = n
                self.succ[id(n)] = [id(m) for m in checker.term_successors(n)]
        self.sccs = tarjan(list(self.node), self.succ)
        self.weight = checker.cast_weight
        # sessions and positive-weight casts on a cycle: no finite rank
        # exists past them
        self.unsafe = {v for scc in self.sccs if cyclic(scc, self.succ) for v in scc
                       if isinstance(self.node[v], NewSession) or self.weight.get(v, 0) > 0}

    def ranks(self) -> dict[int, int | float]:
        """Least solution of the rank equations at every occurrence.

        Off cycles each node applies its own equation. A cycle holding an
        unsafe node diverges; any other cycle only passes values along
        under max, so its members share the largest value leaving it.
        """
        rank: dict[int, int | float] = {}
        for scc in self.sccs:
            if not cyclic(scc, self.succ):
                v = scc[0]
                n, kids = self.node[v], [rank[w] for w in self.succ[v]]
                if isinstance(n, NewSession):
                    r = 1 + kids[0] + kids[1]
                elif isinstance(n, Cast):
                    r = self.weight.get(v, 0) + kids[0]
                else:
                    # done and close have no successors; a tag choice
                    # takes its worst branch; every other node copies
                    r = max(kids, default=0)
            elif self.unsafe.intersection(scc):
                r = INF
            else:
                members = set(scc)
                r = max((rank[w] for v in scc for w in self.succ[v] if w not in members),
                        default=0)
            for v in scc:
                rank[v] = r
        return rank

    def bounded(self) -> set[int]:
        """Action-bounded occurrences, as a least fixpoint: done and close
        are bounded, a session needs both sides, every other node needs one
        successor."""
        seeds = [v for v, n in self.node.items() if isinstance(n, (Done, Close))]
        need = {v: 2 if isinstance(n, NewSession) else 1 for v, n in self.node.items()}
        return closure(seeds, reverse(self.succ), need)


def check_program(program: Program, infer_branch: bool = False) -> dict:
    """Run the whole pipeline and return the report as plain data."""
    return Checker(program, infer_branch=infer_branch).run()

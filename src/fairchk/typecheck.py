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
from functools import cached_property

from .graph import closure, cyclic, least, reverse, tarjan
from .semantics import compatible
from .subtyping import fair_subtype, render_weight
from .surface import (Call, Cast, ChanIn, ChanOut, Choice, Close, Done,
                      NewSession, ProcExpr, Program, TagComm, Wait)
from .types import INF, TypeTable, equiv


def timed(fn, *args):
    """`fn(*args)` and the milliseconds it took, to the microsecond."""
    started = time.perf_counter()
    out = fn(*args)
    return out, round((time.perf_counter() - started) * 1000.0, 3)


class _Abort(Exception):
    """Stops the typing walk of one definition after a hard failure."""


def free_channels(nodes: list[ProcExpr], kids: list[list[int]]) -> list[set[str]]:
    """The free channels of the numbered occurrences, by number, in one pass
    from the last number back, which meets each child before its parent. A
    node with one child takes over that child's set and extends it in place
    (`out |= out` returns at once); any other node unions its children's
    sets into a new one. So the sets the typing walk reads are exact: those
    of body roots and of the children of nodes with several children."""
    free: list = [None] * len(nodes)
    for v in reversed(range(len(nodes))):
        p, ks = nodes[v], kids[v]
        free[v] = out = free[ks[0]] if len(ks) == 1 else set()
        for c in ks:
            out |= free[c]
        t = type(p)
        if t is Call:
            out.update(p.args)
        elif t is ChanOut:
            out.update((p.chan, p.payload))
        elif t is ChanIn:
            out.discard(p.var)
            out.add(p.chan)
        elif t is NewSession:
            out.discard(p.chan)
        elif t is not Done and t is not Choice:
            out.add(p.chan)
    return free


class Checker:
    """One full run of the pipeline over a resolved program."""

    def __init__(self, program: Program, infer_branch: bool = False):
        self.program = program
        self.table: TypeTable = program.table
        self.infer_branch = infer_branch
        # each definition's diagnostics, as `check --json` prints them
        self.diags: dict[str, list[dict]] = {n: [] for n in program.procs}
        self.nodes, self.kids = program.nodes, program.kids
        self.owner, self.start = program.owner, program.start
        # each choice's marker by occurrence number, as written; branch
        # inference flips these, never the program's own nodes
        self.marker: dict[int, int] = {v: n.k for v, n in enumerate(self.nodes)
                                       if type(n) is Choice}
        self.cast_weight: dict[int, int] = {}
        self.free: list[set[str]] = []
        self.graph: TermGraph | None = None
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

    def diag(self, defname: str, code: str, at: int, message: str, **details) -> None:
        """Report a diagnostic at token `at` of the source."""
        line, col = self.program.span(at)
        self.diags[defname].append({"code": code, "span": {"line": line, "col": col},
                                    "message": message, "details": details})

    # -- pass 1: typing walk ----------------------------------------------

    def check_types(self) -> None:
        self.free = free_channels(self.nodes, self.kids)
        for name, d in self.program.procs.items():
            ctx = {v: t for (v, _), t in zip(d.params, self.program.param_tids[name])}
            try:
                self._tc(name, self.start[name], ctx)
            except _Abort:
                pass

    def _fail(self, dn: str, code: str, p: ProcExpr, message: str, **details):
        """Report a hard failure at p and end the walk of its definition."""
        self.diag(dn, code, p.at, message, **details)
        raise _Abort

    def _lookup(self, dn: str, p: ProcExpr, ctx: dict[str, int], var: str) -> int:
        if var not in ctx:
            self._fail(dn, "E-UNBOUND-NAME", p, f"channel {var!r} is not in scope")
        return ctx[var]

    def _leak(self, dn: str, p: ProcExpr, ctx: dict[str, int], keep: set[str]) -> None:
        # every caller's `keep` lies inside `ctx`, so more names means some left over
        if len(ctx) <= len(keep):
            return
        extra = sorted(set(ctx) - keep)
        shown = ", ".join(f"{v}: {self.table.render(ctx[v])}" for v in extra)
        self._fail(dn, "E-CONTEXT-LEAK", p, f"unconsumed channels: {shown}")

    def _tc(self, dn: str, body: int, ctx: dict[str, int]) -> None:
        """Check the body numbered `body` against its parameters' context.

        One loop over a stack of (number, context) pairs; children are
        pushed in reverse, so they are checked, and report, in source order.
        Each entry owns its context, `ctx` first, and writes it in place; a
        node with several children copies it for each child after the first.
        """
        table, fail, render = self.table, self._fail, self.table.render
        nodes, kids, tids = self.nodes, self.kids, self.program.tids
        stack = [(body, ctx)]
        while stack:
            v, ctx = stack.pop()
            p, ks = nodes[v], kids[v]
            kind = type(p)
            if kind is Done:
                self._leak(dn, p, ctx, set())
            elif kind is Close:
                t = self._lookup(dn, p, ctx, p.chan)
                if table.node(t) != ("end", "!"):
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"close needs {p.chan}: end!, found {render(t)}")
                self._leak(dn, p, ctx, {p.chan})
            elif kind is Wait:
                t = self._lookup(dn, p, ctx, p.chan)
                if table.node(t) != ("end", "?"):
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"wait needs {p.chan}: end?, found {render(t)}")
                del ctx[p.chan]
            elif kind is Call:
                params = self.program.param_tids[p.name]
                if len(p.args) != len(set(p.args)):
                    fail(dn, "E-CONTEXT-LEAK", p, f"call to {p.name} passes a channel twice")
                if len(p.args) != len(params):
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"{p.name} expects {len(params)} arguments, got {len(p.args)}")
                for arg, want in zip(p.args, params):
                    got = self._lookup(dn, p, ctx, arg)
                    if not equiv(table, got, want):
                        fail(dn, "E-TYPE-MISMATCH", p,
                             f"argument {arg} has type {render(got)}, "
                             f"{p.name} expects {render(want)}")
                self._leak(dn, p, ctx, set(p.args))
            elif kind is TagComm:
                t = self._lookup(dn, p, ctx, p.chan)
                node = table.node(t)
                if node[0] != "tags" or node[1] != p.pol:
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"{p.chan}{p.pol} does not match its type {render(t)}")
                branches = dict(node[2])
                labels = p.labels
                if branches.keys() != set(labels):
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"labels on {p.chan} are {sorted(set(labels))}, "
                         f"type has {sorted(branches)}")
                for l, k in zip(labels[:0:-1], ks[:0:-1]):
                    stack.append((k, {**ctx, p.chan: branches[l]}))
                ctx[p.chan] = branches[labels[0]]
            elif kind is ChanOut:
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
                del ctx[p.payload]
                ctx[p.chan] = node[3]
            elif kind is ChanIn:
                t = self._lookup(dn, p, ctx, p.chan)
                node = table.node(t)
                if node[0] != "chan" or node[1] != "?":
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"{p.chan} cannot receive a channel at type {render(t)}")
                (ann,) = tids[v]
                if not equiv(table, ann, node[2]):
                    fail(dn, "E-TYPE-MISMATCH", p,
                         f"annotation {render(ann)} differs from "
                         f"payload type {render(node[2])}")
                if p.var in ctx or p.var == p.chan:
                    fail(dn, "E-CONTEXT-LEAK", p, f"{p.var!r} rebinds a live channel")
                ctx[p.chan], ctx[p.var] = node[3], ann
            elif kind is Choice:
                stack.append((ks[1], dict(ctx)))
            elif kind is NewSession:
                if p.chan in ctx:
                    fail(dn, "E-CONTEXT-LEAK", p, f"{p.chan!r} rebinds a live channel")
                lt, rt = tids[v]
                if not self._per_pair(compatible, lt, rt):
                    fail(dn, "E-INCOMPATIBLE", p,
                         f"endpoint types of {p.chan} cannot terminate together",
                         left=render(lt), right=render(rt))
                fvl, fvr = self.free[ks[0]], self.free[ks[1]]
                lctx, rctx = {p.chan: lt}, {p.chan: rt}
                for c, t in ctx.items():
                    if c in fvl and c in fvr:
                        fail(dn, "E-CONTEXT-LEAK", p, f"channel {c!r} is used by both components")
                    if c in fvl:
                        lctx[c] = t
                    elif c in fvr:
                        rctx[c] = t
                    else:
                        fail(dn, "E-CONTEXT-LEAK", p,
                             f"channel {c!r} is used by neither component")
                stack.append((ks[1], rctx))
                ctx = lctx
            elif kind is Cast:
                t = self._lookup(dn, p, ctx, p.chan)
                (target,) = tids[v]
                verdict = self._per_pair(fair_subtype, t, target)
                if verdict.holds:
                    w = int(verdict.weight)
                    if p.weight_ann is not None and w > p.weight_ann:
                        self.diag(dn, "E-WEIGHT-EXCEEDED", p.at,
                                  f"cast weight is {w}, annotation allows {p.weight_ann}")
                else:
                    kind, (a, b), detail = verdict.failure  # type: ignore[misc]
                    self.diag(dn, "E-SUBTYPE", p.at,
                              f"cast target is not a fair supertype of {render(t)}",
                              kind=kind, detail=detail,
                              offendingPair=[render(a), render(b)],
                              source=render(t), target=render(target))
                    w = 0
                self.cast_weight[v] = w
                ctx[p.chan] = target
            else:
                raise TypeError(f"not a process node: {p!r}")
            if ks:
                stack.append((ks[0], ctx))

    # -- termination-path graph and loop safety -----------------------------

    def check_safe(self) -> None:
        """Flag the sessions and positive-weight casts on the loops of the
        termination-path graph, which branch inference may have built."""
        if self.graph is None:
            self.graph = TermGraph(self)
        for v in sorted(self.graph.unsafe):
            n = self.nodes[v]
            if type(n) is NewSession:
                self.diag(self.owner[v], "E-UNSAFE-LOOP", n.at,
                          "session created inside a termination-path loop")
            else:
                self.diag(self.owner[v], "E-UNSAFE-LOOP", n.at,
                          "positive-weight cast inside a termination-path loop",
                          weight=self.cast_weight[v])

    # -- ranks --------------------------------------------------------------

    def compute_ranks(self) -> None:
        """Least ranks over the termination-path graph; ∞ exactly when the
        body's termination paths cross an unsafe loop."""
        rank = self.graph.ranks
        for name, d in self.program.procs.items():
            self.ranks[name] = rank[self.start[name]]
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
        # outermost failures, in preorder, to keep the noise down; when
        # every occurrence is bounded there is nothing to look for
        bounded = self.graph.bounded
        if all(bounded):
            return
        for name, b in self.start.items():
            stack = [b]
            while stack:
                v = stack.pop()
                if not bounded[v]:
                    self.diag(name, "E-UNBOUNDED-ACTION", self.nodes[v].at,
                              "no branch of this process reaches done or close "
                              "without unfolding a definition twice")
                    continue
                stack.extend(self.kids[v][::-1])

    # -- branch inference ------------------------------------------------------

    def infer_branches(self) -> None:
        """Flip choice markers in `self.marker` where the other branch
        checks out better; the program keeps the markers as written.

        Choices are taken in definition order, then in preorder, and each
        is scored with the markers already decided for earlier ones: better
        means the body is action bounded first, then has a finite and
        smaller rank; a tie keeps the written marker. The written marker
        scores on the current graph, so each choice builds one graph, with
        its marker flipped, and that graph becomes the current one when the
        flip is kept. The last current graph, solved here once, is the one
        the later passes read.
        """
        self.graph = TermGraph(self)
        for v, k in self.marker.items():
            b = self.start[self.owner[v]]
            self.marker[v] = 3 - k
            g, cur = TermGraph(self), self.graph
            if (not g.bounded[b], g.ranks[b]) < (not cur.bounded[b], cur.ranks[b]):
                self.graph = g
            else:
                self.marker[v] = k

    # -- driver -----------------------------------------------------------------

    def run(self) -> dict:
        timings = self.timings
        timings["typingMs"] = timed(self.check_types)[1]
        if self.infer_branch:
            timings["inferMs"] = timed(self.infer_branches)[1]
        timings["safetyMs"] = timed(self.check_safe)[1]
        timings["ranksMs"] = timed(self.compute_ranks)[1]
        timings["boundsMs"] = timed(self.check_action_bounds)[1]
        definitions = []
        for name in self.program.procs:
            ds = self.diags[name]
            definitions.append({
                "name": name,
                "rank": render_weight(self.ranks[name]),
                "status": "rejected" if ds else "accepted",
                "diagnostics": ds,
            })
        verdict = "accepted" if all(not self.diags[n] for n in self.program.procs) else "rejected"
        return {"verdict": verdict, "definitions": definitions}


class TermGraph:
    """The termination-path relation over every occurrence of a program.

    Node v is occurrence `checker.nodes[v]`, and `succ[v]` lists the
    numbers of the occurrences a terminating run continues with. The
    strongly connected components come from one run of `tarjan`, which
    emits every component after all the components it reaches. Ranks and
    action bounds are least fixpoints over this graph, each solved in time
    linear in its size when first read and kept, by occurrence number.
    The rank equations are data for `least`, lists by occurrence number
    built with `succ` in one pass: a session adds 1 to the sum of its two
    sides, a cast adds its weight, any other node takes the max.
    """

    def __init__(self, checker: Checker):
        self.node = node = checker.nodes
        start, kids, marker = checker.start, checker.kids, checker.marker
        weight = checker.cast_weight
        self.succ = succ = []
        self.rule = rule = []
        self.plus = plus = []
        for v, n in enumerate(node):
            t = type(n)
            succ.append([start[n.name]] if t is Call else [kids[v][marker[v] - 1]]
                        if t is Choice else kids[v])
            rule.append("sum" if t is NewSession else "max")
            plus.append(1 if t is NewSession else weight.get(v, 0))
        self.sccs = tarjan(succ)
        # no finite rank exists past a session or a positive-weight cast on a cycle
        self.unsafe = {v for scc in self.sccs if cyclic(scc, succ) for v in scc
                       if plus[v] > 0}

    @cached_property
    def ranks(self) -> list[int | float]:
        """Least ranks at every occurrence: a cycle holding an unsafe node
        diverges, any other passes on the largest rank that leaves it."""
        return least(self.sccs, self.succ, self.rule, self.plus)

    @cached_property
    def bounded(self) -> list[bool]:
        """Which occurrences are action bounded, as a least fixpoint: done
        and close are bounded, a session needs both sides, every other node
        needs one successor."""
        seeds = [v for v, n in enumerate(self.node) if type(n) is Done or type(n) is Close]
        need = [2 if type(n) is NewSession else 1 for n in self.node]
        return closure(seeds, reverse(self.succ), need)


def check_program(program: Program, infer_branch: bool = False) -> dict:
    """Run the whole pipeline and return the report as plain data."""
    return Checker(program, infer_branch=infer_branch).run()

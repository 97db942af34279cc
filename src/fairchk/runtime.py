"""Reference interpreter: a soup of threads, one redex per step.

The scheduler is the fairness story. Every nondeterministic point (which
redex fires, which choice branch, which output label) is resolved uniformly
at random from a seeded deterministic generator, so unfair infinite runs
have probability zero and the same seed always replays the same trace.

The generator is SplitMix64 (Steele, Lea & Flood's mix constants) with a
multiply-shift reduction for bounded draws; both are fixed so traces are
reproducible across platforms and Python versions.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .surface import (Call, Cast, ChanIn, ChanOut, Choice, Close, Done,
                      NewSession, Program, Record, TagComm, Wait, render)

_M64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _M64

    def below(self, n: int) -> int:
        """Advance the state and reduce the next output into [0, n) by a
        multiply-shift; below(1 << 64) is the output itself."""
        self.state = z = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return ((z ^ (z >> 31)) * n) >> 64


# Every reduction rule the scheduler can fire, as named in traces.
RULES = frozenset({
    "rb-choice", "sb-call", "rb-cast", "rb-par",
    "rb-pick", "rb-signal", "rb-tag", "rb-channel",
})

_RULE_ORDER = sorted(RULES)

# An endpoint handle is one int, 2 * session number + side: the two sides
# of a session are h and h ^ 1, and its number is h >> 1.
Handle = int


class TraceEntry(Record):
    __slots__ = ("step", "rule", "session", "detail")

    def __init__(self, step: int, rule: str, session: str, detail: str):
        self.step, self.rule, self.session, self.detail = step, rule, session, detail

    def line(self) -> str:
        return f"{self.step}\t{self.rule}\t{self.session}\t{self.detail}"

    def to_json(self) -> dict:
        return {"step": self.step, "rule": self.rule,
                "session": self.session, "detail": self.detail}


class RunOutcome(Record):
    __slots__ = ("kind", "steps", "trace", "dump", "stats")

    def __init__(self, kind: str, steps: int, trace: list[TraceEntry] | None = None,
                 dump: list[str] | None = None, stats: dict | None = None):
        self.kind = kind  # "terminated" | "step-limit" | "stuck"
        self.steps = steps
        self.trace = [] if trace is None else trace
        self.dump = [] if dump is None else dump
        # fired count of every rule, peak live threads, sessions opened
        self.stats = {} if stats is None else stats


_END = "end"  # the rule of a `done`: its thread leaves the soup

# What a thread at an occurrence of each kind of node can do: (the rule it
# fires alone, None when it is a head that pairs, or _END; the channel it
# acts on; the names it needs bound to do anything; its kind of head, a key
# of _MEETS; the labels of its branches). A choice and an output with
# several branches move to the kid of the label they draw; in the soup an
# output's kids are the one-branch outputs it becomes once picked.
_SHAPES = {
    Done: lambda n: (_END, None, (), None, ()),
    Call: lambda n: ("sb-call", None, tuple(n.args), None, ()),
    Close: lambda n: (None, n.chan, (), "close", ()),
    Wait: lambda n: (None, n.chan, (), "wait", ()),
    TagComm: lambda n: (
        ("rb-pick", n.chan, (n.chan,), "send", n.labels)
        if n.pol == "!" and len(n.labels) > 1
        else (None, n.chan, (), "send" if n.pol == "!" else "receive", n.labels)),
    ChanOut: lambda n: (None, n.chan, (n.payload,), "out", ()),
    ChanIn: lambda n: (None, n.chan, (), "in", ()),
    Choice: lambda n: ("rb-choice", None, (), None, ("branch 1", "branch 2")),
    NewSession: lambda n: ("rb-par", n.chan, (), None, ()),
    Cast: lambda n: ("rb-cast", n.chan, (n.chan,), None, ()),
}

# (offering head, other head) -> the rule by which they meet; the offering
# head is the closer or the sender, written first in the redex
_MEETS = {("close", "wait"): "rb-signal", ("out", "in"): "rb-channel",
          ("send", "receive"): "rb-tag"}


class Soup:
    """The live threads and an index of the redexes they enable.

    A thread is an occurrence number and an environment (a dict from name
    to handle that no other thread holds, so a step writes it in place):
    `threads` and `env` map each live thread's creation number to them, in
    creation order. The index lists the enabled redexes in one fixed order,
    which the draw at each step depends on: first the single-thread
    redexes in thread order, then the synchronising pairs in session order.
    A step re-reads only the threads it touched, so its work does not grow
    with the thread count; its time still does (ROADMAP item 7).

    A thread moves along the soup's own copy of the occurrence table, which
    leaves the program as loaded and adds, for each output with several
    branches, one picked occurrence per branch (its kids in the soup), then
    one `done`, where a closer moves after rb-signal. What a thread can do
    at an occurrence is read off a table with one entry each, and so is
    what a call there binds and where it goes.
    """

    def __init__(self, program: Program, rng: SplitMix64):
        self.program = program
        self.rng = rng
        procs, start = program.procs, program.start
        nodes, kids = self.nodes, self.kids = list(program.nodes), list(program.kids)
        shapes = self.shapes = [_SHAPES[type(n)](n) for n in nodes]
        # occurrence -> (parameter names, argument names, callee start,
        # callee name) at a call, None elsewhere
        self.calls = [(tuple(p for p, _ in procs[n.name].params), tuple(n.args),
                       start[n.name], n.name) if type(n) is Call else None
                      for n in nodes]
        for v, (rule, chan, _, _, labels) in enumerate(shapes[:len(nodes)]):
            if rule == "rb-pick":
                branches = kids[v]
                kids[v] = list(range(len(nodes), len(nodes) + len(labels)))
                for label, k in zip(labels, branches):
                    nodes.append(TagComm(chan, "!", [(label, nodes[k])]))
                    kids.append([k])
                    shapes.append((None, chan, (), "send", (label,)))
        self.done = len(nodes)
        nodes.append(Done())
        kids.append([])
        shapes.append((_END, None, (), None, ()))
        self.threads: dict[int, int] = {}  # live thread -> its occurrence
        self.env: dict[int, dict[str, Handle]] = {}  # live thread -> its environment
        self.next_thread = 0
        self.next_session = 0
        # thread -> its single-thread rule, or the handle its head is on
        self.role: dict[int, str | Handle] = {}
        self.singles: list[int] = []  # threads with a single-thread rule, ascending
        # handle -> threads whose head is on it; the newest one is the head
        # that pairs, as several can hold one handle under --unsafe
        self.heads: dict[Handle, set[int]] = {}
        self.sessions: list[int] = []  # sessions with a pair redex, ascending
        self.pairs: dict[int, tuple] = {}  # session -> (rule, offer, other)
        self.fired = dict.fromkeys(_RULE_ORDER, 0)
        self.peak_threads = 0
        self.trace: list[TraceEntry] | None = None  # a list when one is kept

    def spawn_main(self, entry: str = "Main") -> None:
        d = self.program.procs.get(entry)
        if d is None:
            raise ValueError(f"program has no {entry} definition")
        if d.params:
            raise ValueError(f"{entry} must take no parameters to be run")
        self.threads[0] = self.program.start[entry]
        self.env[0] = {}
        self.next_thread = 1
        self._refresh((0,))

    def step(self, step_no: int) -> str | None:
        """Fire one uniformly chosen redex and return its rule; None when
        nothing is enabled. A trace entry is kept only when `trace` is a list."""
        singles = self.singles
        n = len(singles)
        k = n + len(self.sessions)
        if not k:
            return None
        k = self.rng.below(k)
        threads, env, shapes, kids = self.threads, self.env, self.shapes, self.kids
        h = -1  # the handle of the session the rule acts on, -1 for none
        if k < n:
            tid = singles[k]
            rule = self.role[tid]
            v = threads[tid]
            touched = (tid,)
            if rule == "sb-call":
                params, args, threads[tid], detail = self.calls[v]
                e = env[tid]
                env[tid] = {p: e[a] for p, a in zip(params, args)}
            elif rule == "rb-par":
                chan = detail = shapes[v][1]
                sid = self.next_session
                self.next_session = sid + 1
                h = 2 * sid
                new = self.next_thread
                self.next_thread = new + 1
                # the forked thread is the one a step creates, the newest
                e = env[tid]
                threads[new], env[new] = kids[v][1], {**e, chan: h + 1}
                threads[tid], e[chan] = kids[v][0], h
                touched = (tid, new)
            elif rule == "rb-cast":
                chan = detail = shapes[v][1]
                threads[tid] = kids[v][0]
                h = env[tid][chan]
            else:  # rb-pick or rb-choice: move to the branch drawn
                _, chan, _, _, labels = shapes[v]
                pick = self.rng.below(len(labels))
                threads[tid] = kids[v][pick]
                detail = labels[pick]
                if chan is not None:
                    h = env[tid][chan]
        else:
            rule, i, j = self.pairs[self.sessions[k - n]]
            v, w = threads[i], threads[j]
            _, chan, needs, _, labels = shapes[v]
            h = env[i][chan]
            touched = (i, j)
            if rule == "rb-tag":
                detail = labels[0]
                threads[i] = kids[v][0]
                threads[j] = kids[w][shapes[w][4].index(detail)]
            elif rule == "rb-signal":
                threads[i], threads[j] = self.done, kids[w][0]
                detail = "close/wait"
            else:  # rb-channel
                payload, var = needs[0], self.nodes[w].var
                env[j][var] = env[i].pop(payload)
                threads[i], threads[j] = kids[v][0], kids[w][0]
                detail = f"{payload} -> {var}" if self.trace is not None else None
        if self.trace is not None:
            self.trace.append(TraceEntry(step_no, rule, f"s{h >> 1}" if h >= 0 else "-",
                                         detail))
        self._refresh(touched)
        self.fired[rule] += 1
        return rule

    def _refresh(self, tids) -> None:
        """Re-read the threads a step touched or created, and re-index each
        one only where its role changed; then re-pair every session whose
        heads they were or are on.

        A thread's role is the single-thread rule it enables, _END at a
        `done` (it leaves the soup), the handle its head waits on, or None
        when it is blocked alone. A name it needs but lacks just leaves it
        blocked; only ill-typed programs executed with --unsafe get there.
        """
        roles, singles, heads, threads, env, shapes = (
            self.role, self.singles, self.heads, self.threads, self.env, self.shapes)
        touched = {}  # the sessions to re-pair, in the order first touched
        for tid in tids:
            new = None
            rule, chan, needs, _, _ = shapes[threads[tid]]
            e = env[tid]
            for name in needs:
                if name not in e:
                    break
            else:
                new = rule if rule is not None else e.get(chan)
            if new is _END:
                del threads[tid], env[tid]
                new = None
            old = roles.get(tid)
            if type(old) is str:
                if type(new) is str:
                    roles[tid] = new
                    continue
                del singles[bisect_left(singles, tid)]
            elif old is not None:
                touched[old >> 1] = None
                if new == old:
                    continue  # a head that stays on its handle: only its session changes
                holders = heads[old]
                holders.discard(tid)
                if not holders:
                    del heads[old]
            if new is None:
                if old is not None:
                    del roles[tid]
                continue
            roles[tid] = new
            if type(new) is str:
                insort(singles, tid)
                continue
            holders = heads.get(new)
            if holders is None:
                heads[new] = {tid}
            else:
                holders.add(tid)
            touched[new >> 1] = None
        # re-pair: the newest head on each side, the closer or sender first
        pairs = self.pairs
        for sid in touched:
            redex = None
            side0, side1 = heads.get(2 * sid), heads.get(2 * sid + 1)
            if side0 and side1:
                i, j = max(side0), max(side1)
                sp, sq = shapes[threads[i]], shapes[threads[j]]
                rule = _MEETS.get((sp[3], sq[3]))
                if rule is None:
                    rule = _MEETS.get((sq[3], sp[3]))
                    i, j, sp, sq = j, i, sq, sp
                # a tag meets a receiver only on a label it offers
                if rule is not None and (rule != "rb-tag" or sp[4][0] in sq[4]):
                    redex = (rule, i, j)
            if redex is not None:
                if sid not in pairs:
                    insort(self.sessions, sid)
                pairs[sid] = redex
            elif sid in pairs:
                del pairs[sid]
                del self.sessions[bisect_left(self.sessions, sid)]
        if len(threads) > self.peak_threads:
            self.peak_threads = len(threads)

    def dump(self) -> list[str]:
        out = []
        nodes, env = self.nodes, self.env
        for tid, occ in self.threads.items():
            names = ", ".join(f"{v}=s{h >> 1}.{h & 1}" for v, h in sorted(env[tid].items()))
            out.append(f"{render(nodes[occ])}  [{names}]")
        return out


def run(program: Program, seed: int = 0, max_steps: int = 100_000,
        entry: str = "Main", want_trace: bool = False) -> RunOutcome:
    """Run the entry definition of a program from a seed."""
    soup = Soup(program, SplitMix64(seed))
    soup.spawn_main(entry)
    return drive(soup, max_steps, want_trace)


def drive(soup: Soup, max_steps: int, want_trace: bool) -> RunOutcome:
    """Step a soup whose entry thread is spawned until it empties, sticks,
    or hits the step limit."""
    trace: list[TraceEntry] = []
    soup.trace = trace if want_trace else None
    steps = 0
    kind = "terminated"
    while soup.threads:
        if steps >= max_steps:
            kind = "step-limit"
            break
        if soup.step(steps) is None:
            kind = "stuck"
            break
        steps += 1
    return RunOutcome(kind, steps, trace, soup.dump(),
                      {"rules": soup.fired, "peakThreads": soup.peak_threads,
                       "sessionsOpened": soup.next_session})

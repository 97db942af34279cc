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
from dataclasses import dataclass, field

from .surface import (Call, Cast, ChanIn, ChanOut, Choice, Close, Done,
                      NewSession, Program, TagComm, Wait, render)

_M64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _M64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-enough draw in [0, n) via the multiply-shift reduction."""
        return (self.next_u64() * n) >> 64


# Every reduction rule the scheduler can fire, as named in traces.
RULES = frozenset({
    "rb-choice", "sb-call", "rb-cast", "rb-par",
    "rb-pick", "rb-signal", "rb-tag", "rb-channel",
})

_RULE_ORDER = sorted(RULES)

# An endpoint handle is (session number, side); the two sides of one
# session carry the same number and opposite side bits.
Handle = tuple[int, int]


@dataclass(slots=True)
class Thread:
    """A live thread: the occurrence it is at, its environment and, once
    it has picked the branch of an output it sends, that branch's index."""
    occ: int
    env: dict[str, Handle]
    pick: int | None = None


@dataclass
class TraceEntry:
    step: int
    rule: str
    session: str
    detail: str

    def line(self) -> str:
        return f"{self.step}\t{self.rule}\t{self.session}\t{self.detail}"

    def to_json(self) -> dict:
        return {"step": self.step, "rule": self.rule,
                "session": self.session, "detail": self.detail}


@dataclass
class RunOutcome:
    kind: str  # "terminated" | "step-limit" | "stuck"
    steps: int
    trace: list[TraceEntry] = field(default_factory=list)
    dump: list[str] = field(default_factory=list)
    # fired count of every rule, peak live threads, sessions opened
    stats: dict = field(default_factory=dict)


_END = "end"  # the rule of a `done`: its thread leaves the soup

# What a thread at an occurrence of each kind of node can do: (the rule it
# fires alone, None when it is a head that pairs, or _END; the channel it
# acts on; the names it needs bound to do anything; its kind of head, a key
# of _MEETS; the labels of its branches).
_SHAPES = {
    Done: lambda n: (_END, None, (), None, ()),
    Call: lambda n: ("sb-call", None, tuple(n.args), None, ()),
    Close: lambda n: (None, n.chan, (), "close", ()),
    Wait: lambda n: (None, n.chan, (), "wait", ()),
    # an output with several branches picks one before it is a head
    TagComm: lambda n: (
        ("rb-pick", n.chan, (n.chan,), "send", n.labels)
        if n.pol == "!" and len(n.labels) > 1
        else (None, n.chan, (), "send" if n.pol == "!" else "receive", n.labels)),
    ChanOut: lambda n: (None, n.chan, (n.payload,), "out", ()),
    ChanIn: lambda n: (None, n.chan, (), "in", ()),
    Choice: lambda n: ("rb-choice", None, (), None, ()),
    NewSession: lambda n: ("rb-par", None, (), None, ()),
    Cast: lambda n: ("rb-cast", n.chan, (n.chan,), None, ()),
}

# (offering head, other head) -> the rule by which they meet; the offering
# head is the closer or the sender, written first in the redex
_MEETS = {("close", "wait"): "rb-signal", ("out", "in"): "rb-channel",
          ("send", "receive"): "rb-tag"}

_BRANCHES = ("branch 1", "branch 2")


class Soup:
    """The live threads and an index of the redexes they enable.

    Threads are keyed by creation number, in creation order. The index
    lists the enabled redexes in one fixed order, which the draw at each
    step depends on: first the single-thread redexes in thread order, then
    the synchronising pairs in session order. A step re-reads only the
    threads it touched, so its cost does not grow with the thread count.

    A thread stands at an occurrence number of the program and moves along
    `program.kids` and `program.start`. What it can do there is read off a
    table with one entry per occurrence, built when the soup is.
    """

    def __init__(self, program: Program, rng: SplitMix64):
        self.program = program
        self.rng = rng
        self.shapes = [_SHAPES[type(n)](n) for n in program.nodes]
        self.threads: dict[int, Thread] = {}
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
        self._spawn(Thread(self.program.start[entry], {}))
        self._refresh((0,))

    def _spawn(self, thread: Thread) -> None:
        self.threads[self.next_thread] = thread
        self.next_thread += 1

    # -- the redex index ------------------------------------------------------

    def _draw(self) -> tuple | None:
        """The redex the generator picks, or None when nothing is enabled."""
        n = len(self.singles)
        total = n + len(self.sessions)
        if not total:
            return None
        k = self.rng.below(total)
        if k < n:
            tid = self.singles[k]
            return (self.role[tid], tid)
        return self.pairs[self.sessions[k - n]]

    def _refresh(self, tids) -> None:
        """Re-read the threads a step touched or created, then the pairs of
        every session whose heads they left or joined."""
        roles, singles, heads, threads = self.role, self.singles, self.heads, self.threads
        sessions = set()
        for tid in tids:
            role = roles.pop(tid, None)
            if type(role) is str:
                del singles[bisect_left(singles, tid)]
            elif role is not None:
                holders = heads[role]
                holders.discard(tid)
                if not holders:
                    del heads[role]
                sessions.add(role[0])
            th = threads.get(tid)
            if th is None:
                continue
            role = self._role(th)
            if role is None:
                continue
            if role is _END:
                del threads[tid]
                continue
            roles[tid] = role
            if type(role) is str:
                insort(singles, tid)
            else:
                heads.setdefault(role, set()).add(tid)
                sessions.add(role[0])
        for sid in sessions:
            self._pair(sid)
        if len(threads) > self.peak_threads:
            self.peak_threads = len(threads)

    def _role(self, th: Thread) -> str | Handle | None:
        """The single-thread rule a live thread enables, _END at a `done`,
        the handle its communication head waits on, or None when it is
        blocked alone.

        A name it needs but lacks just leaves the thread blocked; only
        ill-typed programs executed with --unsafe can get there.
        """
        rule, chan, needs, _, _ = self.shapes[th.occ]
        env = th.env
        for name in needs:
            if name not in env:
                return None
        if rule is None or th.pick is not None:
            return env.get(chan)
        return rule

    def _pair(self, sid: int) -> None:
        """Re-read the heads of one session: at most one pair redex."""
        redex = None
        side0, side1 = self.heads.get((sid, 0)), self.heads.get((sid, 1))
        if side0 and side1:
            i, j = max(side0), max(side1)
            p, q = self.threads[i], self.threads[j]
            rule = self._offers(p, q)
            if rule is not None:
                redex = (rule, i, j)
            else:
                rule = self._offers(q, p)
                if rule is not None:
                    redex = (rule, j, i)
        if redex is not None:
            if sid not in self.pairs:
                insort(self.sessions, sid)
            self.pairs[sid] = redex
        elif sid in self.pairs:
            del self.pairs[sid]
            del self.sessions[bisect_left(self.sessions, sid)]

    def _offers(self, a: Thread, b: Thread) -> str | None:
        """The rule by which head a, the closer or sender, meets head b."""
        shape = self.shapes[b.occ]
        rule = _MEETS.get((self.shapes[a.occ][3], shape[3]))
        if rule == "rb-tag" and self._label(a) not in shape[4]:
            return None
        return rule

    def _label(self, sender: Thread) -> str:
        """The label an output head sends: its one branch or the one it picked."""
        return self.shapes[sender.occ][4][sender.pick or 0]

    def step(self, step_no: int) -> str | None:
        """Fire one uniformly chosen redex and return its rule; None when
        nothing is enabled. A trace entry is kept only when `trace` is a list."""
        redex = self._draw()
        if redex is None:
            return None
        rule = redex[0]
        sid, detail = self._apply(redex)
        if self.trace is not None:
            self.trace.append(TraceEntry(step_no, rule, f"s{sid}" if sid >= 0 else "-",
                                         detail))
        # rb-par is the one rule that creates a thread, the newest one
        self._refresh(redex[1:] if rule != "rb-par"
                      else (redex[1], self.next_thread - 1))
        self.fired[rule] += 1
        return rule

    def _apply(self, redex: tuple) -> tuple[int, str]:
        """Fire a redex; the session it acted on (-1 for none) and the
        detail its trace entry shows."""
        rule = redex[0]
        nodes, kids = self.program.nodes, self.program.kids
        th = self.threads[redex[1]]
        v = th.occ
        if rule == "rb-choice":
            pick = self.rng.below(2)
            th.occ = kids[v][pick]
            return -1, _BRANCHES[pick]
        if rule == "sb-call":
            n = nodes[v]
            params = self.program.procs[n.name].params
            th.env = {p: th.env[a] for (p, _), a in zip(params, n.args)}
            th.occ = self.program.start[n.name]
            return -1, n.name
        if rule == "rb-cast":
            chan = nodes[v].chan
            th.occ = kids[v][0]
            return th.env[chan][0], chan
        if rule == "rb-par":
            chan = nodes[v].chan
            sid = self.next_session
            self.next_session += 1
            renv = dict(th.env)
            th.env = dict(th.env)
            th.env[chan] = (sid, 0)
            renv[chan] = (sid, 1)
            th.occ = kids[v][0]
            self._spawn(Thread(kids[v][1], renv))
            return sid, chan
        if rule == "rb-pick":
            th.pick = self.rng.below(len(kids[v]))
            return th.env[nodes[v].chan][0], self._label(th)
        other = self.threads[redex[2]]
        sid = th.env[nodes[v].chan][0]
        if rule == "rb-signal":
            # the closer is done
            del self.threads[redex[1]]
            other.occ = kids[other.occ][0]
            return sid, "close/wait"
        if rule == "rb-tag":
            label = self._label(th)
            th.occ, th.pick = kids[v][th.pick or 0], None
            w = other.occ
            other.occ = kids[w][self.shapes[w][4].index(label)]
            return sid, label
        if rule == "rb-channel":
            payload, var = nodes[v].payload, nodes[other.occ].var
            other.env = dict(other.env)
            other.env[var] = th.env[payload]
            th.env = dict(th.env)
            del th.env[payload]
            th.occ, other.occ = kids[v][0], kids[other.occ][0]
            return sid, f"{payload} -> {var}"
        raise AssertionError(f"unknown rule {rule}")

    def dump(self) -> list[str]:
        out = []
        nodes, kids = self.program.nodes, self.program.kids
        for th in self.threads.values():
            n = nodes[th.occ]
            if th.pick is not None:
                # a picked output prints as the one branch it will send
                n = TagComm(n.chan, n.pol, [(self._label(th), nodes[kids[th.occ][th.pick]])],
                            n.at)
            env = ", ".join(f"{v}=s{h[0]}.{h[1]}" for v, h in sorted(th.env.items()))
            out.append(f"{render(n)}  [{env}]")
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

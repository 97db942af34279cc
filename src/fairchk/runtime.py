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
                      NewSession, ProcExpr, Program, TagComm, Wait, render)

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


@dataclass
class Thread:
    proc: ProcExpr
    env: dict[str, Handle]


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


class Soup:
    """The live threads and an index of the redexes they enable.

    Threads are keyed by creation number, in creation order. The index
    lists the enabled redexes in one fixed order, which the draw at each
    step depends on: first the single-thread redexes in thread order, then
    the synchronising pairs in session order. A step re-reads only the
    threads it touched, so its cost does not grow with the thread count.
    """

    def __init__(self, program: Program, rng: SplitMix64):
        self.program = program
        self.rng = rng
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

    def spawn_main(self, entry: str = "Main") -> None:
        d = self.program.procs.get(entry)
        if d is None:
            raise ValueError(f"program has no {entry} definition")
        if d.params:
            raise ValueError(f"{entry} must take no parameters to be run")
        self._spawn(Thread(d.body, {}))
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
            if isinstance(role, str):
                del singles[bisect_left(singles, tid)]
            elif role is not None:
                holders = heads[role]
                holders.discard(tid)
                if not holders:
                    del heads[role]
                sessions.add(role[0])
            th = threads[tid]
            if isinstance(th.proc, Done):
                del threads[tid]
                continue
            role = _role(th.proc, th.env)
            if role is None:
                continue
            roles[tid] = role
            if isinstance(role, str):
                insort(singles, tid)
            else:
                heads.setdefault(role, set()).add(tid)
                sessions.add(role[0])
        for sid in sessions:
            self._pair(sid)
        if len(threads) > self.peak_threads:
            self.peak_threads = len(threads)

    def _pair(self, sid: int) -> None:
        """Re-read the heads of one session: at most one pair redex."""
        redex = None
        side0, side1 = self.heads.get((sid, 0)), self.heads.get((sid, 1))
        if side0 and side1:
            i, j = max(side0), max(side1)
            p, q = self.threads[i].proc, self.threads[j].proc
            rule = _offers(p, q)
            if rule is not None:
                redex = (rule, i, j)
            else:
                rule = _offers(q, p)
                if rule is not None:
                    redex = (rule, j, i)
        if redex is not None:
            if sid not in self.pairs:
                insort(self.sessions, sid)
            self.pairs[sid] = redex
        elif sid in self.pairs:
            del self.pairs[sid]
            del self.sessions[bisect_left(self.sessions, sid)]

    def step(self, step_no: int) -> TraceEntry | None:
        """Fire one uniformly chosen redex; None when nothing is enabled."""
        redex = self._draw()
        if redex is None:
            return None
        entry = self._apply(redex, step_no)
        # rb-par is the one rule that creates a thread, the newest one
        self._refresh(redex[1:] if redex[0] != "rb-par"
                      else (redex[1], self.next_thread - 1))
        self.fired[redex[0]] += 1
        return entry

    def _apply(self, redex: tuple, step_no: int) -> TraceEntry:
        rule = redex[0]
        if rule == "rb-choice":
            th = self.threads[redex[1]]
            assert isinstance(th.proc, Choice)
            pick = 1 + self.rng.below(2)
            th.proc = th.proc.left if pick == 1 else th.proc.right
            return TraceEntry(step_no, rule, "-", f"branch {pick}")
        if rule == "sb-call":
            th = self.threads[redex[1]]
            assert isinstance(th.proc, Call)
            d = self.program.procs[th.proc.name]
            env = {v: th.env[a] for (v, _), a in zip(d.params, th.proc.args)}
            name = th.proc.name
            th.proc, th.env = d.body, env
            return TraceEntry(step_no, rule, "-", name)
        if rule == "rb-cast":
            th = self.threads[redex[1]]
            assert isinstance(th.proc, Cast)
            chan = th.proc.chan
            sid = th.env[chan][0]
            th.proc = th.proc.cont
            return TraceEntry(step_no, rule, f"s{sid}", chan)
        if rule == "rb-par":
            th = self.threads[redex[1]]
            assert isinstance(th.proc, NewSession)
            p = th.proc
            sid = self.next_session
            self.next_session += 1
            lenv = dict(th.env)
            renv = dict(th.env)
            lenv[p.chan] = (sid, 0)
            renv[p.chan] = (sid, 1)
            th.proc, th.env = p.left, lenv
            self._spawn(Thread(p.right, renv))
            return TraceEntry(step_no, rule, f"s{sid}", p.chan)
        if rule == "rb-pick":
            th = self.threads[redex[1]]
            assert isinstance(th.proc, TagComm)
            p = th.proc
            label, cont = p.branches[self.rng.below(len(p.branches))]
            th.proc = TagComm(p.chan, p.pol, [(label, cont)], p.at)
            return TraceEntry(step_no, rule, f"s{th.env[p.chan][0]}", label)
        if rule == "rb-signal":
            closer, waiter = self.threads[redex[1]], self.threads[redex[2]]
            assert isinstance(closer.proc, Close) and isinstance(waiter.proc, Wait)
            sid = closer.env[closer.proc.chan][0]
            closer.proc = Done(closer.proc.at)
            waiter.proc = waiter.proc.cont
            return TraceEntry(step_no, rule, f"s{sid}", "close/wait")
        if rule == "rb-tag":
            sender, receiver = self.threads[redex[1]], self.threads[redex[2]]
            assert isinstance(sender.proc, TagComm) and isinstance(receiver.proc, TagComm)
            label, s_cont = sender.proc.branches[0]
            sid = sender.env[sender.proc.chan][0]
            r_cont = dict(receiver.proc.branches)[label]
            sender.proc = s_cont
            receiver.proc = r_cont
            return TraceEntry(step_no, rule, f"s{sid}", label)
        if rule == "rb-channel":
            sender, receiver = self.threads[redex[1]], self.threads[redex[2]]
            assert isinstance(sender.proc, ChanOut) and isinstance(receiver.proc, ChanIn)
            sid = sender.env[sender.proc.chan][0]
            handle = sender.env[sender.proc.payload]
            detail = f"{sender.proc.payload} -> {receiver.proc.var}"
            renv = dict(receiver.env)
            renv[receiver.proc.var] = handle
            receiver.env = renv
            senv = dict(sender.env)
            del senv[sender.proc.payload]
            sender.env = senv
            sender.proc = sender.proc.cont
            receiver.proc = receiver.proc.cont
            return TraceEntry(step_no, rule, f"s{sid}", detail)
        raise AssertionError(f"unknown rule {rule}")

    def dump(self) -> list[str]:
        out = []
        for th in self.threads.values():
            env = ", ".join(f"{v}=s{h[0]}.{h[1]}" for v, h in sorted(th.env.items()))
            out.append(f"{render(th.proc)}  [{env}]")
        return out


def _role(p: ProcExpr, env: dict[str, Handle]) -> str | Handle | None:
    """The single-thread rule a live thread enables, or the handle its
    communication head waits on, or None when it is blocked alone."""
    if isinstance(p, Call):
        return "sb-call" if all(map(env.__contains__, p.args)) else None
    if isinstance(p, TagComm):
        if p.pol == "!" and len(p.branches) > 1:
            return "rb-pick" if p.chan in env else None
        return env.get(p.chan)
    if isinstance(p, (Close, Wait, ChanIn)):
        # a missing handle just leaves the thread blocked; only ill-typed
        # programs executed with --unsafe can get here
        return env.get(p.chan)
    if isinstance(p, NewSession):
        return "rb-par"
    if isinstance(p, Choice):
        return "rb-choice"
    if isinstance(p, Cast):
        return "rb-cast" if p.chan in env else None
    assert isinstance(p, ChanOut)
    return env.get(p.chan) if p.payload in env else None


def _offers(a: ProcExpr, b: ProcExpr) -> str | None:
    """The rule by which head a, the closer or sender, meets head b."""
    if isinstance(a, Close):
        return "rb-signal" if isinstance(b, Wait) else None
    if isinstance(a, ChanOut):
        return "rb-channel" if isinstance(b, ChanIn) else None
    if (isinstance(a, TagComm) and isinstance(b, TagComm) and a.pol == "!"
            and b.pol == "?" and len(a.branches) == 1):
        label = a.branches[0][0]
        if any(label == l for l, _ in b.branches):
            return "rb-tag"
    return None


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
    steps = 0
    kind = "terminated"
    while soup.threads:
        if steps >= max_steps:
            kind = "step-limit"
            break
        entry_line = soup.step(steps)
        if entry_line is None:
            kind = "stuck"
            break
        if want_trace:
            trace.append(entry_line)
        steps += 1
    return RunOutcome(kind, steps, trace, soup.dump(),
                      {"rules": soup.fired, "peakThreads": soup.peak_threads,
                       "sessionsOpened": soup.next_session})

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

from dataclasses import dataclass, field

from .surface import (Call, Cast, ChanIn, ChanOut, Choice, Close, Done,
                      NewSession, ProcExpr, Program, TagComm, Wait, render_proc)

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


class Soup:
    def __init__(self, program: Program, rng: SplitMix64):
        self.program = program
        self.rng = rng
        self.threads: list[Thread] = []
        self.next_session = 0

    def spawn_main(self, entry: str = "Main") -> None:
        d = self.program.procs.get(entry)
        if d is None:
            raise ValueError(f"program has no {entry} definition")
        if d.params:
            raise ValueError(f"{entry} must take no parameters to be run")
        self.threads.append(Thread(d.body, {}))

    # -- redex enumeration ---------------------------------------------------

    def _redexes(self) -> list[tuple]:
        single: list[tuple] = []
        heads: dict[Handle, tuple[int, ProcExpr]] = {}
        for i, th in enumerate(self.threads):
            p = th.proc
            if isinstance(p, Choice):
                single.append(("rb-choice", i))
            elif isinstance(p, Call):
                if all(a in th.env for a in p.args):
                    single.append(("sb-call", i))
            elif isinstance(p, Cast):
                if p.chan in th.env:
                    single.append(("rb-cast", i))
            elif isinstance(p, NewSession):
                single.append(("rb-par", i))
            elif (isinstance(p, TagComm) and p.pol == "!" and len(p.branches) > 1
                  and p.chan in th.env):
                single.append(("rb-pick", i))
            elif isinstance(p, (Close, Wait, TagComm, ChanOut, ChanIn)):
                # a missing handle just leaves the thread blocked; only
                # ill-typed programs executed with --unsafe can get here
                h = th.env.get(p.chan)
                if isinstance(p, ChanOut) and p.payload not in th.env:
                    h = None
                if h is not None:
                    heads[h] = (i, p)
        pairs: list[tuple] = []
        for (sid, side), (i, p) in sorted(heads.items()):
            if side != 0:
                continue
            other = heads.get((sid, 1))
            if other is None:
                continue
            j, q = other
            rule = _sync_rule(p, q)
            if rule is not None:
                pairs.append((rule, i, j) if _is_offer(p) else (rule, j, i))
        return single + pairs

    def step(self, step_no: int) -> TraceEntry | None:
        """Fire one uniformly chosen redex; None when nothing is enabled."""
        redexes = self._redexes()
        if not redexes:
            return None
        redex = redexes[self.rng.below(len(redexes))]
        entry = self._apply(redex, step_no)
        self.threads = [t for t in self.threads if not isinstance(t.proc, Done)]
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
            self.threads.append(Thread(p.right, renv))
            return TraceEntry(step_no, rule, f"s{sid}", p.chan)
        if rule == "rb-pick":
            th = self.threads[redex[1]]
            assert isinstance(th.proc, TagComm)
            p = th.proc
            label, cont = p.branches[self.rng.below(len(p.branches))]
            th.proc = TagComm(p.chan, p.pol, [(label, cont)], p.span)
            return TraceEntry(step_no, rule, f"s{th.env[p.chan][0]}", label)
        if rule == "rb-signal":
            closer, waiter = self.threads[redex[1]], self.threads[redex[2]]
            assert isinstance(closer.proc, Close) and isinstance(waiter.proc, Wait)
            sid = closer.env[closer.proc.chan][0]
            closer.proc = Done(closer.proc.span)
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
        for th in self.threads:
            env = ", ".join(f"{v}=s{h[0]}.{h[1]}" for v, h in sorted(th.env.items()))
            out.append(f"{render_proc(th.proc)}  [{env}]")
        return out


def _is_offer(p: ProcExpr) -> bool:
    """True for the side written first in the rule (closer/sender)."""
    return isinstance(p, (Close, ChanOut)) or (
        isinstance(p, TagComm) and p.pol == "!")


def _sync_rule(p: ProcExpr, q: ProcExpr) -> str | None:
    def match(a: ProcExpr, b: ProcExpr) -> str | None:
        if isinstance(a, Close) and isinstance(b, Wait):
            return "rb-signal"
        if isinstance(a, ChanOut) and isinstance(b, ChanIn):
            return "rb-channel"
        if (isinstance(a, TagComm) and isinstance(b, TagComm)
                and a.pol == "!" and b.pol == "?" and len(a.branches) == 1
                and a.branches[0][0] in dict(b.branches)):
            return "rb-tag"
        return None

    return match(p, q) or match(q, p)


def run(program: Program, seed: int = 0, max_steps: int = 100_000,
        entry: str = "Main", want_trace: bool = False) -> RunOutcome:
    """Drive the soup until it empties, sticks, or hits the step limit."""
    rng = SplitMix64(seed)
    soup = Soup(program, rng)
    soup.spawn_main(entry)
    trace: list[TraceEntry] = []
    steps = 0
    # a lone done thread is already terminal
    soup.threads = [t for t in soup.threads if not isinstance(t.proc, Done)]
    while soup.threads:
        if steps >= max_steps:
            return RunOutcome("step-limit", steps, trace, soup.dump())
        entry_line = soup.step(steps)
        if entry_line is None:
            return RunOutcome("stuck", steps, trace, soup.dump())
        if want_trace:
            trace.append(entry_line)
        steps += 1
    return RunOutcome("terminated", steps, trace)

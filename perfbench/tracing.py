"""Spans and counters around fairchk's layers, installed from outside.

`Tracer.install` replaces functions and methods of the imported fairchk
modules with wrappers and returns a function that puts the originals back.
A module-level function is replaced under every name that refers to it in
any fairchk module, because modules import each other's functions by name
(`typecheck.equiv`, `subtyping.reachable_pairs`, `cli.load`, ...).

Spans are kept in memory as [name, start, end, parent, op] and written out
when the run ends. A layer's time is its self time: the span's duration
minus the time of the spans it directly contains. A recursive callee is
counted on every call but timed only at its outermost call.
`TypeTable.render` is only timed, and its wrapper steps aside for the
inner calls, so a deep render fails at the same depth traced or not.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter

# (module, attribute, span name or None, counter name or None, size of a
# result or None to count calls). Spans cover the calls into each layer;
# counters measure the work a call did.
TARGETS = [
    ("surface", "lex", "surface.lex", "surface.tokens", len),
    ("surface", "parse", "surface.parse", None, None),
    ("surface", "resolve", "surface.resolve", None, None),
    ("types", "equiv", "types.equiv", "types.equiv_calls", None),
    ("types", "reachable_pairs", "types.reachable_pairs", "types.carrier_pairs", len),
    ("semantics", "compatible", "semantics.compatible", None, None),
    ("semantics", "session_rank", "semantics.session_rank", None, None),
    ("semantics", "build_config_graph", None, "semantics.config_nodes",
     lambda g: len(g.nodes)),
    ("subtyping", "simulate", "subtyping.simulate", "subtyping.witness_pairs",
     lambda sim: len(sim.witness)),
    ("subtyping", "solve_weights", "subtyping.solve_weights", None, None),
    ("typecheck", "Checker.check_types", "typecheck.check_types", None, None),
    ("typecheck", "Checker.check_safe", "typecheck.check_safe", None, None),
    ("typecheck", "Checker.compute_ranks", "typecheck.compute_ranks", None, None),
    ("typecheck", "Checker.min_rank", None, "typecheck.min_rank_calls", None),
    ("typecheck", "Checker.check_action_bounds", "typecheck.check_action_bounds",
     None, None),
    ("typecheck", "Checker.action_bounded", None, "typecheck.action_bounded_calls",
     None),
    ("typecheck", "Checker.infer_branches", "typecheck.infer_branches", None, None),
    ("runtime", "Soup._redexes", None, "runtime.redexes_enumerated", len),
    ("cli", "main", "cli.main", None, None),
    ("cli", "_emit_json", "cli.emit", None, None),
]

# Recursive methods timed at their outermost call only.
OUTERMOST = [("types", "TypeTable.render", "types.render")]

# (metric, unit, better, how it is computed). "self:<span>" is the summed
# self time of a span in ms; "count:<counter>" a counter.
LAYER_METRICS = [
    ("surface.lex_ms", "ms", "lower", "self:surface.lex"),
    ("surface.tokens", "count", "lower", "count:surface.tokens"),
    ("surface.parse_ms", "ms", "lower", "self:surface.parse"),
    ("surface.resolve_ms", "ms", "lower", "self:surface.resolve"),
    ("types.equiv_calls", "count", "lower", "count:types.equiv_calls"),
    ("types.equiv_ms", "ms", "lower", "self:types.equiv"),
    ("types.reachable_pairs_ms", "ms", "lower", "self:types.reachable_pairs"),
    ("types.carrier_pairs", "count", "lower", "count:types.carrier_pairs"),
    ("types.render_ms", "ms", "lower", "self:types.render"),
    ("semantics.compatible_ms", "ms", "lower", "self:semantics.compatible"),
    ("semantics.session_rank_ms", "ms", "lower", "self:semantics.session_rank"),
    ("semantics.config_nodes", "count", "lower", "count:semantics.config_nodes"),
    ("subtyping.simulate_ms", "ms", "lower", "self:subtyping.simulate"),
    ("subtyping.solve_weights_ms", "ms", "lower", "self:subtyping.solve_weights"),
    ("subtyping.witness_pairs", "count", "lower", "count:subtyping.witness_pairs"),
    ("typecheck.check_types_ms", "ms", "lower", "self:typecheck.check_types"),
    ("typecheck.check_safe_ms", "ms", "lower", "self:typecheck.check_safe"),
    ("typecheck.compute_ranks_ms", "ms", "lower", "self:typecheck.compute_ranks"),
    ("typecheck.min_rank_calls", "count", "lower", "count:typecheck.min_rank_calls"),
    ("typecheck.check_action_bounds_ms", "ms", "lower",
     "self:typecheck.check_action_bounds"),
    ("typecheck.action_bounded_calls", "count", "lower",
     "count:typecheck.action_bounded_calls"),
    ("typecheck.infer_branches_ms", "ms", "lower", "self:typecheck.infer_branches"),
    ("runtime.steps", "count", "lower", "count:runtime.steps"),
    ("runtime.step_us", "us", "lower", "step_us"),
    ("runtime.live_threads_peak", "count", "lower", "live_threads_peak"),
    ("runtime.redexes_enumerated", "count", "lower", "count:runtime.redexes_enumerated"),
    ("runtime.fired_per_enumerated", "ratio", "higher", "fired_per_enumerated"),
    ("cli.self_ms", "ms", "lower", "self:cli.main"),
    ("cli.emit_ms", "ms", "lower", "self:cli.emit"),
]

# Counts that must repeat exactly across traced runs with one seed.
DETERMINISTIC_COUNTS = [
    "surface.tokens", "types.carrier_pairs", "semantics.config_nodes",
    "subtyping.witness_pairs", "typecheck.min_rank_calls",
    "typecheck.action_bounded_calls", "runtime.steps", "runtime.redexes_enumerated",
]


def _resolve(module, attr: str):
    """(owner, name) of a dotted attribute; AttributeError when it is gone."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    getattr(owner, name)
    return owner, name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter[str] = Counter()
        self.live_threads_peak = 0
        self.missing: list[str] = []

    # -- wrappers --------------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, span_name, counter, size):
        counts = self.counts

        def record(result):
            if counter is not None:
                counts[counter] += 1 if size is None else size(result)

        if span_name is None:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                record(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                span = self._open(span_name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(span)
                record(result)
                return result
        return wrapper

    def _outermost(self, owner, name: str, span_name: str):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            # inner recursive calls reach the original directly
            setattr(owner, name, original)
            span = self._open(span_name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(span)
                setattr(owner, name, wrapper)
        return wrapper

    def _step(self, fn):
        counts = self.counts

        def wrapper(soup, *args, **kwargs):
            self.live_threads_peak = max(self.live_threads_peak, len(soup.threads))
            span = self._open("runtime.step")
            try:
                entry = fn(soup, *args, **kwargs)
            finally:
                self._close(span)
            if entry is not None:
                counts["runtime.steps"] += 1
            return entry
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every target in the imported fairchk; return the undo function.

        A target that no longer exists is skipped and listed in `missing`,
        so that its metrics read 0 rather than the run failing.
        """
        modules = [m for n, m in sys.modules.items()
                   if n == "fairchk" or n.startswith("fairchk.")]
        mod = {n.rsplit(".", 1)[-1]: m for n, m in sys.modules.items()
               if n.startswith("fairchk.")}
        undo: list[tuple] = []

        def find(module: str, attr: str):
            try:
                return _resolve(mod[module], attr)
            except (KeyError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                return None

        def replace(owner, name, wrapper):
            original = getattr(owner, name)
            if isinstance(owner, type):
                undo.append((owner, name, original))
                setattr(owner, name, wrapper)
                return
            # a function imported by name elsewhere is patched there too
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, attr, original))
                        setattr(m, attr, wrapper)

        for module, attr, span_name, counter, size in TARGETS:
            if found := find(module, attr):
                replace(*found, self._wrap(getattr(*found), span_name, counter, size))
        for module, attr, span_name in OUTERMOST:
            if found := find(module, attr):
                replace(*found, self._outermost(*found, span_name))
        if found := find("runtime", "Soup.step"):
            replace(*found, self._step(getattr(*found)))

        def uninstall() -> None:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
        return uninstall

    # -- results ----------------------------------------------------------------

    def self_ms(self) -> Counter[str]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter[str] = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1000.0
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        own = self.self_ms()
        steps_us = [(s[2] - s[1]) * 1e6 for s in self.spans if s[0] == "runtime.step"]
        enumerated = self.counts["runtime.redexes_enumerated"]
        derived = {
            "step_us": statistics.median(steps_us) if steps_us else 0.0,
            "live_threads_peak": self.live_threads_peak,
            "fired_per_enumerated": (self.counts["runtime.steps"] / enumerated
                                     if enumerated else 0.0),
        }
        out = {}
        for metric, unit, _, source in LAYER_METRICS:
            kind, _, key = source.partition(":")
            if kind == "self":
                value = own[key]
            elif kind == "count":
                value = self.counts[key]
            else:
                value = derived[kind]
            out[metric] = (value, unit)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

"""Outside-in layer timing for the traced run.

Every layer is timed at the name its caller looks up: a module global the
caller reads at call time (``repro.core.optimizer.build_dfsm``), or a method
on the class (``MemoryHierarchy.access``), or the closure a factory returns
(``make_fast_access``).  Nothing under ``src/`` changes, no hierarchy
instance is patched and telemetry stays off, so the compiled kernel's cache
mirror stays eligible and the traced run executes the same program as the
untraced one (its simulated statistics are checked to be identical).

Spans are kept in memory as ``(id, name, start, end, parent)``.  Layers that
run once per simulated access (demand path, prefetch issue, DFSM detection)
are *leaves*: they have no child layers, and instead of one span per call
they keep a ``(calls, seconds)`` aggregate per enclosing span, which bounds
memory.  A layer's self time is its span time minus the time of the spans
inside it; the root span's self time is ``trace.unattributed_s``.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional

#: Reconciliation tolerance: layer self times plus ``trace.unattributed_s``
#: must equal the traced wall time within ``RECONCILE_REL * wall +
#: RECONCILE_ABS`` seconds.
RECONCILE_REL = 0.01
RECONCILE_ABS = 0.002
#: Coverage bound: at most this share of the traced wall time may be in no
#: layer (``trace.unattributed_s``).
UNATTRIBUTED_MAX = 0.05

ROOT = "run"

ALL = frozenset(("online-fast", "baseline-ref", "durable-ref", "corun-fast"))
DYN = frozenset(("online-fast", "durable-ref", "corun-fast"))

#: Which workloads each layer does work on; it must fire there and nowhere
#: else.  ``corun-fast`` wires its tenants itself (no prepare/finish) over a
#: TenantHierarchy (tenancy.* instead of machine.*); ``baseline-ref`` runs
#: the uninstrumented binary, so no online-pipeline layer fires on it.
FIRES: dict[str, frozenset] = {
    "workloads.build": ALL,
    "vulcan.instrument": DYN,
    "engine.prepare": frozenset(("online-fast", "baseline-ref", "durable-ref")),
    "engine.finish": frozenset(("online-fast", "baseline-ref", "durable-ref")),
    "interp.dispatch": frozenset(("baseline-ref", "durable-ref")),
    "fastpath.dispatch": frozenset(("online-fast", "corun-fast")),
    "fastpath.compile": frozenset(("online-fast", "corun-fast")),
    "machine.access": frozenset(("online-fast", "baseline-ref", "durable-ref")),
    "machine.prefetch": frozenset(("online-fast", "durable-ref")),
    "profiling.flush": DYN,
    "sequitur.extend": DYN,
    "analysis": DYN,
    "dfsm.build": DYN,
    "dfsm.codegen": DYN,
    "dfsm.detect": DYN,
    "vulcan.inject": DYN,
    "vulcan.deopt": DYN,
    "vulcan.reinject": frozenset(("corun-fast",)),
    "core.listener": DYN,
    "durability.checkpoint": frozenset(("durable-ref",)),
    "tenancy.access": frozenset(("corun-fast",)),
    "tenancy.prefetch": frozenset(("corun-fast",)),
}


class SpanRecorder:
    """In-memory spans plus per-layer ``[calls, total_s, self_s]`` totals,
    timed by ``clock`` (the benchmark's clock leaves out its calibration)."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        #: finished spans: (id, name, start, end, parent id; 0 = none)
        self.spans: list[tuple[int, str, float, float, int]] = []
        #: leaf aggregates: (name, parent span id, calls, seconds)
        self.leaves: list[tuple[str, int, int, float]] = []
        self.totals: dict[str, list] = {}
        #: work counts measured at layer boundaries (tokens, streams, bytes)
        self.counts: dict[str, int] = {}
        #: open frames: [span id, child seconds, {leaf: [calls, seconds]}]
        self._stack: list[list] = []
        self._next_id = 0

    def _totals(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def _count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """A span around every call of ``fn``; ``before(args)`` and
        ``after(result)`` add work counts under ``name``."""
        stack, clock, spans, leaves = self._stack, self.clock, self.spans, self.leaves
        totals = self._totals(name)

        def traced(*args, **kwargs):
            if before is not None:
                self._count(name, before(args))
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0, {}]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, name, start, end, parent))
                for leaf, (calls, secs) in frame[2].items():
                    leaves.append((leaf, sid, calls, secs))
            if after is not None:
                self._count(name, after(result))
            return result

        return traced

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        """Time every call of ``fn`` into the enclosing span's aggregate."""
        stack, clock = self._stack, self.clock
        totals = self._totals(name)

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur
                frame = stack[-1]
                frame[1] += dur
                agg = frame[2].get(name)
                if agg is None:
                    frame[2][name] = [1, dur]
                else:
                    agg[0] += 1
                    agg[1] += dur

        return traced

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def open_spans(self) -> int:
        return len(self._stack)

    def write(self, path: Path, meta: dict) -> None:
        """JSON lines: the meta record, every span, every leaf aggregate;
        times in seconds from the first span's start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")
            for name, parent, calls, secs in self.leaves:
                fh.write(json.dumps({"leaf": name, "parent": parent,
                                     "calls": calls, "seconds": secs}) + "\n")


# ------------------------------------------------------------ installation


def _len_buffer(args) -> int:
    return len(args[0].ref_buffer)


def _len_tokens(args) -> int:
    return len(args[1])


def _as_list(fn: Callable) -> Callable:
    """``extend_batch`` taking any iterable: materialize it so its length can
    be counted (``extend_batch`` does the same conversion itself)."""

    def extend_batch(self, tokens):
        if not isinstance(tokens, (list, tuple)):
            tokens = list(tokens)
        return fn(self, tokens)

    return extend_batch


def _file_bytes(path: Optional[Path]) -> int:
    return path.stat().st_size if path is not None else 0


def _dispatch(rec: SpanRecorder, fn: Callable) -> Callable:
    """``Interpreter.run``/``run_slice``: a span only when the call takes the
    reference kernel (the compiled kernel is timed at ``run_fast``)."""
    from repro.fastpath import fastpath_enabled

    signature = inspect.signature(fn)
    traced = rec.wrap("interp.dispatch", fn)

    def dispatch(*args, **kwargs):
        fast = signature.bind(*args, **kwargs).arguments.get("fast")
        return (fn if fastpath_enabled(fast) else traced)(*args, **kwargs)

    return dispatch


def _leaf_factory(rec: SpanRecorder, name: str, factory: Callable) -> Callable:
    def make(*args, **kwargs):
        return rec.wrap_leaf(name, factory(*args, **kwargs))

    return make


def _patches(rec: SpanRecorder) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, replacement) for every layer entry point."""
    import repro.core.optimizer as optimizer
    import repro.durability.runner as durable_runner
    import repro.engine.levels as levels
    import repro.fastpath.compiler as compiler
    import repro.fastpath.kernel as kernel
    import repro.tenancy.scheduler as scheduler
    from repro.analysis.hotstreams import HotStreamAnalyzer
    from repro.dfsm.codegen import DetectHandler
    from repro.interp.interpreter import Interpreter
    from repro.machine.hierarchy import MemoryHierarchy
    from repro.profiling.profiler import TemporalProfiler
    from repro.sequitur.sequitur import Sequitur
    from repro.tenancy.hierarchy import TenantHierarchy

    w, leaf = rec.wrap, rec.wrap_leaf
    return [
        (levels, "prepare_workload", w("engine.prepare", levels.prepare_workload)),
        (levels, "finish_workload", w("engine.finish", levels.finish_workload)),
        (durable_runner, "prepare_workload", w("engine.prepare", durable_runner.prepare_workload)),
        (durable_runner, "finish_workload", w("engine.finish", durable_runner.finish_workload)),
        (durable_runner, "save_checkpoint",
         w("durability.checkpoint", durable_runner.save_checkpoint, after=_file_bytes)),
        (levels, "instrument_program", w("vulcan.instrument", levels.instrument_program)),
        (scheduler, "instrument_program", w("vulcan.instrument", scheduler.instrument_program)),
        (Interpreter, "run", _dispatch(rec, Interpreter.run)),
        (Interpreter, "run_slice", _dispatch(rec, Interpreter.run_slice)),
        (kernel, "run_fast", w("fastpath.dispatch", kernel.run_fast)),
        (compiler, "_compile_mode", w("fastpath.compile", compiler._compile_mode)),
        (MemoryHierarchy, "access", leaf("machine.access", MemoryHierarchy.access)),
        (MemoryHierarchy, "issue_prefetch",
         leaf("machine.prefetch", MemoryHierarchy.issue_prefetch)),
        (kernel, "make_fast_access", _leaf_factory(rec, "machine.access", kernel.make_fast_access)),
        (kernel, "make_fast_issue_prefetch",
         _leaf_factory(rec, "machine.prefetch", kernel.make_fast_issue_prefetch)),
        (TenantHierarchy, "access", leaf("tenancy.access", TenantHierarchy.access)),
        (TenantHierarchy, "issue_prefetch",
         leaf("tenancy.prefetch", TenantHierarchy.issue_prefetch)),
        (TemporalProfiler, "flush", w("profiling.flush", TemporalProfiler.flush, before=_len_buffer)),
        (Sequitur, "extend_batch",
         _as_list(w("sequitur.extend", Sequitur.extend_batch, before=_len_tokens))),
        (HotStreamAnalyzer, "find_hot_streams",
         w("analysis", HotStreamAnalyzer.find_hot_streams, after=len)),
        (optimizer, "build_dfsm", w("dfsm.build", optimizer.build_dfsm)),
        (optimizer, "generate_handlers", w("dfsm.codegen", optimizer.generate_handlers)),
        (DetectHandler, "step", leaf("dfsm.detect", DetectHandler.step)),
        (optimizer, "inject_detection", w("vulcan.inject", optimizer.inject_detection)),
        (optimizer, "deoptimize", w("vulcan.deopt", optimizer.deoptimize)),
        (optimizer, "reinject_detection", w("vulcan.reinject", optimizer.reinject_detection)),
        (optimizer.DynamicPrefetcher, "burst_begin",
         w("core.listener", optimizer.DynamicPrefetcher.burst_begin)),
        (optimizer.DynamicPrefetcher, "burst_end",
         w("core.listener", optimizer.DynamicPrefetcher.burst_end)),
    ]


@contextmanager
def patched(patches: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Install ``(owner, attribute, replacement)`` patches; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def traced_layers(rec: SpanRecorder) -> Iterator[None]:
    """Every layer wrapper installed, before any interpreter is built."""
    with patched(_patches(rec)):
        yield


# ---------------------------------------------------------------- metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: (name, unit, better, value(rec, outcome, traced, untraced)); the last two
#: are the traced run's and the untraced median's wall-to-calibration ratio.
#: ``_s`` metrics are self times.
PER_LAYER: list[tuple[str, str, str, Callable]] = [
    ("workloads.build_s", "s", "lower", lambda r, o, w, u: r.self_s("workloads.build")),
    ("vulcan.instrument_s", "s", "lower", lambda r, o, w, u: r.self_s("vulcan.instrument")),
    ("engine.prepare_s", "s", "lower", lambda r, o, w, u: r.self_s("engine.prepare")),
    ("engine.finish_s", "s", "lower", lambda r, o, w, u: r.self_s("engine.finish")),
    ("interp.dispatch_self_s", "s", "lower", lambda r, o, w, u: r.self_s("interp.dispatch")),
    ("fastpath.dispatch_self_s", "s", "lower",
     lambda r, o, w, u: r.self_s("fastpath.dispatch")),
    ("fastpath.compile_calls", "count", "lower", lambda r, o, w, u: r.calls("fastpath.compile")),
    ("fastpath.compile_s", "s", "lower", lambda r, o, w, u: r.self_s("fastpath.compile")),
    ("machine.access_calls", "count", "lower", lambda r, o, w, u: r.calls("machine.access")),
    ("machine.access_s", "s", "lower", lambda r, o, w, u: r.self_s("machine.access")),
    ("machine.prefetch_calls", "count", "lower", lambda r, o, w, u: r.calls("machine.prefetch")),
    ("machine.prefetch_s", "s", "lower", lambda r, o, w, u: r.self_s("machine.prefetch")),
    ("machine.prefetch_accuracy", "ratio", "higher",
     lambda r, o, w, u: _ratio(o.prefetch_useful, o.prefetch_issued)),
    ("profiling.flush_calls", "count", "lower", lambda r, o, w, u: r.calls("profiling.flush")),
    ("profiling.flush_self_s", "s", "lower", lambda r, o, w, u: r.self_s("profiling.flush")),
    ("profiling.tokens", "count", "lower", lambda r, o, w, u: r.counts.get("profiling.flush", 0)),
    ("sequitur.extend_calls", "count", "lower", lambda r, o, w, u: r.calls("sequitur.extend")),
    ("sequitur.extend_s", "s", "lower", lambda r, o, w, u: r.self_s("sequitur.extend")),
    ("sequitur.tokens_per_s", "1/s", "higher",
     lambda r, o, w, u: _ratio(r.counts.get("sequitur.extend", 0), r.self_s("sequitur.extend"))),
    ("analysis.calls", "count", "lower", lambda r, o, w, u: r.calls("analysis")),
    ("analysis.s", "s", "lower", lambda r, o, w, u: r.self_s("analysis")),
    ("analysis.streams", "count", "higher", lambda r, o, w, u: r.counts.get("analysis", 0)),
    ("dfsm.build_s", "s", "lower", lambda r, o, w, u: r.self_s("dfsm.build")),
    ("dfsm.codegen_s", "s", "lower", lambda r, o, w, u: r.self_s("dfsm.codegen")),
    ("dfsm.detect_calls", "count", "lower", lambda r, o, w, u: r.calls("dfsm.detect")),
    ("dfsm.detect_s", "s", "lower", lambda r, o, w, u: r.self_s("dfsm.detect")),
    ("vulcan.inject_s", "s", "lower", lambda r, o, w, u: r.self_s("vulcan.inject")),
    ("vulcan.deopt_s", "s", "lower", lambda r, o, w, u: r.self_s("vulcan.deopt")),
    ("vulcan.reinject_calls", "count", "lower", lambda r, o, w, u: r.calls("vulcan.reinject")),
    ("vulcan.reinject_s", "s", "lower", lambda r, o, w, u: r.self_s("vulcan.reinject")),
    ("core.optimize_cycles", "count", "lower", lambda r, o, w, u: o.optimize_cycles),
    ("core.listener_self_s", "s", "lower", lambda r, o, w, u: r.self_s("core.listener")),
    ("durability.checkpoint_calls", "count", "lower",
     lambda r, o, w, u: r.calls("durability.checkpoint")),
    ("durability.checkpoint_s", "s", "lower",
     lambda r, o, w, u: r.self_s("durability.checkpoint")),
    ("durability.checkpoint_mb", "MB", "lower",
     lambda r, o, w, u: r.counts.get("durability.checkpoint", 0) / 1e6),
    ("tenancy.access_calls", "count", "lower", lambda r, o, w, u: r.calls("tenancy.access")),
    ("tenancy.access_s", "s", "lower", lambda r, o, w, u: r.self_s("tenancy.access")),
    ("tenancy.prefetch_calls", "count", "lower", lambda r, o, w, u: r.calls("tenancy.prefetch")),
    ("tenancy.prefetch_s", "s", "lower", lambda r, o, w, u: r.self_s("tenancy.prefetch")),
    ("tenancy.slices", "count", "lower", lambda r, o, w, u: o.slices),
    ("trace.unattributed_s", "s", "lower", lambda r, o, w, u: r.self_s(ROOT)),
    ("trace.overhead_pct", "%", "lower", lambda r, o, w, u: 100.0 * (w / u - 1.0)),
]


def layer_metrics(rec: SpanRecorder, outcome, traced: float, untraced: float) -> dict:
    return {
        name: {"value": value(rec, outcome, traced, untraced), "unit": unit}
        for name, unit, _better, value in PER_LAYER
    }


# ------------------------------------------------------------------- gates


def reconciliation_problems(rec: SpanRecorder, traced_wall: float) -> list[str]:
    """Self times (root included) must sum to the traced wall time, and the
    root's self time must stay under :data:`UNATTRIBUTED_MAX` of it.

    The sum holds by construction while the recorder's bookkeeping is sound
    (every span closed, every child and leaf charged to its own parent); it
    is the check of that bookkeeping.  The coverage bound is the check of
    the wrappers: a layer whose entry point is no longer intercepted leaves
    its time in the root.
    """
    problems = []
    if rec.open_spans():
        problems.append(f"{rec.open_spans()} span(s) left open")
    negative = [name for name, (_c, _t, s) in rec.totals.items() if s < -1e-6]
    if negative:
        problems.append(f"negative self time in {', '.join(sorted(negative))}")
    total = sum(s for _c, _t, s in rec.totals.values())
    tolerance = RECONCILE_REL * traced_wall + RECONCILE_ABS
    if abs(total - traced_wall) > tolerance:
        problems.append(
            f"layer self times sum to {total:.6f} s, traced wall is {traced_wall:.6f} s "
            f"(tolerance {tolerance:.6f} s)"
        )
    unattributed = rec.self_s(ROOT)
    if unattributed > UNATTRIBUTED_MAX * traced_wall:
        problems.append(
            f"{unattributed:.6f} s of {traced_wall:.6f} s is in no layer "
            f"(at most {UNATTRIBUTED_MAX:.0%})"
        )
    return problems


def firing_problems(rec: SpanRecorder, workload: str) -> list[str]:
    """Each layer fires where :data:`FIRES` says it works, and only there."""
    problems = []
    for layer, where in FIRES.items():
        calls = rec.calls(layer)
        if workload in where and not calls:
            problems.append(f"{layer} never fired on {workload}")
        elif workload not in where and calls:
            problems.append(f"{layer} fired {calls} times on {workload}, expected none")
    return problems

"""Trampoline driving compiled procedure kernels with reference semantics.

The compiled kernels (:mod:`repro.fastpath.compiler`) only ever execute
straight-line traces inside one procedure version.  Everything else — calls,
returns, burst transitions, instruction limits, and any instruction pointer
the compiled dispatcher does not recognise — crosses back into this
trampoline, which replays the exact code the reference dispatch loop runs
for the same event.  For instruction-pointer positions that are not trace
leaders (a slice can park anywhere) the trampoline executes the
*reference* ``_dispatch`` one instruction at a time (``limit = icount + 1``)
until it reaches one; when a bounded slice's remainder is shorter than the
longest trace from the current leader, one reference call runs the
remainder up to the limit.  Both are bit-identical by construction: the
slice-composition invariant guarantees that any split of a run into
slices, single-instruction ones included, equals the unsplit run.
"""

from __future__ import annotations

from repro.core.hwpref import MarkovPrefetcher, StridePrefetcher
from repro.errors import ExecutionError
from repro.interp.lowering import lower_procedure
from repro.telemetry.events import BurstBegin, BurstEnd

from repro.fastpath.compiler import (
    SIG_CALL,
    SIG_PARK,
    SIG_RET,
    SIG_TRANS,
    compiled_entry,
)
from repro.fastpath.hiermirror import (
    make_fast_access,
    make_fast_issue_prefetch,
    mirror_eligible,
)

_CHECKING, _INSTRUMENTED = 0, 1


class FastCtx:
    """Per-run bindings the compiled kernels read (rebuilt every entry).

    Nothing here is part of the architectural state: a checkpoint restore
    builds a fresh context (and recompiles procedures) transparently.
    """

    __slots__ = (
        "interp", "hier", "access", "issue_prefetch", "mem", "allocate",
        "check_cost", "trace_cost", "detect_base", "detect_per_case", "pf_cost",
        "mirror", "l1", "l1_sets", "l1_mask", "l1_assoc",
        "l2", "l2_sets", "l2_mask", "l2_assoc", "l2_lat", "mem_lat",
        "inflight", "pf_unused", "block_shift", "call", "ret_value",
    )

    def __init__(self, interp) -> None:
        hier = interp.hierarchy
        cfg = interp.config
        self.interp = interp
        self.hier = hier
        self.access = hier.access
        self.issue_prefetch = hier.issue_prefetch
        self.mem = interp.memory._words
        self.allocate = interp.memory.allocate
        self.check_cost = cfg.check_cost
        self.trace_cost = cfg.trace_cost
        self.detect_base = cfg.detect_base
        self.detect_per_case = cfg.detect_per_case
        self.pf_cost = cfg.prefetch_issue_cost
        # The inline L1-hit mirror and the specialized access/issue closures
        # are only sound against the plain hierarchy with unwrapped methods,
        # telemetry off and no ledger; tenancy's TenantHierarchy, sampled
        # telemetry runs and `explain` ledger runs go through the reference
        # bound methods (still fast-dispatched, just not cache-inlined).
        self.mirror = mirror_eligible(hier)
        if self.mirror:
            self.access = make_fast_access(hier)
            self.issue_prefetch = make_fast_issue_prefetch(hier)
            self.l1 = hier.l1
            self.l1_sets = hier.l1._sets
            self.l1_mask = hier.l1._set_mask
            self.l1_assoc = hier.l1.geometry.associativity
            self.l2 = hier.l2
            self.l2_sets = hier.l2._sets
            self.l2_mask = hier.l2._set_mask
            self.l2_assoc = hier.l2.geometry.associativity
            self.l2_lat = hier.config.l2_latency
            self.mem_lat = hier.config.memory_latency
            self.inflight = hier._inflight
            self.pf_unused = hier._prefetched_unused
            self.block_shift = hier._block_shift
        self.call = None
        self.ret_value = 0


def _final_stats(state):
    """Assemble ExecStats from a finished parked state (reference layout)."""
    from repro.interp.interpreter import ExecStats

    stats = ExecStats()
    stats.cycles = state.cycles
    stats.instructions = state.icount
    stats.memory_refs = state.mem_refs
    stats.mem_stall_cycles = state.mem_stall
    stats.checks_executed = state.nchecks
    stats.bursts = state.bursts
    stats.traced_refs = state.traced
    stats.trace_charges = state.trace_chg
    stats.detect_cycles = state.detect_cyc
    stats.detects_executed = state.detects
    stats.prefetches_issued = state.pf_issued
    stats.charged_cycles = state.charged
    stats.return_value = state.return_value
    return stats


def _burst_transition(interp, state) -> None:
    """Replay the reference CHECK-transition block on the parked state.

    The compiled kernel has already charged ``check_cost``, counted the
    check, driven the counter to zero and flushed everything (including
    ``interp.dfsm_state``); this performs the mode switch, telemetry and
    listener callback in exactly the reference order.  The listener may
    mutate reload values, tracing flags and ``dfsm_state`` — the next
    kernel entry (or reference single-step) re-reads them, just as the
    reference loop does after a callback.
    """
    telem = interp.telemetry
    listener = interp.check_listener
    if state.mode == _CHECKING:
        state.mode = _INSTRUMENTED
        state.n_instr = interp.n_instr0
        if telem.enabled:
            telem.emit(BurstBegin(state.cycles))
        if listener is not None:
            extra = listener.burst_begin(state.cycles)
            state.cycles += extra
            state.charged += extra
            state.n_instr = interp.n_instr0
    else:
        state.mode = _CHECKING
        state.n_check = interp.n_check0
        state.bursts += 1
        if telem.enabled:
            telem.emit(BurstEnd(state.cycles, state.bursts))
        if listener is not None:
            extra = listener.burst_end(state.cycles)
            state.cycles += extra
            state.charged += extra
            # New reload values take effect for the period starting now.
            state.n_check = interp.n_check0


def run_fast(interp, state, limit: int, raise_on_limit: bool):
    """Drive ``state`` to completion or to ``limit`` instructions.

    Mirrors ``Interpreter._dispatch``'s contract: returns the final
    :class:`~repro.interp.interpreter.ExecStats` when the program finishes,
    None when the instruction limit parks it (``raise_on_limit=False``), and
    raises :class:`~repro.errors.ExecutionError` on the limit otherwise.
    """
    ctx = FastCtx(interp)
    program = interp.program
    mirror = ctx.mirror
    hwpref = interp.hw_prefetcher
    # Exact-type match: a subclass may override observe(), so only the two
    # known implementations get their observers compiled inline.
    if hwpref is None:
        hwkind = ""
    elif type(hwpref) is StridePrefetcher:
        hwkind = "stride"
    elif type(hwpref) is MarkovPrefetcher:
        hwkind = "markov"
    else:
        hwkind = "other"
    # Per-procedure attribution: compiled kernels flush every counter back
    # into `state` before returning a signal, so charging the parked state at
    # each procedure boundary is exact — the same charge points the reference
    # loop uses (CALL before the switch, RET before the pop, park/finish).
    pattr = interp.proc_attr
    # Per-run memo over the weak-keyed compile cache: the trampoline is
    # crossed on every call/return, and the WeakKeyDictionary lookup is
    # measurable at that frequency.  Strong keys are fine here — every proc
    # in the memo is alive for the duration of the run anyway.
    memo: dict = {}

    while True:
        if state.icount >= limit:
            if raise_on_limit:
                raise ExecutionError(
                    f"instruction limit {limit} exceeded in {state.proc.name}"
                )
            if pattr is not None:
                pattr.charge_state(state)
            return None
        mkey = (id(state.proc), state.mode)
        entry = memo.get(mkey)
        if entry is None:
            entry = compiled_entry(state.proc, state.mode, mirror, hwkind)
            memo[mkey] = entry if entry is not None else False
        elif entry is False:
            entry = None
        if entry is None or state.ip not in entry.leaders:
            # Reference single-step: resynchronise onto a trace leader.
            stats = interp._dispatch(state, state.icount + 1, False)
            if stats is not None:
                return stats
            continue
        if state.icount + entry.max_trace > limit:
            # Fewer instructions are left than the longest trace from here:
            # the reference loop runs them in one call, with its exact
            # per-instruction limit checks.
            stats = interp._dispatch(state, limit, False)
            if stats is not None:
                return stats
            continue
        sig = entry.fn(ctx, state, limit)
        if sig == SIG_PARK:
            continue
        if sig == SIG_CALL:
            if pattr is not None:
                pattr.charge_state(state)
            dst, name, arg_regs = ctx.call
            callee = program.resolve(name)
            new_regs = [0] * callee.num_regs
            regs = state.regs
            for k, a in enumerate(arg_regs):
                new_regs[k] = regs[a]
            state.stack.append((state.proc, state.code_pair, state.ip, regs, dst))
            state.proc = callee
            state.code_pair = lower_procedure(callee)
            state.regs = new_regs
            state.ip = 0
        elif sig == SIG_RET:
            if pattr is not None:
                pattr.charge_state(state)
            value = ctx.ret_value
            stack = state.stack
            if not stack:
                state.return_value = value
                state.finished = True
                return _final_stats(state)
            proc, code_pair, ip, regs, dst = stack.pop()
            state.proc = proc
            state.code_pair = code_pair
            state.ip = ip
            state.regs = regs
            if dst is not None:
                regs[dst] = value
        elif sig == SIG_TRANS:
            _burst_transition(interp, state)
        else:  # SIG_DONE (HALT)
            if pattr is not None:
                pattr.charge_state(state)
            state.finished = True
            return _final_stats(state)

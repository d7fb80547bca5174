#!/usr/bin/env python3
"""Layered host-time benchmark of the repro simulator.

    python3 layerbench/run.py --workload online-fast --seed 1 --seconds 20 --trace 0

Runs one workload (see README.md beside this file) in a closed loop, back to
back, for ``--seconds`` host seconds with tracing off, then checks every
run's outputs against an untimed ``orig`` run on the reference interpreter.
With ``--trace 1`` it also makes one traced run with every layer wrapper
installed and reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run (source digest, Python, machine, nproc, seed, pass counts,
every sample).  Exits 2 without a result when the simulator's sources are
not present next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Span files and checkpoint scratch space (inside the checkout).
OUT_DIR = ROOT / ".layerbench-out"
#: Timed runs made even when ``--seconds`` is shorter than that many runs.
MIN_RUNS = 3
#: Set-up-only runs made back to back before each timed run.
PROBES_PER_ROUND = 3
#: Iterations of the calibration loop (5 to 10 ms on a 2-vCPU x86_64 VM).
CALIBRATION_STEPS = 5_000
#: While a block is timed, the calibration loop also runs this often.
CALIBRATION_PERIOD_S = 0.1
#: The calibration loop's time on the reference host.  ``setup_s`` is set-up
#: time in seconds of that host: host seconds times this over the loop's
#: mean time while they were measured.
CALIBRATION_REF_S = 0.005
#: Size of the calibration loop's dict (a power of two).
CALIBRATION_KEYS = 1 << 16


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


class Calibrator:
    """Times a fixed pure-Python loop (dict, list, calls) around and during
    each timed block (a block of set-up probes, or one run).

    The host's speed drifts: on a shared 2-vCPU machine it changed by 1.6x
    within seconds, and the loop slowed by the same factor as the simulator.
    The loop runs right before the block, right after it, and every
    :data:`CALIBRATION_PERIOD_S` seconds during it, from a ``SIGALRM``
    handler.  The block's time divided by the mean loop time stays steady
    where the raw time does not.  Blocks are timed with :meth:`now`, which
    leaves out the time spent in the handler.  The table is built once, so
    the loop never raises the process's memory high-water mark.
    """

    def __init__(self) -> None:
        self.table = {k: k for k in range(CALIBRATION_KEYS)}
        self.slots = [0] * 4096
        #: loop times of the current block
        self.samples: list[float] = []
        #: host seconds spent in the handler so far
        self.spent = 0.0

    def loop(self) -> float:
        """Host seconds of one calibration loop."""
        table, mask, slots = self.table, CALIBRATION_KEYS - 1, self.slots
        acc = 0
        start = time.perf_counter()
        for i in range(CALIBRATION_STEPS):
            k = (i * 40503) & mask
            v = table[k]
            table[k] = (v + i) & 0xFFFFF
            j = k & 4095
            slots[j] = (slots[j] + (v & 7)) & 0xFFFF
            acc ^= _mix(j, v)
        return time.perf_counter() - start

    def now(self) -> float:
        """Host seconds, less the time spent in the handler."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.loop())
        self.spent += time.perf_counter() - start

    def timed(self, measure):
        """``measure()`` -> (result, seconds by :meth:`now`); returns
        (result, seconds, seconds / the block's mean loop time)."""
        self.samples = [self.loop()]
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        try:
            result, seconds = measure()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(self.loop())
        return result, seconds, seconds / statistics.mean(self.samples)


class SetupDone(BaseException):
    """Raised at the first dispatch call to end a set-up probe."""


def git_head(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_setup(workload, build, clock) -> float:
    """Seconds by ``clock`` from the start of each part to its first dispatch
    call (build, instrument, wire interpreter and optimizer), summed over
    parts."""
    from layers import patched
    from repro.interp.interpreter import Interpreter

    marks: list[float] = []

    def first_dispatch(*args, **kwargs):
        marks.append(clock())
        raise SetupDone

    total = 0.0
    for part in workload.parts:
        gc.collect()
        del marks[:]
        with patched([(Interpreter, "run", first_dispatch),
                      (Interpreter, "run_slice", first_dispatch)]):
            start = clock()
            try:
                part.run(build)
            except SetupDone:
                pass
        if not marks:
            raise RuntimeError(f"{part.label} finished without dispatching")
        total += marks[0] - start
    return total


def check_outcome(outcome, expected_arch, expected_stats) -> list[str]:
    """Deterministic outputs only: architectural state against the ``orig``
    reference, simulated statistics against the first run's."""
    problems = []
    if outcome.arch != expected_arch:
        problems.append(
            f"architectural outputs {outcome.arch} differ from the orig reference "
            f"{expected_arch}"
        )
    if expected_stats is not None and outcome.stats != expected_stats:
        problems.append("simulated statistics differ from the first run's")
    return problems


def bench(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    min_runs: int = MIN_RUNS,
    sizes: dict | None = None,
    expected_arch: list | None = None,
    out_dir: Path = OUT_DIR,
) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, description).

    ``sizes`` overrides the workload's pass counts (tests use tiny ones);
    ``expected_arch`` replaces the computed ``orig`` reference.
    """
    from layers import ROOT as ROOT_SPAN
    from layers import (
        SpanRecorder,
        firing_problems,
        layer_metrics,
        reconciliation_problems,
        traced_layers,
    )
    from repro.engine.spec import code_version
    from repro.fastpath.compiler import clear_cache
    from workloads import make_workload, reference_arch, run_workload, seeded_build

    workload = make_workload(name, out_dir / f"scratch-{os.getpid()}", **(sizes or {}))

    def build(shape: str, passes: int):
        return seeded_build(shape, seed, passes)

    attempted = failed = 0
    metrics: dict = {}
    rec = traced_wall = None

    def fail(message: str) -> None:
        nonlocal failed
        failed += 1
        print(f"layerbench: FAILED: {message}", file=sys.stderr)

    # Closed loop, back to back; compile and other lazy set-up paid per run.
    # Each round is a block of set-up probes, then one timed run, each
    # calibrated on its own.
    walls: list[float] = []
    ratios: list[float] = []
    setups: list[float] = []
    setup_ratios: list[float] = []
    calibrate = Calibrator()
    cals: list[float] = []  # mean loop time of each timed block
    rounds: list[float] = []
    outcomes: list = []

    def probes():
        total = sum(
            probe_setup(workload, build, calibrate.now) for _ in range(PROBES_PER_ROUND)
        )
        return None, total / PROBES_PER_ROUND

    while len(walls) < min_runs or (
        sum(rounds) + statistics.median(rounds) <= seconds
    ):
        round_start = time.perf_counter()
        if not trace:
            try:
                _, setup, setup_ratio = calibrate.timed(probes)
            except Exception:
                attempted += 1
                fail(traceback.format_exc())
            else:
                setups.append(setup)
                setup_ratios.append(setup_ratio)
                cals.append(statistics.mean(calibrate.samples))
        clear_cache()
        gc.collect()
        t0 = calibrate.now()
        try:
            outcome, wall, ratio = calibrate.timed(
                lambda: run_workload(workload, build, calibrate.now)
            )
        except Exception:
            outcome, wall, ratio = None, calibrate.now() - t0, None
            fail(traceback.format_exc())
        else:
            cals.append(statistics.mean(calibrate.samples))
        walls.append(wall)
        ratios.append(ratio)
        outcomes.append(outcome)
        attempted += 1
        rounds.append(time.perf_counter() - round_start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if expected_arch is None:
        expected_arch = reference_arch(workload, build)
    ok = [o for o in outcomes if o is not None]
    expected_stats = ok[0].stats if ok else None
    finished = [(w, r) for o, w, r in zip(outcomes, walls, ratios) if o is not None]
    good = []
    for outcome, wall, ratio in zip(outcomes, walls, ratios):
        if outcome is None:
            continue
        found = check_outcome(outcome, expected_arch, expected_stats)
        if found:
            fail("; ".join(found))
        else:
            good.append((wall, ratio))
    # Medians over the correct runs; over every finished run if none was.
    sample = good or finished or [(w, 0.0) for w in walls]
    wall_s = statistics.median(w for w, _ in sample)
    wall_cal = statistics.median(r for _, r in sample)

    if trace:
        rec = SpanRecorder(calibrate.now)
        traced_workload = replace(workload, parts=tuple(
            replace(part, run=rec.wrap(ROOT_SPAN, part.run)) for part in workload.parts
        ))
        attempted += 1
        try:
            with traced_layers(rec):
                clear_cache()
                gc.collect()
                traced, traced_wall, traced_cal = calibrate.timed(lambda: run_workload(
                    traced_workload, rec.wrap("workloads.build", build), calibrate.now
                ))
        except Exception:
            fail(traceback.format_exc())
        else:
            found = check_outcome(traced, expected_arch, expected_stats)
            found += reconciliation_problems(rec, traced_wall)
            found += firing_problems(rec, name)
            if found:
                fail("traced run: " + "; ".join(found))
            metrics = layer_metrics(rec, traced, traced_cal, wall_cal)
    elif ok:
        metrics = {
            "wall_cal": {"value": wall_cal, "unit": "cal"},
            "setup_s": {"value": CALIBRATION_REF_S * statistics.median(setup_ratios)
                        if setup_ratios else 0.0, "unit": "s"},
            "sim_minstr_per_cal": {"value": ok[0].instructions / wall_cal / 1e6,
                                   "unit": "Minstr/cal"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "sim_cycles": {"value": ok[0].sim_cycles, "unit": "cycles"},
        }

    description = {
        "benchmark": "layerbench",
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "programs": [f"{shape}x{passes}" for shape, passes in workload.programs],
        "commit": git_head(ROOT),
        "source_sha256": code_version(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "runs": len(walls),
        "wall_s": wall_s,
        "sim_minstr_per_s": ok[0].instructions / wall_s / 1e6 if ok else 0.0,
        "calibration_s": statistics.median(cals) if cals else 0.0,
        "wall_samples_s": walls,
        "wall_cal_samples": ratios,
        "setup_raw_s": statistics.median(setups) if setups else 0.0,
        "setup_samples_s": setups,
        "setup_cal_samples": setup_ratios,
        "calibration_samples_s": cals,
        "fail_rate": failed / attempted if attempted else 0.0,
    }
    if traced_wall is not None:
        description["traced_wall_s"] = traced_wall
        rec.write(out_dir / f"spans-{name}-seed{seed}.jsonl", description)
    result = {
        "correct": failed == 0 and bool(ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, description


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"layerbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import DEFAULT_SEED, WORKLOAD_NAMES

    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOAD_NAMES)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    result, description = bench(args.workload, seed, args.seconds, bool(args.trace))

    print(json.dumps({"layerbench": description}))
    for metric, doc in result["metrics"].items():
        print(f"  {metric:28s} {doc['value']:>16.6g} {doc['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

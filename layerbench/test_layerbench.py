"""Self-tests of the benchmark on tiny seeded inputs.

    python3 -m pytest layerbench -q
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.interp.interpreter import Interpreter  # noqa: E402
from repro.machine.hierarchy import MemoryHierarchy  # noqa: E402

TINY = {"passes": 1, "thrasher_passes": 2, "checkpoint_every": 20_000}
SEED = 3


def build(shape: str, passes: int):
    return workloads.seeded_build(shape, SEED, passes)


def traced_run(workload, drop=()):
    """(outcome, recorder, traced seconds) with every layer wrapper on but
    those at the attribute names in ``drop``."""
    rec = layers.SpanRecorder(time.perf_counter)
    wrapped = replace(workload, parts=tuple(
        replace(part, run=rec.wrap(layers.ROOT, part.run)) for part in workload.parts
    ))
    with layers.patched([p for p in layers._patches(rec) if p[1] not in drop]):
        outcome, seconds = workloads.run_workload(wrapped, rec.wrap("workloads.build", build))
    return outcome, rec, seconds


@pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
def test_wrappers_leave_simulated_stats_identical_on_both_kernels(fast):
    workload = workloads.Workload("t", (workloads.single("mcf", "dyn", fast, 1),))
    plain, _ = workloads.run_workload(workload, build)
    traced, rec, _ = traced_run(workload)
    assert traced.stats == plain.stats
    assert traced.arch == plain.arch
    assert rec.calls("dfsm.detect") and rec.calls("machine.prefetch")


@pytest.mark.parametrize("name", ["durable-ref", "corun-fast"])
def test_wrappers_leave_durable_and_tenancy_stats_identical(name, tmp_path):
    workload = workloads.make_workload(name, tmp_path / "scratch", **TINY)
    plain, _ = workloads.run_workload(workload, build)
    traced, _, _ = traced_run(workload)
    assert traced.stats == plain.stats
    assert traced.arch == plain.arch


def test_kernels_agree_and_match_the_orig_reference():
    fast = workloads.make_workload("online-fast", Path("unused"), passes=1)
    ref = workloads.make_workload("baseline-ref", Path("unused"), passes=1)
    dyn, _ = workloads.run_workload(fast, build)
    orig, _ = workloads.run_workload(ref, build)
    assert dyn.arch == orig.arch == workloads.reference_arch(fast, build)


def test_wrappers_are_removed_afterwards():
    before = dict(MemoryHierarchy.__dict__), dict(Interpreter.__dict__)
    with layers.traced_layers(layers.SpanRecorder(time.perf_counter)):
        assert MemoryHierarchy.__dict__["access"] is not before[0]["access"]
    assert dict(MemoryHierarchy.__dict__) == before[0]
    assert dict(Interpreter.__dict__) == before[1]


def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(tmp_path):
    result, description = run.bench(
        "baseline-ref", SEED, 0, False, min_runs=2, sizes=TINY, out_dir=tmp_path
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: doc["unit"] for name, doc in result["metrics"].items()
    }
    assert all(doc["value"] > 0 for doc in result["metrics"].values())
    assert description["seed"] == SEED and description["programs"] == ["mcfx1", "vprx1"]


def test_wrong_expected_output_is_reported_as_a_failure(tmp_path):
    workload = workloads.make_workload("baseline-ref", tmp_path, **TINY)
    wrong = workloads.reference_arch(workload, build)
    shape, value, digest = wrong[1]
    wrong[1] = (shape, value + 1, digest)
    result, description = run.bench(
        "baseline-ref", SEED, 0, False, min_runs=2, sizes=TINY,
        expected_arch=wrong, out_dir=tmp_path,
    )
    assert not result["correct"]
    assert result["failed"] == 2 and description["fail_rate"] == 1.0


def test_calibrator_samples_during_a_block_and_leaves_its_time_out():
    import signal

    calibrate = run.Calibrator()
    handler = signal.getsignal(signal.SIGALRM)

    def block():
        start, gross_start = calibrate.now(), time.perf_counter()
        while time.perf_counter() - gross_start < 0.35:
            pass
        return time.perf_counter() - gross_start, calibrate.now() - start

    gross, seconds, ratio = calibrate.timed(block)
    assert len(calibrate.samples) >= 4  # before, at least two ticks, after
    assert 0 < seconds < gross and calibrate.spent >= gross - seconds - 1e-6
    assert ratio == pytest.approx(seconds / (sum(calibrate.samples) / len(calibrate.samples)))
    assert signal.getsignal(signal.SIGALRM) == handler


def test_check_outcome_catches_memory_and_stats_drift():
    outcome = workloads.Outcome(arch=[("mcf", 7, "a" * 64)], stats=["s"])
    assert run.check_outcome(outcome, [("mcf", 7, "a" * 64)], ["s"]) == []
    assert run.check_outcome(outcome, [("mcf", 7, "b" * 64)], ["s"])
    assert run.check_outcome(outcome, [("mcf", 7, "a" * 64)], ["t"])


def test_reconciliation_holds_on_a_traced_run(tmp_path):
    workload = workloads.make_workload("online-fast", tmp_path, **TINY)
    _, rec, seconds = traced_run(workload)
    assert layers.reconciliation_problems(rec, seconds) == []
    assert layers.reconciliation_problems(rec, seconds * 1.5)
    assert rec.self_s(layers.ROOT) >= 0 and rec.spans


def test_reconciliation_flags_a_layer_that_is_not_intercepted(tmp_path):
    workload = workloads.make_workload("online-fast", tmp_path, **TINY)
    _, rec, seconds = traced_run(workload, drop=("run_fast",))
    problems = layers.reconciliation_problems(rec, seconds)
    assert len(problems) == 1 and "in no layer" in problems[0], problems


def test_compile_calls_count_compilations_not_cache_lookups(tmp_path):
    import repro.fastpath.kernel as kernel

    workload = workloads.make_workload("corun-fast", tmp_path, **TINY)
    lookups = []
    original = kernel.compiled_entry

    def compiled_entry(*args):
        lookups.append(args)
        return original(*args)

    with layers.patched([(kernel, "compiled_entry", compiled_entry)]):
        _, rec, _ = traced_run(workload)
    assert 0 < rec.calls("fastpath.compile") < len(lookups)


def test_traced_bench_passes_both_gates(tmp_path):
    result, _ = run.bench(
        "durable-ref", SEED, 0, True, min_runs=1, sizes=TINY, out_dir=tmp_path
    )
    assert result["correct"], result
    assert result["metrics"]["durability.checkpoint_calls"]["value"] > 0
    assert result["metrics"]["tenancy.access_calls"]["value"] == 0
    spans = (tmp_path / f"spans-durable-ref-seed{SEED}.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["meta"]["workload"] == "durable-ref"


def test_firing_gate_flags_silent_and_unexpected_layers():
    rec = layers.SpanRecorder(time.perf_counter)
    rec.wrap(layers.ROOT, lambda: rec.wrap("sequitur.extend", lambda: None)())()
    problems = layers.firing_problems(rec, "baseline-ref")
    assert "sequitur.extend fired 1 times on baseline-ref, expected none" in problems
    assert "interp.dispatch never fired on baseline-ref" in problems


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)

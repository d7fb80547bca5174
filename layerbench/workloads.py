"""The four benchmark workloads, their seeded inputs and their checked outputs.

A workload is a short sequence of *parts*; each part runs one program (or one
co-run) to completion through a public ``repro`` entry point, exactly as a
CLI invocation would.  Every part receives a ``build(name, passes)`` callable
that materializes a preset shape with the benchmark's seed; parts that reach
the presets through a name-keyed lookup (``RunSpec.build`` and the tenancy
scheduler's ``build_named``) get the same callable patched in at that lookup
for the duration of the part.

What a part returns is an :class:`Outcome`: the architectural outputs of
every program it ran (return value plus a digest of the final memory image)
and a digest of every simulated statistic.  Host timings never enter either.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator

import repro.tenancy.scheduler as tenancy_scheduler
import repro.workloads as workloads_pkg
from repro.bench.figures import ABLATION_WATCHDOG_CONFIG, ABLATION_WATCHDOG_OPT
from repro.durability.runner import run_spec_durable
from repro.engine.levels import execute_workload
from repro.engine.spec import RunSpec
from repro.tenancy.plan import TenantPlan, TenantSpec
from repro.tenancy.scheduler import run_tenant_plan
from repro.workloads.base import BuiltWorkload
from repro.workloads.chainmix import build_chainmix
from repro.workloads.phaseshift import build_phaseshift
from repro.workloads.presets import params_for

#: Schedule replays per chain-mix program (the presets default to 32-40;
#: three keeps one run of a workload between 1 and 3 host seconds).
PASSES = 3
#: Replays of the phaseshift thrasher (64 steps each, not 512).
THRASHER_PASSES = 12
#: ``durable-ref`` checkpoint cadence in simulated instructions (the
#: durability runner's default).
CHECKPOINT_EVERY = 250_000
#: Default ``--seed``.
DEFAULT_SEED = 1

Build = Callable[[str, int], BuiltWorkload]
Fold = Callable[["Outcome"], None]


def seeded_build(name: str, seed: int, passes: int) -> BuiltWorkload:
    """A chain-mix preset with every parameter kept except its seed.

    The phaseshift thrasher keeps its own preset seed: its tail rotation is
    tuned so that the watchdog condemns part of its streams and reinjects
    the rest, which other seeds of that program do not reliably do.
    """
    if name == "phaseshift":
        return build_phaseshift(passes=passes)
    return build_chainmix(replace(params_for(name), seed=seed), passes=passes)


def memory_digest(workload: BuiltWorkload) -> str:
    """sha256 over the final memory image, word by word (absent != zero)."""
    digest = hashlib.sha256()
    for addr, value in sorted(workload.memory._words.items()):
        digest.update(b"%d:%d;" % (addr, value))
    return digest.hexdigest()


def stats_digest(doc: object) -> str:
    """sha256 of a run's serialized simulated statistics."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass
class Outcome:
    """Deterministic outputs of one workload run (parts concatenated)."""

    #: per program: (shape, return value, memory digest)
    arch: list[tuple[str, int, str]] = field(default_factory=list)
    #: per part: digest of ExecStats, hierarchy counters, optimizer summary
    stats: list[str] = field(default_factory=list)
    instructions: int = 0
    sim_cycles: int = 0
    prefetch_issued: int = 0
    prefetch_useful: int = 0
    optimize_cycles: int = 0
    slices: int = 0

    def add_run(self, shape: str, result, workload: BuiltWorkload) -> None:
        """Fold in one single-program :class:`RunResult`."""
        self.arch.append((shape, result.stats.return_value, memory_digest(workload)))
        self.stats.append(stats_digest(result.to_dict()))
        self.instructions += result.stats.instructions
        self.sim_cycles += result.stats.cycles
        self.add_counters(result.hierarchy.prefetch, result.summary)

    def add_counters(self, prefetch, summary) -> None:
        self.prefetch_issued += prefetch.issued
        self.prefetch_useful += prefetch.useful
        self.optimize_cycles += summary.num_cycles if summary is not None else 0


@contextmanager
def name_lookup(build: Build, built: list[BuiltWorkload]) -> Iterator[None]:
    """Route the name-keyed preset lookups through ``build``, recording
    every workload they materialize (in build order)."""

    def build_named(name: str, passes=None) -> BuiltWorkload:
        workload = build(name, passes)
        built.append(workload)
        return workload

    saved = workloads_pkg.build_named, tenancy_scheduler.build_named
    workloads_pkg.build_named = tenancy_scheduler.build_named = build_named
    try:
        yield
    finally:
        workloads_pkg.build_named, tenancy_scheduler.build_named = saved


# ------------------------------------------------------------------- parts


@dataclass(frozen=True)
class Part:
    """One program (or co-run) run to completion."""

    label: str
    #: (shape, passes) of every program, in the order its outputs appear
    programs: tuple[tuple[str, int], ...]
    #: simulates, then returns the (untimed) step that folds its outputs in
    run: Callable[[Build], "Fold"]


def single(shape: str, level: str, fast: bool, passes: int) -> Part:
    """``execute_workload`` on one freshly built program."""

    def run(build: Build) -> Fold:
        workload = build(shape, passes)
        result = execute_workload(workload, level, fast=fast)
        return lambda out: out.add_run(shape, result, workload)

    kernel = "fast" if fast else "ref"
    return Part(f"{shape}/{level}/{kernel}", ((shape, passes),), run)


def durable(shape: str, passes: int, checkpoint_every: int, scratch: Path) -> Part:
    """``run_spec_durable`` on the reference kernel, checkpointing into a
    fresh directory that is removed afterwards; never resumed."""

    def run(build: Build) -> Fold:
        built: list[BuiltWorkload] = []
        spec = RunSpec(shape, "dyn", passes=passes)
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            with name_lookup(build, built):
                result = run_spec_durable(
                    spec,
                    checkpoint_path=scratch / "run.ckpt",
                    checkpoint_every=checkpoint_every,
                    resume=False,
                    fast=False,
                )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return lambda out: out.add_run(shape, result, built[0])

    return Part(f"{shape}/dyn/durable", ((shape, passes),), run)


def corun(passes: int, thrasher_passes: int) -> Part:
    """``run_tenant_plan``: vpr and mcf at dyn plus the phaseshift thrasher
    at dyn with the watchdog on, private L1s over one shared L2."""
    thrasher_opt = replace(ABLATION_WATCHDOG_OPT, watchdog=ABLATION_WATCHDOG_CONFIG)
    plan = TenantPlan(
        tenants=(
            TenantSpec("vpr", "dyn", passes=passes, name="vpr"),
            TenantSpec("mcf", "dyn", passes=passes, name="mcf"),
            TenantSpec("phaseshift", "dyn", passes=thrasher_passes,
                       opt=thrasher_opt, name="thrasher"),
        ),
        sharing="private-l1",
    )

    def run(build: Build) -> Fold:
        built: list[BuiltWorkload] = []
        with name_lookup(build, built):
            result = run_tenant_plan(plan, fast=True)

        def fold(out: Outcome) -> None:
            for tenant, workload in zip(result.tenants, built):
                out.arch.append(
                    (tenant.workload, tenant.stats.return_value, memory_digest(workload))
                )
                out.instructions += tenant.stats.instructions
                out.slices += tenant.slices
                out.add_counters(tenant.hierarchy.prefetch, tenant.summary)
            out.stats.append(stats_digest(result.to_dict()))
            out.sim_cycles += result.global_cycles

        return fold

    programs = tuple((t.workload, t.passes) for t in plan.tenants)
    return Part("corun/fast", programs, run)


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """What ``--workload`` names (why each exists: BENCHMARK.json, README.md)."""

    name: str
    parts: tuple[Part, ...]

    @property
    def programs(self) -> tuple[tuple[str, int], ...]:
        return tuple(p for part in self.parts for p in part.programs)


WORKLOAD_NAMES = ("online-fast", "baseline-ref", "durable-ref", "corun-fast")


def make_workload(
    name: str,
    scratch: Path,
    passes: int = PASSES,
    thrasher_passes: int = THRASHER_PASSES,
    checkpoint_every: int = CHECKPOINT_EVERY,
) -> Workload:
    """One of :data:`WORKLOAD_NAMES`; smaller counts make test-sized runs."""
    if name == "online-fast":
        parts = (single("mcf", "dyn", True, passes), single("vpr", "dyn", True, passes))
    elif name == "baseline-ref":
        parts = (single("mcf", "orig", False, passes), single("vpr", "orig", False, passes))
    elif name == "durable-ref":
        parts = (durable("mcf", passes, checkpoint_every, scratch),)
    elif name == "corun-fast":
        parts = (corun(passes, thrasher_passes),)
    else:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")
    return Workload(name, parts)


def run_workload(
    workload: Workload, build: Build, clock: Callable[[], float] = time.perf_counter
) -> tuple[Outcome, float]:
    """Run every part back to back; returns the combined outcome and the
    seconds by ``clock`` spent inside the parts (digesting outputs is not
    timed)."""
    out = Outcome()
    seconds = 0.0
    for part in workload.parts:
        start = clock()
        fold = part.run(build)
        seconds += clock() - start
        fold(out)
    return out, seconds


def reference_arch(workload: Workload, build: Build) -> list[tuple[str, int, str]]:
    """Architectural outputs of untimed ``orig`` runs on the reference
    interpreter, one per program of the workload (same shape, seed, passes)."""
    arch = []
    for shape, passes in workload.programs:
        program = build(shape, passes)
        result = execute_workload(program, "orig", fast=False)
        arch.append((shape, result.stats.return_value, memory_digest(program)))
    return arch

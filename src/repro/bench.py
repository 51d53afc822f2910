"""Simulator microbenchmarks and the perf-regression smoke check.

The canonical definition of the kernel/fabric microbenchmark bodies
lives here, one factory per body in :data:`MICROBENCHMARKS`, each with
its sanity check beside it (``@expects``).
``benchmarks/bench_sim_microbenchmarks.py`` runs every registered body
under pytest-benchmark, and ``python -m repro bench`` times them inline
with :func:`time.perf_counter` — no test framework needed.
``python -m repro bench --check`` compares the inline medians
against the committed ``BENCH_sim.json`` baseline and fails when a
benchmark has regressed more than :data:`REGRESSION_FACTOR`, so the
perf trajectory of the DES kernel is guarded across PRs.

``python -m repro bench --ab OTHER_ROOT`` is a paired, report-only
comparison with another checkout: both trees' bodies run round by round
in fresh interpreters (:func:`ab_compare`), and the report gives each
body's ratio of CPU-time minima with its spread over rounds.

The baseline also holds six exact counts per body (:data:`COUNTERS`):
its kernel insertions — the sum of ``Environment._sequence`` over every
environment one call of the body creates — the
:class:`~repro.sim.core.Process` objects that call starts, its fabric
transfers and its SiPh gateway calls, and the bytecode instructions
and Python calls of one call after two warm-ups.  All are the same on
every run, so ``--check`` fails on any body whose count rises above its
committed value.  Bytecode differs between Python versions, so the
baseline keeps the last two per minor version
(:data:`VERSIONED_COUNTERS`) and ``--check`` only reports them under a
version it has no record for.
"""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BASELINE_FILENAME = "BENCH_sim.json"
"""Committed baseline written by ``benchmarks/run_all.py``."""

BASELINE_SCHEMA_VERSION = 1

REGRESSION_FACTOR = 2.0
"""A benchmark slower than ``factor x baseline`` fails ``--check``."""

KERNEL_BENCHMARK = "test_bench_kernel_event_throughput"
"""The headline kernel benchmark the acceptance criteria track."""

COUNTERS = {
    "insertions": "kernel insertions",
    "processes": "processes started",
    "transfers": "fabric transfers",
    "gateway_calls": "gateway calls",
    "instructions": "bytecode instructions",
    "calls": "Python calls",
}
"""Exact per-body counts the baseline records beside each median
(:func:`count_work`), with their report labels."""

VERSIONED_COUNTERS = ("instructions", "calls")
"""Counters of the interpreter's own work (:func:`count_bytecode`): the
baseline records them per Python minor version, as
``{"3.11": count}``."""

PYTHON_VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
"""The key this interpreter's :data:`VERSIONED_COUNTERS` records use."""


# ---------------------------------------------------------------------------
# Benchmark bodies.  Each factory does the one-time setup and returns the
# callable that gets timed — mirroring how pytest-benchmark separates
# fixture setup from the benchmarked function.
# ---------------------------------------------------------------------------


def expects(check: Callable[[Any], bool]):
    """Attach a body's sanity check to its factory: ``factory.expects(
    result)`` is true for a correct run of the body it builds."""

    def attach(factory):
        factory.expects = check
        return factory

    return attach


def benchmark_id(name: str) -> str:
    """The pytest parameter id of a registered benchmark."""
    return name.removeprefix("test_bench_")


@expects(lambda now: now > 0)
def make_kernel_event_throughput() -> Callable[[], float]:
    """Schedule and fire 10k timeout events."""
    from .sim.core import Environment

    def run() -> float:
        env = Environment()

        def ticker():
            for _ in range(10_000):
                yield env.timeout(1e-9)

        env.process(ticker())
        env.run()
        return env.now

    return run


@expects(lambda count: count == 1000)
def make_channel_contention() -> Callable[[], int]:
    """1000 contended transfers through one channel."""
    from .sim.core import Environment
    from .sim.resources import BandwidthChannel

    def delivered() -> None:
        pass

    def run() -> int:
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=1e9)
        for _ in range(1000):
            channel.request_transfer(1e3, delivered)
        env.run()
        return channel.transfer_count

    return run


def _fabric_reads(fabric_cls) -> Callable[[], float]:
    """12 reads to every compute chiplet, all issued at t = 0."""
    from .config import DEFAULT_PLATFORM
    from .interposer.topology import build_floorplan
    from .sim.core import Environment

    floorplan = build_floorplan(DEFAULT_PLATFORM)

    def run() -> float:
        env = Environment()
        fabric = fabric_cls(env, DEFAULT_PLATFORM, floorplan)
        for site in floorplan.compute_sites:
            for _ in range(12):
                fabric.read(site.chiplet_id, 1e6)
        env.run()
        return fabric.bits_read

    return run


@expects(lambda bits: bits > 0)
def make_photonic_fabric_reads() -> Callable[[], float]:
    """100 reads across the full interposer pipeline."""
    from .interposer.photonic.fabric import PhotonicInterposerFabric

    return _fabric_reads(PhotonicInterposerFabric)


@expects(lambda bits: bits > 0)
def make_mesh_fabric_reads() -> Callable[[], float]:
    """The same 100 reads over the electrical mesh's XY routes."""
    from .interposer.electrical.mesh import ElectricalMeshFabric

    return _fabric_reads(ElectricalMeshFabric)


ONE_CHUNK_STEPS = 1000
"""Layer steps of ``one_chunk_transfers``: each is one (multicast) read
and one write per destination — 3,000 transfers in all."""


@expects(lambda completed: completed == 3 * ONE_CHUNK_STEPS)
def make_one_chunk_transfers() -> Callable[[], int]:
    """One-chunk SiPh reads and writes shaped like serving traffic.

    Every 150 ns a layer step reads its input to one, two or three
    chiplets (a multicast read for more than one); as the input lands,
    each of them writes its output back.  Every payload fits one chunk,
    as nearly all serving transfers do, and the HBM port runs about 80%
    busy, so channels queue a little as they do under load.  Tracks the
    one-chunk path: one chain per transfer, one more per extra
    destination, and the reused channel hold.
    """
    import random

    from .config import DEFAULT_PLATFORM
    from .interposer.photonic.fabric import PhotonicInterposerFabric
    from .interposer.topology import build_floorplan
    from .sim.core import Environment

    floorplan = build_floorplan(DEFAULT_PLATFORM)
    chiplets = [site.chiplet_id for site in floorplan.compute_sites]
    rng = random.Random(17)
    steps = [
        (tuple(rng.sample(chiplets, (1, 2, 3, 2)[index % 4])),
         rng.uniform(2e4, 2.5e5), rng.uniform(2e4, 1.2e5))
        for index in range(ONE_CHUNK_STEPS)
    ]

    def run() -> int:
        env = Environment()
        fabric = PhotonicInterposerFabric(env, DEFAULT_PLATFORM, floorplan)
        completed = 0

        def count(_event) -> None:
            nonlocal completed
            completed += 1

        def step(group, out_bits):
            def landed(_event) -> None:
                count(_event)
                for chiplet in group:
                    fabric.write(chiplet, out_bits)._add_callback(count)
            return landed

        def layer_steps():
            for group, in_bits, out_bits in steps:
                fabric.read(group[0], in_bits, multicast=group)._add_callback(
                    step(group, out_bits)
                )
                yield env.timeout(150e-9)

        env.process(layer_steps())
        env.run()
        return completed

    return run


@expects(lambda result: result.shape == (8,))
def make_functional_mac_matvec() -> Callable[[], object]:
    """Analog matvec through the device transfer functions."""
    import numpy as np

    from .core.mac_unit import MacUnitSpec, PhotonicMacUnit

    unit = PhotonicMacUnit(MacUnitSpec(vector_length=9))
    rng = np.random.default_rng(11)
    matrix = rng.uniform(-1, 1, (8, 27))
    vector = rng.uniform(-1, 1, 27)

    def run():
        return unit.matvec(matrix, vector)

    return run


@expects(lambda completed: completed > 0)
def make_serving_request_throughput() -> Callable[[], int]:
    """Steady-state request stream through the serving scheduler.

    A 1 ms Poisson window at 100k requests/s of LeNet5 on the
    monolithic platform — ~100 requests batched through the max-batch
    dispatcher over one shared fabric.  Tracks the serving layer's
    requests/sec of wall time.
    """
    from .core.accelerator import MonolithicCrossLight
    from .core.engine import ExecutionTrace
    from .dnn import zoo
    from .dnn.workload import extract_workload
    from .mapping.residency import WeightResidency
    from .serving.scheduler import RequestScheduler
    from .sim.core import Environment
    from .sim.traffic import PoissonArrivals
    from .studies.spec import SchedulerSpec

    platform = MonolithicCrossLight()
    workload = extract_workload(zoo.build("LeNet5"))
    policy = SchedulerSpec(policy="max-batch", max_batch=8,
                           batch_timeout_s=20e-6)

    def run() -> int:
        env = Environment()
        sim = platform.build_simulation(env)
        scheduler = RequestScheduler(
            sim, sim.map_workload(workload), "LeNet5", policy=policy,
            residency=WeightResidency(env), trace=ExecutionTrace(),
        )
        scheduler.serve(PoissonArrivals(rate_rps=100e3, seed=7), 1e-3)
        return scheduler.requests_completed

    return run


def _telemetry_window(trace: bool) -> Callable[[], tuple[Any, Any]]:
    """The 1 ms LeNet5 window of ``serving_request_throughput`` under a
    :class:`~repro.obs.session.TelemetrySession`.

    ``run()`` serves the window and returns ``(scheduler, session)``.
    ``trace`` arms the span recorder at sample rate 1 and wires it into
    the scheduler and its residency store, as a traced study cell does.
    """
    from .core.accelerator import MonolithicCrossLight
    from .core.engine import ExecutionTrace
    from .dnn import zoo
    from .dnn.workload import extract_workload
    from .mapping.residency import WeightResidency
    from .obs.session import TelemetrySession
    from .serving.scheduler import RequestScheduler
    from .sim.core import Environment
    from .sim.traffic import PoissonArrivals
    from .studies.spec import SchedulerSpec, TelemetrySpec

    platform = MonolithicCrossLight()
    workload = extract_workload(zoo.build("LeNet5"))
    policy = SchedulerSpec(policy="max-batch", max_batch=8,
                           batch_timeout_s=20e-6)
    telemetry = TelemetrySpec(trace=trace)

    def run() -> tuple[Any, Any]:
        env = Environment()
        sim = platform.build_simulation(env)
        scheduler = RequestScheduler(
            sim, sim.map_workload(workload), "LeNet5", policy=policy,
            residency=WeightResidency(env), trace=ExecutionTrace(),
        )
        session = TelemetrySession(env, telemetry)
        if session.recorder is not None:
            scheduler.obs_trace = session.recorder
            scheduler.residency.obs_trace = session.recorder
        scheduler.obs_metrics = session.metrics
        session.metrics.gauge(
            "queue_depth", lambda: float(scheduler.queue_length)
        )
        session.start(1e-3)
        scheduler.serve(PoissonArrivals(rate_rps=100e3, seed=7), 1e-3)
        return scheduler, session

    return run


@expects(lambda completed: completed > 0)
def make_telemetry_null_recorder() -> Callable[[], int]:
    """The serving benchmark under a metrics-only telemetry session.

    The same 1 ms LeNet5 window as ``serving_request_throughput``, but
    with a :class:`~repro.obs.session.TelemetrySession` attached whose
    trace recorder is null (``trace: false``): every span site reduces
    to one attribute comparison while the gauge sampler ticks in the
    background.  The gap to ``serving_request_throughput`` is the cost
    of the null-recorder guards — the acceptance budget keeps it under
    a few percent.
    """
    window = _telemetry_window(trace=False)

    def run() -> int:
        scheduler, _ = window()
        return scheduler.requests_completed

    return run


@expects(lambda spans: spans > 0)
def make_telemetry_armed_trace() -> Callable[[], int]:
    """The serving benchmark with every request traced.

    The same window as ``telemetry_null_recorder`` with the span
    recorder armed at sample rate 1, so every request appends its
    queue-wait, execute and per-layer spans to the recorder's columns.
    The body then freezes the session into its summary and pickles it
    round trip, as a cached traced cell does.  The gap to
    ``telemetry_null_recorder`` is the cost of recording and freezing.
    """
    import pickle

    window = _telemetry_window(trace=True)

    def run() -> int:
        scheduler, session = window()
        summary = session.summary(scheduler.requests_completed)
        frozen = pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL)
        return pickle.loads(frozen).span_count

    return run


@expects(lambda bits: bits > 0)
def make_hazard_timeline_reads() -> Callable[[], float]:
    """Fabric reads while a hazard timeline mutates capacities.

    The same interposer read pattern as the plain fabric benchmark, but
    with a hazard engine cycling gateway failures, a ring-drift burst
    and repairs mid-run — tracks the overhead of the fabric's hazard
    hooks and the event process itself.
    """
    from .config import DEFAULT_PLATFORM
    from .interposer.photonic.fabric import PhotonicInterposerFabric
    from .interposer.photonic.faults import (
        GatewayFail,
        GatewayRepair,
        HazardEngine,
        HazardTimeline,
        RingDriftBurst,
    )
    from .interposer.topology import build_floorplan
    from .sim.core import Environment

    floorplan = build_floorplan(DEFAULT_PLATFORM)
    chiplets = sorted(
        site.chiplet_id for site in floorplan.compute_sites
    )[:4]
    timeline = HazardTimeline((
        GatewayFail(at_s=2e-7, memory_gateways=4),
        GatewayFail(
            at_s=4e-7,
            chiplet_gateways=tuple((cid, 2, 2) for cid in chiplets),
        ),
        RingDriftBurst(at_s=5e-7, duration_s=4e-7,
                       temperature_rise_k=8.0),
        GatewayRepair(at_s=8e-7, memory_gateways=4),
        GatewayRepair(
            at_s=1e-6,
            chiplet_gateways=tuple((cid, 2, 2) for cid in chiplets),
        ),
    ))

    def run() -> float:
        env = Environment()
        fabric = PhotonicInterposerFabric(env, DEFAULT_PLATFORM, floorplan)
        HazardEngine(fabric, timeline)
        for site in floorplan.compute_sites:
            for _ in range(12):
                fabric.read(site.chiplet_id, 1e6)
        env.run()
        return fabric.bits_read

    return run


@expects(lambda epochs: epochs > 0)
def make_controller_epochs() -> Callable[[], int]:
    """ReSiPI and PROWAVES epochs over bursty fabric traffic.

    Twenty short read/write bursts, each followed by a silent gap, under
    a gateway-fail / ring-drift / repair timeline — about 1,900 epochs
    per controller, most of which repeat the previous decision.  Tracks
    the per-epoch cost of deciding and applying gateway and comb
    configurations.
    """
    from .config import DEFAULT_PLATFORM
    from .interposer.photonic.controllers import (
        ProwavesController,
        ReSiPIController,
    )
    from .interposer.photonic.fabric import PhotonicInterposerFabric
    from .interposer.photonic.faults import (
        GatewayFail,
        GatewayRepair,
        HazardEngine,
        HazardTimeline,
        RingDriftBurst,
    )
    from .interposer.topology import build_floorplan
    from .sim.core import Environment

    floorplan = build_floorplan(DEFAULT_PLATFORM)
    chiplets = [site.chiplet_id for site in floorplan.compute_sites]
    timeline = HazardTimeline((
        GatewayFail(at_s=300e-6, memory_gateways=4),
        RingDriftBurst(at_s=600e-6, duration_s=400e-6,
                       temperature_rise_k=8.0),
        GatewayRepair(at_s=1.2e-3, memory_gateways=4),
    ))

    def run() -> int:
        epochs = 0
        for controller_cls in (ReSiPIController, ProwavesController):
            env = Environment()
            fabric = PhotonicInterposerFabric(env, DEFAULT_PLATFORM,
                                              floorplan)
            HazardEngine(fabric, timeline)
            controller = controller_cls(env, fabric, DEFAULT_PLATFORM)

            def bursts():
                for index in range(20):
                    chiplet = chiplets[index % len(chiplets)]
                    yield fabric.read(chiplet, 4e6)
                    yield fabric.write(chiplet, 1e6)
                    yield env.timeout(40e-6)

            env.run_until_event(env.process(bursts()), limit=1.0)
            epochs += len(controller.decision_log)
        return epochs

    return run


@expects(lambda routed: routed > 0)
def make_cluster_dispatch_throughput() -> Callable[[], int]:
    """Routed request stream across an 8-node fleet.

    A 0.5 ms Poisson window at 800k requests/s of LeNet5 dispatched by
    the least-outstanding router over 8 monolithic replicas sharing one
    environment — tracks the cluster layer's routing + fleet-drain
    overhead on top of the per-node schedulers.
    """
    from .cluster.router import ClusterNode, ClusterRouter
    from .core.accelerator import MonolithicCrossLight
    from .core.engine import ExecutionTrace
    from .dnn import zoo
    from .dnn.workload import extract_workload
    from .mapping.residency import WeightResidency
    from .serving.scheduler import RequestScheduler
    from .sim.core import Environment
    from .sim.traffic import PoissonArrivals
    from .studies.registry import ROUTERS
    from .studies.spec import SchedulerSpec

    platform = MonolithicCrossLight()
    workload = extract_workload(zoo.build("LeNet5"))
    policy = SchedulerSpec(max_inflight=2)

    def run() -> int:
        env = Environment()
        nodes = []
        for index in range(8):
            sim = platform.build_simulation(env)
            scheduler = RequestScheduler(
                sim, sim.map_workload(workload), "LeNet5", policy=policy,
                residency=WeightResidency(env), trace=ExecutionTrace(),
            )
            nodes.append(ClusterNode(
                index=index, platform=platform, sim=sim,
                scheduler=scheduler,
                residency=scheduler.residency,
            ))
        router = ClusterRouter(
            nodes, ROUTERS.get("least-outstanding")(len(nodes), ())
        )
        router.serve(PoissonArrivals(rate_rps=800e3, seed=7), 0.5e-3)
        return router.requests_routed

    return run


@expects(lambda completed: completed > 0)
def make_resilience_retry_hedge() -> Callable[[], int]:
    """Retry/hedge lifecycle over a 2-node fleet with tight timers.

    A 0.4 ms Poisson window at 500k requests/s of LeNet5 driven through
    the :class:`~repro.serving.lifecycle.LifecycleDriver` with a 40 us
    attempt timeout, two retries, and a 20 us hedge — every request
    races attempt completions against hedge and timeout timers, so this
    tracks the timer-race, duplicate-submit, and loser-cancellation
    overhead the resilience layer adds on top of routed dispatch.
    """
    from .cluster.router import ClusterNode, ClusterRouter
    from .core.accelerator import MonolithicCrossLight
    from .core.engine import ExecutionTrace
    from .dnn import zoo
    from .dnn.workload import extract_workload
    from .mapping.residency import WeightResidency
    from .serving.lifecycle import LifecycleDriver
    from .serving.scheduler import RequestScheduler
    from .sim.core import Environment
    from .sim.traffic import PoissonArrivals
    from .studies.registry import ROUTERS
    from .studies.spec import ResilienceSpec, SchedulerSpec

    platform = MonolithicCrossLight()
    workload = extract_workload(zoo.build("LeNet5"))
    policy = SchedulerSpec(max_inflight=2)
    resilience = ResilienceSpec(
        timeout_s=40e-6, max_retries=2, hedge_delay_s=20e-6
    )

    def run() -> int:
        env = Environment()
        nodes = []
        for index in range(2):
            sim = platform.build_simulation(env)
            scheduler = RequestScheduler(
                sim, sim.map_workload(workload), "LeNet5", policy=policy,
                residency=WeightResidency(env), trace=ExecutionTrace(),
            )
            nodes.append(ClusterNode(
                index=index, platform=platform, sim=sim,
                scheduler=scheduler,
                residency=scheduler.residency,
            ))
        router = ClusterRouter(
            nodes, ROUTERS.get("least-outstanding")(len(nodes), ())
        )
        driver = LifecycleDriver(router, resilience, seed=11)
        driver.serve(PoissonArrivals(rate_rps=500e3, seed=11), 0.4e-3)
        return driver.requests_completed

    return run


def _fidelity_reference_cell(fidelity):
    """The representative serving cell the fidelity benchmarks share,
    under the ``fidelity`` section given."""
    from .config import DEFAULT_PLATFORM
    from .experiments.serving_study import ServingCell
    from .studies.spec import SchedulerSpec

    return ServingCell(
        platform="2.5D-CrossLight-SiPh", models=(("LeNet5", 1.0, None, 0),),
        controller="resipi", scheduler=SchedulerSpec(),
        arrival_kind="poisson", rate_rps=100e3, duration_s=2e-3,
        seed=7, config=DEFAULT_PLATFORM, fidelity=fidelity,
    )


@expects(lambda completed: completed > 0)
def make_fidelity_des_reference() -> Callable[[], int]:
    """Full-DES baseline of the hybrid-fidelity reference cell.

    The denominator of the fidelity speedup claim: one complete
    discrete-event simulation of the same serving point the fluid
    benchmarks predict (~200 requests of LeNet5 at 100k req/s).
    """
    from .experiments.serving_study import simulate_serving_cell
    from .studies.spec import FidelitySpec

    cell = _fidelity_reference_cell(FidelitySpec())

    def run() -> int:
        return simulate_serving_cell(cell).requests_completed

    return run


@expects(lambda completed: completed > 0)
def make_fidelity_fluid_path() -> Callable[[], int]:
    """Warm-forked fluid evaluation of the reference cell.

    Setup runs the calibration once (memoising the warm-state
    checkpoint); the timed body is the marginal cost of every further
    cell in a sweep — vectorized arrival cohort, quantile service
    draws, piecewise M/G/k waits.  Compare against
    ``fidelity_des_reference`` for the headline speedup.
    """
    from .experiments.fidelity import simulate_fidelity_cell
    from .studies.spec import FidelitySpec

    cell = _fidelity_reference_cell(
        FidelitySpec(mode="fluid", error_budget=0.25)
    )
    simulate_fidelity_cell(cell)  # warm the checkpoint store

    def run() -> int:
        return simulate_fidelity_cell(cell).requests_completed

    return run


@expects(lambda completed: completed > 0)
def make_warm_fork_sweep() -> Callable[[], int]:
    """A 6-variant hazard sweep forked from one cold calibration.

    The timed body clears the warm store, calibrates once, then
    evaluates six MAC-degrade scenario variants of the same serving
    point through the fluid path — the amortised shape of a real
    hybrid-fidelity study (one short DES warm-up per (platform,
    workload), forks for every scenario).
    """
    from dataclasses import replace

    from .experiments.fidelity import clear_warm_store, simulate_fidelity_cell
    from .studies.spec import FaultSpec, FidelitySpec

    base = _fidelity_reference_cell(
        FidelitySpec(mode="fluid", error_budget=0.25)
    )
    variants = [
        replace(base, faults=FaultSpec.from_dict({"events": [{
            "kind": "chiplet-mac-degrade",
            "at_s": 0.2e-3 + 0.2e-3 * index,
            "mac_fraction": 0.5,
            "duration_s": 0.5e-3,
        }]}))
        for index in range(6)
    ]

    def run() -> int:
        clear_warm_store()
        return sum(
            simulate_fidelity_cell(cell).requests_completed
            for cell in variants
        )

    return run


@expects(lambda tokens: tokens > 0)
def make_continuous_decode_throughput() -> Callable[[], int]:
    """Continuous-batching decode steps over a transformer mix.

    A 0.5 ms MMPP window of TransformerTiny sequences (16-token
    prompts, 8 decode steps each) through the continuous batcher — sequences
    join and leave the running decode pool at step boundaries, with
    KV-cache admission against the weight residency store.  Tracks the
    per-decode-step overhead of the sequence scheduler: pool
    management, width-aware remap lookups, and token bookkeeping.
    """
    from .config import DEFAULT_PLATFORM
    from .experiments.serving_study import ServingCell
    from .studies.spec import SchedulerSpec

    cell = ServingCell(
        platform="2.5D-CrossLight-SiPh",
        models=(("TransformerTiny", 1.0, None, 0),),
        controller="resipi",
        scheduler=SchedulerSpec(policy="continuous", max_batch=4,
                                max_inflight=4),
        arrival_kind="mmpp", rate_rps=60e3, duration_s=0.5e-3,
        seed=7, config=DEFAULT_PLATFORM,
        sequences=((16, 8),),
    )

    def run() -> int:
        from .experiments.serving_study import simulate_serving_cell

        result = simulate_serving_cell(cell)
        return result.tokens_generated

    return run


@expects(lambda tokens: tokens > 0)
def make_sequence_fluid_path() -> Callable[[], int]:
    """Warm-forked fluid evaluation of the decode benchmark cell.

    The same transformer scenario as ``continuous_decode_throughput``
    with fluid fidelity armed: setup calibrates once, the timed body is
    the marginal per-cell cost of a sequence sweep — vectorized prefill
    quantile resampling plus the width-conditioned decode token loop.
    Compare against ``continuous_decode_throughput`` for the sequence
    speedup.
    """
    from .config import DEFAULT_PLATFORM
    from .experiments.fidelity import simulate_fidelity_cell
    from .experiments.serving_study import ServingCell
    from .studies.spec import FidelitySpec, SchedulerSpec

    cell = ServingCell(
        platform="2.5D-CrossLight-SiPh",
        models=(("TransformerTiny", 1.0, None, 0),),
        controller="resipi",
        scheduler=SchedulerSpec(policy="continuous", max_batch=4,
                                max_inflight=4),
        arrival_kind="mmpp", rate_rps=60e3, duration_s=0.5e-3,
        seed=7, config=DEFAULT_PLATFORM,
        sequences=((16, 8),),
        fidelity=FidelitySpec(mode="fluid", error_budget=0.25),
    )
    simulate_fidelity_cell(cell)  # warm the checkpoint store

    def run() -> int:
        return simulate_fidelity_cell(cell).tokens_generated

    return run


MICROBENCHMARKS: dict[str, Callable[[], Callable[[], object]]] = {
    KERNEL_BENCHMARK: make_kernel_event_throughput,
    "test_bench_channel_contention": make_channel_contention,
    "test_bench_photonic_fabric_reads": make_photonic_fabric_reads,
    "test_bench_mesh_fabric_reads": make_mesh_fabric_reads,
    "test_bench_one_chunk_transfers": make_one_chunk_transfers,
    "test_bench_functional_mac_matvec": make_functional_mac_matvec,
    "test_bench_serving_request_throughput": make_serving_request_throughput,
    "test_bench_telemetry_null_recorder": make_telemetry_null_recorder,
    "test_bench_telemetry_armed_trace": make_telemetry_armed_trace,
    "test_bench_hazard_timeline_reads": make_hazard_timeline_reads,
    "test_bench_controller_epochs": make_controller_epochs,
    "test_bench_cluster_dispatch_throughput": make_cluster_dispatch_throughput,
    "test_bench_resilience_retry_hedge": make_resilience_retry_hedge,
    "test_bench_fidelity_des_reference": make_fidelity_des_reference,
    "test_bench_fidelity_fluid_path": make_fidelity_fluid_path,
    "test_bench_warm_fork_sweep": make_warm_fork_sweep,
    "test_bench_continuous_decode_throughput":
        make_continuous_decode_throughput,
    "test_bench_sequence_fluid_path": make_sequence_fluid_path,
}
"""Benchmark name (the ``BENCH_sim.json`` key) -> body factory; the
pytest parameter id is :func:`benchmark_id` of the name."""


# ---------------------------------------------------------------------------
# Inline timing.
# ---------------------------------------------------------------------------


def measure_ns(run: Callable[[], object], repeats: int = 5,
               warmup: int = 1) -> float:
    """Median wall time of ``run()`` in nanoseconds."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        run()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2] * 1e9


def count_kernel_work(run: Callable[[], object]) -> dict[str, int]:
    """The simulator's :data:`COUNTERS` of one ``run()`` call: all but
    the :data:`VERSIONED_COUNTERS`.

    Kernel insertions are summed over every environment it creates.
    Transfers and gateway calls are counted as the benchmark harness
    counts ``interposer.transfers`` and ``interposer.gateway_calls``:
    every ``read``/``write`` call on a fabric, and every gateway or
    wavelength-fraction request to the SiPh fabric.
    """
    from .core.crosslight import MonolithicFabric
    from .interposer.electrical.mesh import ElectricalMeshFabric
    from .interposer.photonic.awgr import AWGRInterposerFabric
    from .interposer.photonic.fabric import PhotonicInterposerFabric
    from .sim.core import Environment, Process

    created = []
    counts = {
        counter: 0 for counter in COUNTERS
        if counter not in VERSIONED_COUNTERS
    }
    saved = []

    def wrap(owner, name: str, note: Callable[[object], object]) -> None:
        original = owner.__dict__[name]
        saved.append((owner, name, original))

        def wrapper(self, *args, **kwargs):
            note(self)
            return original(self, *args, **kwargs)

        setattr(owner, name, wrapper)

    def tally(counter: str) -> Callable[[object], None]:
        def note(_) -> None:
            counts[counter] += 1
        return note

    wrap(Environment, "__init__", created.append)
    wrap(Process, "__init__", tally("processes"))
    for fabric in (PhotonicInterposerFabric, AWGRInterposerFabric,
                   ElectricalMeshFabric, MonolithicFabric):
        for name in ("read", "write"):
            if name in fabric.__dict__:
                wrap(fabric, name, tally("transfers"))
    for name in ("set_active_memory_gateways", "set_active_chiplet_gateways",
                 "set_wavelength_fraction"):
        wrap(PhotonicInterposerFabric, name, tally("gateway_calls"))
    try:
        run()
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
    counts["insertions"] = sum(env._sequence for env in created)
    return counts


def count_bytecode(run: Callable[[], object]) -> dict[str, int]:
    """The :data:`VERSIONED_COUNTERS` of one ``run()`` call.

    Traced with :func:`sys.settrace` and ``f_trace_opcodes``: ``calls``
    counts every Python frame entered (a call or a generator resuming)
    and ``instructions`` every bytecode instruction those frames run.
    Code outside Python frames (builtins, C extensions) is not counted.
    The cyclic collector is off for the call, after one collection, so
    that no generator it would finalize is counted: when it runs
    depends on what the process did before.  The tracer and the
    collector are restored afterwards.
    """
    tally = [0, 0]

    def local(frame, event, arg):
        if event == "opcode":
            tally[0] += 1
        return local

    def entered(frame, event, arg):
        tally[1] += 1
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.settrace(entered)
    try:
        run()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return {"instructions": tally[0], "calls": tally[1]}


def count_work(run: Callable[[], object]) -> dict[str, int]:
    """Every :data:`COUNTERS` entry of a fresh body.

    The first call counts the kernel work (:func:`count_kernel_work`)
    and a second warms up, so the call whose bytecode is counted
    (:func:`count_bytecode`) finds every cache and lazy import as later
    calls do.
    """
    work = count_kernel_work(run)
    run()
    work.update(count_bytecode(run))
    return work


def select_benchmarks(substring: str) -> tuple[str, ...]:
    """Benchmark names containing ``substring`` (the ``--only`` filter).

    Raises :class:`~repro.errors.UnknownNameError` — listing every
    registered benchmark — when nothing matches, so a typo'd filter
    fails with the same typed, did-you-mean-carrying error the spec
    registries produce instead of silently timing nothing.
    """
    names = tuple(
        name for name in MICROBENCHMARKS if substring in name
    )
    if not names:
        from .errors import UnknownNameError

        raise UnknownNameError(
            "benchmark", substring, tuple(MICROBENCHMARKS),
            registry="MICROBENCHMARKS",
        )
    return names


def run_suite(names: tuple[str, ...] | None = None, repeats: int = 5,
              counts: dict[str, dict[str, int]] | None = None
              ) -> dict[str, float]:
    """Time the microbenchmarks inline; returns name -> median ns/op.

    Each body's warm-up calls count its work (:func:`count_work`),
    stored into ``counts`` under the body's name when one is given.
    """
    selected = names or tuple(MICROBENCHMARKS)
    medians = {}
    for name in selected:
        run = MICROBENCHMARKS[name]()
        work = count_work(run)
        if counts is not None:
            counts[name] = work
        medians[name] = measure_ns(run, repeats=repeats, warmup=0)
    return medians


# ---------------------------------------------------------------------------
# Baseline file handling + the regression check.
# ---------------------------------------------------------------------------


def write_baseline(medians: dict[str, float], path: str | Path,
                   source: str = "repro.bench",
                   counts: dict[str, dict[str, int]] | None = None) -> None:
    """Write a BENCH_sim.json baseline (counts beside the medians).

    The :data:`VERSIONED_COUNTERS` are recorded under this interpreter's
    :data:`PYTHON_VERSION`; records of other versions are not carried
    over, so merge them back by hand when re-recording.
    """
    counts = counts or {}
    benchmarks = {
        name: {"median_ns": median, **{
            counter: ({PYTHON_VERSION: count}
                      if counter in VERSIONED_COUNTERS else count)
            for counter, count in counts.get(name, {}).items()
        }}
        for name, median in sorted(medians.items())
    }
    payload = {
        "schema": BASELINE_SCHEMA_VERSION,
        "source": source,
        "unit": "ns/op (median)",
        "benchmarks": benchmarks,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")


def _baseline_entries(path: str | Path) -> dict[str, dict]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return payload.get("benchmarks", {})


def load_baseline(path: str | Path) -> dict[str, float]:
    """Read a baseline; returns name -> median ns/op."""
    return {
        name: float(entry["median_ns"])
        for name, entry in _baseline_entries(path).items()
    }


def load_counts(path: str | Path) -> dict[str, dict[str, int]]:
    """Read a baseline's exact counts; returns name -> counter -> count.

    A :data:`VERSIONED_COUNTERS` entry is this interpreter's record; a
    counter without one is left out, so :func:`check_counts` does not
    gate it.
    """
    loaded = {}
    for name, entry in _baseline_entries(path).items():
        work = {}
        for counter in COUNTERS:
            count = entry.get(counter)
            if counter in VERSIONED_COUNTERS and count is not None:
                count = count.get(PYTHON_VERSION)
            if count is not None:
                work[counter] = int(count)
        loaded[name] = work
    return loaded


def check_against_baseline(
    medians: dict[str, float],
    baseline: dict[str, float],
    factor: float = REGRESSION_FACTOR,
) -> list[str]:
    """Regression report lines for benchmarks slower than the budget.

    Only benchmarks present in both mappings are compared; an empty
    return value means the check passed.
    """
    failures = []
    for name, measured in medians.items():
        reference = baseline.get(name)
        if reference is None or reference <= 0:
            continue
        ratio = measured / reference
        if ratio > factor:
            failures.append(
                f"{name}: {measured / 1e6:.2f} ms vs baseline "
                f"{reference / 1e6:.2f} ms ({ratio:.2f}x > {factor:.1f}x)"
            )
    return failures


def check_counts(counts: dict[str, dict[str, int]],
                 baseline: dict[str, dict[str, int]]) -> list[str]:
    """Report lines for every count above the baseline's; names and
    counters missing from either mapping are skipped."""
    failures = []
    for name, work in counts.items():
        reference = baseline.get(name, {})
        for counter, count in work.items():
            if counter in reference and count > reference[counter]:
                failures.append(
                    f"{name}: {count} {COUNTERS[counter]} vs baseline "
                    f"{reference[counter]} (+{count - reference[counter]})"
                )
    return failures


def render_suite(medians: dict[str, float],
                 baseline: dict[str, float] | None = None,
                 counts: dict[str, dict[str, int]] | None = None) -> str:
    """Text table of measured medians (and ratios when given a baseline,
    and the :data:`COUNTERS` when given counts)."""
    counters = tuple(COUNTERS) if counts else ()
    lines = [
        f"{'benchmark':<42}{'median':>12}"
        + ("{:>12}".format("vs base") if baseline else "")
        + "".join(f"{counter:>15}" for counter in counters),
        "-" * (54 + (12 if baseline else 0) + 15 * len(counters)),
    ]
    for name, median in medians.items():
        row = f"{name:<42}{median / 1e6:>10.2f}ms"
        if baseline:
            row += (f"{median / baseline[name]:>11.2f}x"
                    if baseline.get(name) else " " * 12)
        work = counts.get(name, {}) if counts else {}
        row += "".join(
            f"{work[counter]:>15}" if counter in work else " " * 15
            for counter in counters
        )
        lines.append(row)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Paired A/B against another checkout (report-only).
# ---------------------------------------------------------------------------

AB_ROUNDS = 10
"""Rounds of ``bench --ab``: each round times every body once per tree."""

_AB_NAMES = """
import json
from repro.bench import MICROBENCHMARKS
print(json.dumps(list(MICROBENCHMARKS)))
"""
"""Lists a tree's benchmark names (run with that tree on the path)."""

_AB_BODY = """
import json, sys, time
from repro.bench import MICROBENCHMARKS
run = MICROBENCHMARKS[sys.argv[1]]()
run()
best = float("inf")
for _ in range(int(sys.argv[2])):
    start = time.process_time()
    run()
    best = min(best, time.process_time() - start)
print(json.dumps(best))
"""
"""Times one body in a fresh interpreter: a warm-up call, then the
minimum CPU time of ``calls`` calls."""


def _tree_python(root: Path, script: str, *args: str) -> Any:
    """Run ``script`` with ``root/src`` alone on the path; its stdout
    is one JSON document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    out = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=root, env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def this_root() -> Path:
    """The checkout this package was imported from."""
    return Path(__file__).resolve().parent.parent.parent


def ab_compare(other_root: str | Path, substring: str | None = None,
               rounds: int = AB_ROUNDS, calls: int = 5,
               ) -> tuple[dict[str, tuple[list[float], list[float]]],
                          list[str], list[str]]:
    """Time the bodies both trees share, alternating the trees.

    Round ``r`` times every shared body (whose name contains
    ``substring``, when given) once per tree, this tree first on even
    rounds and ``other_root`` first on odd ones; each timing is a fresh
    interpreter running the body ``calls`` times.  Returns name ->
    (this tree's per-round minima, the other's), plus the names only
    this tree and only the other tree register.
    """
    trees = (this_root(), Path(other_root).resolve())
    mine, theirs = (_tree_python(root, _AB_NAMES) for root in trees)
    if substring:
        mine = [name for name in mine if substring in name]
        theirs = [name for name in theirs if substring in name]
    shared = [name for name in mine if name in theirs]
    timings = {name: ([], []) for name in shared}
    for round_index in range(rounds):
        order = (0, 1) if round_index % 2 == 0 else (1, 0)
        for name in shared:
            for side in order:
                timings[name][side].append(_tree_python(
                    trees[side], _AB_BODY, name, str(calls),
                ))
    return (timings, [name for name in mine if name not in theirs],
            [name for name in theirs if name not in mine])


AB_SIGNIFICANCE = 0.05
"""A verdict needs a two-sided sign test over the rounds below this:
at least 9 of 10 rounds one way."""


@dataclass(frozen=True)
class ABRow:
    """One body's A/B summary; ratios are this tree over the other."""

    name: str
    this_s: float
    other_s: float
    ratio: float
    low: float
    high: float
    won: int
    lost: int
    rounds: int

    @property
    def verdict(self) -> str:
        """``slower``/``faster`` when a two-sided sign test over the
        rounds (ties count for neither side) falls below
        :data:`AB_SIGNIFICANCE`, else ``~``."""
        decided = self.won + self.lost
        tail = sum(math.comb(decided, k)
                   for k in range(min(self.won, self.lost) + 1))
        if 2 * tail / 2 ** decided >= AB_SIGNIFICANCE:
            return "~"
        return "faster" if self.won > self.lost else "slower"


def summarize_ab(timings: dict[str, tuple[list[float], list[float]]]
                 ) -> list[ABRow]:
    """Per body: the ratio of the two sides' minima over all rounds,
    the range of the per-round ratios, and the rounds this tree won
    (ran faster) and lost."""
    rows = []
    for name, (mine, theirs) in timings.items():
        ratios = [a / b for a, b in zip(mine, theirs)]
        rows.append(ABRow(
            name=name, this_s=min(mine), other_s=min(theirs),
            ratio=min(mine) / min(theirs), low=min(ratios),
            high=max(ratios), won=sum(a < b for a, b in zip(mine, theirs)),
            lost=sum(a > b for a, b in zip(mine, theirs)),
            rounds=len(ratios),
        ))
    return rows


def render_ab(rows: list[ABRow], only_this: list[str],
              only_other: list[str]) -> str:
    """Text table of :func:`summarize_ab`, then the unshared bodies."""
    lines = [
        f"{'benchmark':<42}{'this':>10}{'other':>10}{'ratio':>8}"
        f"{'range':>16}{'won':>6}  verdict",
        "-" * 101,
    ]
    for row in rows:
        lines.append(
            f"{row.name:<42}{row.this_s * 1e3:>8.2f}ms"
            f"{row.other_s * 1e3:>8.2f}ms{row.ratio:>8.3f}"
            f"{f'[{row.low:.3f}, {row.high:.3f}]':>16}"
            f"{f'{row.won}/{row.rounds}':>6}  {row.verdict}"
        )
    lines.append("ratio: this tree's CPU-time minimum over the other's "
                 "(< 1 is faster); range: per-round ratios")
    if only_this:
        lines.append("only in this tree: " + ", ".join(only_this))
    if only_other:
        lines.append("only in the other tree: " + ", ".join(only_other))
    return "\n".join(lines)

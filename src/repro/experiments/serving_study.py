"""Latency-under-load studies: the serving cell's worker.

One cell shape covers every serving scenario: a
:class:`~repro.experiments.serving_cell.ServingCell` is a traffic mix (per-model SLOs, priorities, quotas, optional
autoregressive lengths) under one batch policy, served by a fleet of
``replicas`` platform nodes — one by default.  A real fleet (several
replicas, node hazards or per-node overrides) gets a
:class:`~repro.cluster.router.ClusterRouter` in front; a single node
serves the arrival stream directly.  The declarative study layer
(:mod:`repro.studies`) lowers every serving point of a
:class:`~repro.studies.spec.StudySpec` onto one of these.

Cells reuse the parallel fan-out and the persistent on-disk result
cache of the experiment runner, keyed like every other cell by
:func:`~repro.experiments.runner.fields_key`, so serving points never
collide with each other or with single-inference results.  The cell
itself and the text reports of its results
(:mod:`repro.experiments.reports`) live apart from this worker, so a
study served from the cache loads none of the layers below.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ..cluster.hazards import node_outages
from ..cluster.router import ClusterNode, ClusterRouter
from ..core.engine import ExecutionTrace
from ..dnn.workload import extract_workload
from ..mapping.residency import WeightResidency
from ..records import HazardRecord
from ..serving.lifecycle import LifecycleDriver
from ..serving.metrics import (
    ClusterResult,
    LatencyProfile,
    NodeStats,
    RequestTable,
    ServingResult,
    mean_time_to_repair,
    request_fields,
)
from ..serving.scheduler import RequestScheduler
from ..sim.core import Environment
from ..studies.faults import node_hazard_timeline, platform_timelines
from ..studies.registry import MODELS, ROUTERS
from ..studies.spec import NodeOverrideSpec
from .runner import build_platform
from .serving_cell import ServingCell

if TYPE_CHECKING:
    from ..interposer.photonic.faults import ChipletMacDegrade


# ---------------------------------------------------------------------------
# Compute hazards.
# ---------------------------------------------------------------------------


def _drive_mac_degrade(env, compute, event: ChipletMacDegrade):
    """Apply one compute hazard to one occupancy: degrade at ``at_s``,
    restore after ``duration_s`` (never, when open-ended)."""
    if event.at_s > env.now:
        yield env.timeout(event.at_s - env.now)
    compute.set_mac_fraction(event.mac_fraction)
    if event.duration_s is not None:
        yield env.timeout(event.duration_s)
        compute.set_mac_fraction(1.0)


def start_compute_hazards(env, computes,
                          events: tuple[ChipletMacDegrade, ...]) -> None:
    """Launch the driver processes applying ``events`` to every
    occupancy in ``computes`` (one per node)."""
    for compute in computes:
        for event in events:
            env.process(_drive_mac_degrade(env, compute, event))


def compute_hazard_records(
    events: tuple[ChipletMacDegrade, ...], elapsed: float
) -> tuple[HazardRecord, ...]:
    """Synthesized engine-style records for applied compute hazards."""
    return tuple(
        HazardRecord(
            kind=event.kind,
            start_s=event.at_s,
            end_s=(
                event.at_s + event.duration_s
                if event.duration_s is not None else None
            ),
        )
        for event in events
        if event.at_s <= elapsed
    )


def _compute_spans(events: tuple[ChipletMacDegrade, ...],
                   elapsed: float) -> list[tuple[float, float]]:
    """(start, end) of every compute hazard that struck within the run,
    open-ended ones lasting to ``elapsed``."""
    return [
        (
            event.at_s,
            min(
                elapsed,
                event.at_s + event.duration_s
                if event.duration_s is not None else elapsed,
            ),
        )
        for event in events
        if event.at_s < elapsed
    ]


def _fault_spans(intervals: Sequence[tuple[float, float]],
                 compute_events: tuple[ChipletMacDegrade, ...],
                 outages: Sequence[tuple[int, float, float]],
                 elapsed: float) -> list[tuple[float, float]]:
    """(start, end) of every stretch with capacity below nominal: the
    platform hazard engine's degraded ``intervals``, the compute hazards
    (open ones lasting to ``elapsed``) and the nodes' out-of-rotation
    ``outages`` (:func:`~repro.cluster.hazards.node_outages`)."""
    return list(intervals) + _compute_spans(compute_events, elapsed) + [
        (start, end) for _, start, end in outages
    ]


def _fault_span(spans: Sequence[tuple[float, float]]
                ) -> "tuple[float, float] | None":
    """(first onset, last recovery) over :func:`_fault_spans`; ``None``
    for a clean run."""
    if not spans:
        return None
    return min(s for s, _ in spans), max(e for _, e in spans)


def _degraded_s(spans: Sequence[tuple[float, float]]) -> float:
    """``time_degraded_s``: wall-clock inside any of
    :func:`_fault_spans` (their union, so overlaps count once)."""
    total = 0.0
    cursor = 0.0
    for start, end in sorted(spans):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
        cursor = max(cursor, end)
    return total


# ---------------------------------------------------------------------------
# Traffic-mix streams.
# ---------------------------------------------------------------------------


def _mix_stream(models: tuple[tuple[str, float, float | None, int], ...],
                seed: int) -> Iterator[str] | None:
    """Seeded infinite stream assigning each arrival to a tenant.

    Single-tenant mixes skip the RNG entirely: every request targets
    the primary model.
    """
    if len(models) == 1:
        return None
    names = [name for name, _, _, _ in models]
    fractions = np.cumsum([fraction for _, fraction, _, _ in models])
    rng = np.random.default_rng((seed, 211))

    def stream() -> Iterator[str]:
        while True:
            draw = rng.random()
            index = int(np.searchsorted(fractions, draw, side="right"))
            yield names[min(index, len(names) - 1)]

    return stream()


def _sequence_stream(
    models: tuple[tuple[str, float, float | None, int], ...],
    sequences: tuple[tuple[int, int], ...],
    distribution: str,
    seed: int,
) -> Iterator[tuple[str, int, int]]:
    """Seeded infinite stream of (tenant, prompt, output) submissions.

    The tenant draw replays :func:`_mix_stream`'s RNG exactly
    (``(seed, 211)``); lengths come from an independent stream
    (``(seed, 311)``) so the sampler never perturbs tenant assignment.
    ``fixed`` uses the configured means verbatim; ``geometric`` draws
    each length with that mean (minimum one token).  Single-step
    tenants (``(0, 0)``) consume no length draws.
    """
    names = [name for name, _, _, _ in models]
    fractions = np.cumsum([fraction for _, fraction, _, _ in models])
    mix_rng = np.random.default_rng((seed, 211))
    length_rng = np.random.default_rng((seed, 311))

    def draw(mean: int) -> int:
        if mean <= 0:
            return 0
        if distribution == "fixed":
            return mean
        return int(length_rng.geometric(1.0 / mean))

    def stream() -> Iterator[tuple[str, int, int]]:
        while True:
            if len(names) == 1:
                index = 0
            else:
                pick = mix_rng.random()
                index = min(
                    int(np.searchsorted(fractions, pick, side="right")),
                    len(names) - 1,
                )
            prompt_mean, output_mean = sequences[index]
            yield names[index], draw(prompt_mean), draw(output_mean)

    return stream()


# ---------------------------------------------------------------------------
# Telemetry: one start/finish pair for every node count.
# ---------------------------------------------------------------------------


def _register_node_gauges(metrics, prefix: str, scheduler, fabric) -> None:
    """The standard serving gauges of one node, names ``prefix``-ed."""
    gauges = {
        "queue_depth": lambda: float(scheduler.queue_length),
        "inflight": lambda: float(scheduler.outstanding),
        "decode_pool_width": lambda: float(
            sum(len(pool) for pool in scheduler._pools.values())
        ),
        "weight_resident_bits": lambda: scheduler.residency.resident_bits,
        "kv_reserved_bits": lambda: (
            scheduler.kv.reserved_bits if scheduler.kv is not None else 0.0
        ),
        "mac_utilization": scheduler.compute.mean_utilization,
        "fabric_inflight": lambda: float(fabric.inflight_requests.value),
        "channel_utilization": lambda: (
            sum(c.utilization() for c in fabric.iter_channels())
            / max(1, sum(1 for _ in fabric.iter_channels()))
        ),
    }
    for name, fn in gauges.items():
        metrics.gauge(prefix + name, fn)


def start_telemetry(telemetry, env, nodes: Sequence[ClusterNode],
                    router: ClusterRouter | None, driver,
                    duration_s: float):
    """Build, attach and start one cell's telemetry session.

    Returns ``None`` for the degenerate section.  When armed, the
    recorder (if tracing) hooks into every scheduler, residency store,
    the router and the lifecycle driver; every node registers the
    standard gauge set (``nodeK.``-prefixed behind a router, with
    ``nodeK/`` trace tracks), the router adds its routable-node gauge,
    and the sim-time sampler process starts.  The sampler only *reads*
    simulation state and its extra timeout events never reorder
    existing same-time events, so armed runs produce bit-identical
    request records.
    """
    if not telemetry:
        return None
    # Deferred: the obs package is only needed on the armed path.
    from ..obs.session import TelemetrySession

    session = TelemetrySession(env, telemetry)
    recorder = session.recorder
    metrics = session.metrics
    for node in nodes:
        scheduler = node.scheduler
        prefix = f"{node.name}." if router is not None else ""
        if recorder is not None:
            scheduler.obs_trace = recorder
            node.residency.obs_trace = recorder
            if router is not None:
                scheduler.obs_prefix = f"{node.name}/"
        scheduler.obs_metrics = metrics
        _register_node_gauges(metrics, prefix, scheduler, node.sim.fabric)
    if router is not None:
        router.obs_trace = recorder
        metrics.gauge("routable_nodes",
                      lambda: float(len(router.routable_nodes())))
    if driver is not None:
        driver.obs_trace = recorder
    session.start(duration_s)
    return session


def finish_telemetry(session, nodes: Sequence[ClusterNode],
                     router: ClusterRouter | None, injected: int,
                     completed: int, shed: int):
    """Fold the final counters in (summed over nodes) and freeze the
    session; ``None`` passes through."""
    if session is None:
        return None
    metrics = session.metrics
    metrics.inc("requests_injected", injected)
    metrics.inc("requests_completed", completed)
    metrics.inc("requests_shed", shed)
    if router is not None:
        metrics.inc("requests_rerouted", router.requests_rerouted)
    for node in nodes:
        scheduler = node.scheduler
        metrics.inc("batches_dispatched", scheduler.batches_dispatched)
        metrics.inc("starvation_promotions",
                    scheduler.starvation_promotions)
        metrics.inc("decode_remaps", scheduler.decode_remaps)
        metrics.inc("weight_fetches", node.residency.fetches_issued)
        metrics.inc("weight_fetch_hits", node.residency.fetch_hits)
        metrics.inc("weight_evictions", node.residency.evictions)
        if scheduler.kv is not None:
            metrics.inc("kv_refusals", scheduler.kv.refusals)
    return session.summary(total_requests=injected)


# ---------------------------------------------------------------------------
# The worker.
# ---------------------------------------------------------------------------


def _build_node(cell: ServingCell, env: Environment, index: int,
                override: NodeOverrideSpec | None, fabric_faults,
                workloads: dict) -> ClusterNode:
    """One platform replica: simulation, residency and a scheduler
    serving every tenant with its SLO, priority and quota."""
    config, controller = cell.config, cell.controller
    if override is not None:
        if override.controller is not None:
            controller = override.controller
        if override.n_wavelengths is not None:
            config = config.with_wavelengths(override.n_wavelengths)
        if override.gateways_per_chiplet is not None:
            config = config.with_gateways_per_chiplet(
                override.gateways_per_chiplet
            )
    platform = build_platform(
        cell.platform, config, controller, faults=fabric_faults
    )
    sim = platform.build_simulation(env)
    residency = WeightResidency(
        env, capacity_bits=cell.residency_capacity_bits
    )
    quotas = cell.quotas or (None,) * len(cell.models)
    (primary, _, slo_s, priority), *tenants = cell.models
    scheduler = RequestScheduler(
        sim, sim.map_workload(workloads[primary]), primary,
        policy=cell.scheduler, residency=residency, trace=ExecutionTrace(),
        slo_s=slo_s, priority=priority, quota=quotas[0],
    )
    for tenant, (name, _, tenant_slo, tenant_priority) in enumerate(
        tenants, start=1
    ):
        scheduler.add_model(
            name, sim.map_workload(workloads[name]),
            slo_s=tenant_slo, priority=tenant_priority,
            quota=quotas[tenant],
        )
    return ClusterNode(
        index=index, platform=platform, sim=sim, scheduler=scheduler,
        residency=residency,
        weight=cell.weights[index] if cell.weights else 1.0,
    )


def simulate_serving_cell(cell: ServingCell,
                          record_sink: list | None = None
                          ) -> ServingResult:
    """Worker body: one full serving simulation of one cell.

    Every node stands up in one shared environment (their controllers,
    hazard engines and schedulers interleave on the same event queue).
    A fleet streams the arrivals through a router; a single node serves
    them directly.  Cells with an armed fidelity section run through
    the fluid engine instead.

    ``record_sink``, when given, receives every per-request record —
    the hybrid-fidelity calibration uses this to extract service-time
    quantiles that the aggregated result does not carry.
    """
    if cell.fidelity:
        # Deferred: the fidelity engine calls back into this worker.
        from .fidelity import simulate_fidelity_cell

        return simulate_fidelity_cell(cell)
    fabric_faults, compute_events = platform_timelines(cell.faults)
    workloads = {
        name: extract_workload(MODELS.get(name)())
        for name, _, _, _ in cell.models
    }
    overrides = {override.node: override for override in cell.node_overrides}
    with Environment() as env:
        nodes = [
            _build_node(cell, env, index, overrides.get(index), fabric_faults,
                        workloads)
            for index in range(cell.replicas)
        ]
        if compute_events:
            start_compute_hazards(
                env, [node.scheduler.compute for node in nodes],
                compute_events,
            )
        router = None
        if cell.is_fleet:
            router = ClusterRouter(
                nodes, ROUTERS.get(cell.router)(cell.replicas, cell.weights),
                node_events=node_hazard_timeline(cell.node_faults),
                reroute_on_fail=cell.reroute_on_fail,
                health=(
                    cell.resilience if cell.resilience.health_checked
                    else None
                ),
            )
        front = router if router is not None else nodes[0].scheduler
        if cell.sequences:
            mix = _sequence_stream(cell.models, cell.sequences,
                                   cell.length_distribution, cell.seed)
        else:
            mix = _mix_stream(cell.models, cell.seed)
        driver = None
        if cell.resilience.lifecycle_armed:
            driver = LifecycleDriver(front, cell.resilience, seed=cell.seed)
        session = start_telemetry(cell.telemetry, env, nodes, router, driver,
                                  cell.duration_s)
        entry = front if driver is None else driver
        entry.serve(cell.arrival_process(), cell.duration_s, models=mix)

        elapsed = env.now
        if driver is not None:
            # Client-visible accounting: logical requests, with retries and
            # hedges folded into each one's latency.
            records = driver.records
            injected = driver.requests_injected
            completed = driver.requests_completed
            shed = driver.requests_gave_up
            resilience_stats = driver.stats()
        else:
            records = [
                record for node in nodes for record in node.scheduler.records
            ]
            injected = (
                router.requests_routed if router is not None
                else nodes[0].scheduler.requests_injected
            )
            completed = sum(
                node.scheduler.requests_completed for node in nodes
            )
            shed = sum(node.scheduler.requests_shed for node in nodes)
            resilience_stats = None
        if record_sink is not None:
            record_sink.extend(records)
        common = dict(
            model=cell.mix_label,
            controller=cell.controller,
            policy=cell.scheduler.label,
            arrival_kind=cell.arrival_kind,
            offered_rps=cell.rate_rps,
            duration_s=cell.duration_s,
            elapsed_s=elapsed,
            requests_injected=injected,
            requests_completed=completed,
            requests_shed=shed,
            resilience=resilience_stats,
            telemetry=finish_telemetry(session, nodes, router, injected,
                                       completed, shed),
        )
        result = _serving_result(
            cell, nodes, router, RequestTable.from_records(records,
                                                           cell.tenants),
            compute_events, common,
        )
        for node in nodes:
            node.scheduler.detach()
        return result


def _serving_result(cell: ServingCell, nodes: Sequence[ClusterNode],
                    router: ClusterRouter | None, table: RequestTable,
                    compute_events, common: dict) -> ServingResult:
    """The result of one run, one node or many.

    The request-derived fields come from :func:`request_fields` over
    ``table``; this adds what only the simulation holds.  Energies,
    reconfigurations, in-flight means and KV/remap counters sum over
    the nodes, ``mean_compute_utilization`` is the mean over them, and
    ``channel_stats`` lists every node's channels in node order (named
    ``nodeK/<channel>`` behind a router).  Every node runs the same
    platform hazard timeline, so the hazard records and degraded
    intervals come from node 0's engine.  The fault window and
    ``time_degraded_s`` span platform hazards, compute hazards and the
    nodes' out-of-rotation spans together.
    """
    elapsed = common["elapsed_s"]
    per_node = []
    channel_stats: list = []
    network_energy_j = compute_energy_j = mean_inflight = 0.0
    kv_peak_bits = 0.0
    reconfigurations = kv_refusals = decode_remaps = 0
    for node in nodes:
        sim, scheduler = node.sim, node.scheduler
        served = [r for r in scheduler.records if not r.dropped]
        per_node.append(NodeStats(
            node=node.name,
            state=node.state,
            requests_completed=scheduler.requests_completed,
            requests_shed=scheduler.requests_shed,
            rerouted_away=node.rerouted_away,
            latency=LatencyProfile.from_samples(
                [r.latency_s for r in served]
            ),
            goodput_rps=(
                scheduler.requests_completed / elapsed
                if elapsed > 0 else 0.0
            ),
            mean_compute_utilization=scheduler.compute.mean_utilization(),
        ))
        network_energy_j += sim.fabric.energy_report().total_energy_j
        compute_energy_j += node.platform.trace_compute_energy_j(
            scheduler.trace, elapsed
        )
        scheduler.trace.record_channel_stats(sim.fabric)
        if router is None:
            channel_stats += scheduler.trace.channel_stats
        else:
            channel_stats += [
                replace(stat, name=f"{node.name}/{stat.name}")
                for stat in scheduler.trace.channel_stats
            ]
        mean_inflight += sim.fabric.mean_inflight_requests
        reconfigurations += sim.reconfigurations
        if scheduler.kv is not None:
            kv_refusals += scheduler.kv.refusals
            kv_peak_bits += scheduler.kv.peak_reserved_bits
        decode_remaps += scheduler.decode_remaps
    hazards = nodes[0].sim.hazards
    hazard_events: tuple = ()
    intervals: list = []
    if hazards is not None:
        hazard_events = tuple(hazards.records)
        intervals = hazards.degraded_intervals(elapsed)
    if compute_events:
        hazard_events += compute_hazard_records(compute_events, elapsed)
    outages: tuple = ()
    fleet = {}
    if router is not None:
        outages, availability = node_outages(
            router.records, cell.replicas, elapsed
        )
        incidents = router.incidents()
        fleet = dict(
            router=cell.router,
            requests_rerouted=router.requests_rerouted,
            node_events=tuple(router.records),
            availability=availability,
            mttr_s=mean_time_to_repair(incidents),
            incidents=incidents,
        )
    spans = _fault_spans(intervals, compute_events, outages, elapsed)
    quota_denied = sum(
        (Counter(node.scheduler.quota_denied) for node in nodes), Counter()
    )
    result_type = ServingResult if router is None else ClusterResult
    return result_type(
        platform=nodes[0].platform.name,
        mean_inflight=mean_inflight,
        mean_compute_utilization=sum(
            stats.mean_compute_utilization for stats in per_node
        ) / len(per_node),
        reconfigurations=reconfigurations,
        network_energy_j=network_energy_j,
        compute_energy_j=compute_energy_j,
        channel_stats=tuple(channel_stats),
        hazard_events=hazard_events,
        time_degraded_s=_degraded_s(spans),
        kv_refusals=kv_refusals,
        kv_peak_bits=kv_peak_bits,
        decode_remaps=decode_remaps,
        n_nodes=cell.replicas,
        per_node=tuple(per_node),
        **request_fields(table, elapsed, _fault_span(spans), quota_denied),
        **fleet,
        **common,
    )

"""Latency-under-load studies: serving simulations as cacheable cells.

One cell shape covers every serving scenario: a :class:`ServingCell`
is a traffic mix (per-model SLOs, priorities, quotas, optional
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
collide with each other or with single-inference results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..cluster.hazards import node_hazard_timeline
from ..cluster.router import ClusterNode, ClusterRouter, HealthPolicy
from ..config import PlatformConfig
from ..core.engine import ExecutionTrace
from ..dnn.workload import extract_workload
from ..interposer.photonic.faults import ChipletMacDegrade, HazardRecord
from ..mapping.residency import WeightResidency
from ..serving.lifecycle import LifecycleDriver, ResiliencePolicy
from ..serving.metrics import (
    ClusterResult,
    LatencyProfile,
    NodeStats,
    ServingResult,
    aggregate,
    mean_time_to_repair,
    per_model_stats,
    sequence_stats,
    windowed_stats,
)
from ..serving.scheduler import BatchPolicy, RequestScheduler
from ..sim.core import Environment
from ..studies.faults import platform_timelines
from ..studies.registry import ARRIVALS, MODELS, ROUTERS
from ..studies.spec import FaultSpec
from .runner import build_platform, fields_key

NodeOverride = tuple[int, "str | None", "int | None", "int | None"]
"""Picklable per-node override: (node, controller, n_wavelengths,
gateways_per_chiplet) with ``None`` meaning inherit."""


@dataclass(frozen=True)
class ServingCell:
    """One serving simulation point: a traffic mix on a fleet of nodes.

    ``models`` is the mix as ``(name, fraction, slo_s, priority)``
    tuples; the first entry is each scheduler's primary model.
    ``faults`` is the platform hazard timeline applied to every node.
    ``sequences`` marks an autoregressive scenario: one
    ``(prompt_tokens, output_tokens)`` pair per mix entry, ``(0, 0)``
    for single-step tenants, with ``length_distribution`` naming the
    per-request sampler.  ``quotas`` caps each tenant's outstanding
    requests per node (``None`` per entry = uncapped) and
    ``starvation_age_s`` arms the priority policy's aging guard.

    The fleet fields default to one node: ``replicas`` platform copies
    behind the ``router`` policy (``weights`` parameterise the weighted
    one), per-node ``node_overrides`` (:data:`NodeOverride` tuples),
    the node-level ``node_faults`` timeline, ``reroute_on_fail`` and the
    router's ``health`` signal path.  ``fidelity`` (a
    :class:`~repro.experiments.fidelity.FidelityPolicy`) and
    ``telemetry`` (a :class:`~repro.obs.policy.TelemetryPolicy`) arm the
    fluid fast path and the recording session.

    The worker reads nothing but these fields, so they are the cell's
    complete identity: :meth:`key` hashes all of them.
    """

    platform: str
    models: tuple[tuple[str, float, "float | None", int], ...]
    controller: str
    policy: BatchPolicy
    arrival_kind: str
    rate_rps: float
    duration_s: float
    seed: int
    config: PlatformConfig
    burstiness: float = 4.0
    dwell_s: float = 20e-6
    think_time_s: float = 10e-6
    residency_capacity_bits: float | None = None
    faults: FaultSpec | None = None
    resilience: ResiliencePolicy | None = None
    fidelity: "object | None" = None
    sequences: tuple[tuple[int, int], ...] = ()
    length_distribution: str = "fixed"
    quotas: tuple[int | None, ...] = ()
    starvation_age_s: float | None = None
    telemetry: "object | None" = None
    replicas: int = 1
    router: str = "round-robin"
    weights: tuple[float, ...] = ()
    reroute_on_fail: bool = True
    node_overrides: tuple[NodeOverride, ...] = ()
    node_faults: FaultSpec | None = None
    health: HealthPolicy | None = None

    @property
    def mix_label(self) -> str:
        """Readable mix name: ``70%LeNet5+30%ResNet50`` (or the model)."""
        if len(self.models) == 1:
            return self.models[0][0]
        return "+".join(
            f"{fraction * 100:.0f}%{name}"
            for name, fraction, _, _ in self.models
        )

    @property
    def is_fleet(self) -> bool:
        """Whether a router fronts the nodes.

        Only several replicas, node hazards or per-node overrides need
        one.  Otherwise the single node serves the arrival stream
        directly — the 1-replica identity, which adds no kernel events.
        """
        return (
            self.replicas > 1
            or bool(self.node_faults)
            or bool(self.node_overrides)
        )

    @property
    def grid_label(self) -> str:
        """Dry-run label: the mix, plus the fleet shape for fleets."""
        if self.is_fleet:
            return f"{self.replicas}x[{self.router}] {self.mix_label}"
        return self.mix_label

    def arrival_process(self):
        """Instantiate the cell's arrival process (via the registry)."""
        return ARRIVALS.get(self.arrival_kind)(
            self.rate_rps, self.seed, burstiness=self.burstiness,
            dwell_s=self.dwell_s, think_time_s=self.think_time_s,
        )

    def key(self) -> str:
        """Disk-cache key: :func:`~repro.experiments.runner.fields_key`."""
        return fields_key(self)


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
                 incidents: tuple, elapsed: float
                 ) -> list[tuple[float, float]]:
    """(start, end) of every stretch with capacity below nominal: the
    platform hazard engine's degraded ``intervals``, the compute hazards
    and the node ``incidents``, open ones lasting to ``elapsed``."""
    return list(intervals) + _compute_spans(compute_events, elapsed) + [
        (incident.start_s,
         incident.end_s if incident.end_s is not None else elapsed)
        for incident in incidents
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

    Returns ``None`` when the cell carries no policy.  When armed, the
    recorder (if tracing) hooks into every scheduler, residency store,
    the router and the lifecycle driver; every node registers the
    standard gauge set (``nodeK.``-prefixed behind a router, with
    ``nodeK/`` trace tracks), the router adds its routable-node gauge,
    and the sim-time sampler process starts.  The sampler only *reads*
    simulation state and its extra timeout events never reorder
    existing same-time events, so armed runs produce bit-identical
    request records.
    """
    if telemetry is None:
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
                override: "NodeOverride | None", fabric_faults,
                workloads: dict) -> ClusterNode:
    """One platform replica: simulation, residency and a scheduler
    serving every tenant with its SLO, priority and quota."""
    config, controller = cell.config, cell.controller
    if override is not None:
        _, node_controller, n_wavelengths, gateways = override
        if node_controller is not None:
            controller = node_controller
        if n_wavelengths is not None:
            config = config.with_wavelengths(n_wavelengths)
        if gateways is not None:
            config = config.with_gateways_per_chiplet(gateways)
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
        policy=cell.policy, residency=residency, trace=ExecutionTrace(),
        slo_s=slo_s, priority=priority, quota=quotas[0],
        starvation_age_s=cell.starvation_age_s,
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
    them directly.  Cells with an armed fidelity policy run through the
    fluid engine instead.

    ``record_sink``, when given, receives every per-request record —
    the hybrid-fidelity calibration uses this to extract service-time
    quantiles that the aggregated result does not carry.
    """
    if cell.fidelity is not None:
        # Deferred: the fidelity engine calls back into this worker.
        from .fidelity import simulate_fidelity_cell

        return simulate_fidelity_cell(cell)
    fabric_faults, compute_events = platform_timelines(cell.faults)
    workloads = {
        name: extract_workload(MODELS.get(name)())
        for name, _, _, _ in cell.models
    }
    overrides = {entry[0]: entry for entry in cell.node_overrides}
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
                health=cell.health or None,
            )
        front = router if router is not None else nodes[0].scheduler
        if cell.sequences:
            mix = _sequence_stream(cell.models, cell.sequences,
                                   cell.length_distribution, cell.seed)
        else:
            mix = _mix_stream(cell.models, cell.seed)
        driver = None
        if cell.resilience:
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
        quota_denied = sum(
            (Counter(node.scheduler.quota_denied) for node in nodes), Counter()
        )
        common = dict(
            model=cell.mix_label,
            controller=cell.controller,
            policy=cell.policy.label,
            arrival_kind=cell.arrival_kind,
            offered_rps=cell.rate_rps,
            duration_s=cell.duration_s,
            elapsed_s=elapsed,
            requests_injected=injected,
            requests_completed=completed,
            requests_shed=shed,
            per_model=per_model_stats(records, elapsed,
                                      nodes[0].scheduler.slos(),
                                      quota_denied=quota_denied),
            resilience=resilience_stats,
            telemetry=finish_telemetry(session, nodes, router, injected,
                                       completed, shed),
        )
        result = _serving_result(cell, nodes, router, records,
                                 compute_events, common)
        for node in nodes:
            node.scheduler.detach()
        return result


def _serving_result(cell: ServingCell, nodes: Sequence[ClusterNode],
                    router: ClusterRouter | None, records,
                    compute_events, common: dict) -> ServingResult:
    """The result of one run, one node or many.

    Energies, reconfigurations, in-flight means and KV/remap counters
    sum over the nodes, ``mean_compute_utilization`` is the mean over
    them, and ``channel_stats`` lists every node's channels in node
    order.  Every node runs the same platform hazard timeline, so the
    hazard records and degraded intervals come from node 0's engine.
    The fault window and ``time_degraded_s`` span platform hazards,
    compute hazards and node incidents together.
    """
    elapsed = common["elapsed_s"]
    latency, queue_delay, mean_batch = aggregate(records)
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
        channel_stats += scheduler.trace.channel_stats
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
    incidents = router.incidents() if router is not None else ()
    spans = _fault_spans(intervals, compute_events, incidents, elapsed)
    window = _fault_span(spans)
    windows = ()
    if window is not None:
        windows = windowed_stats(records, window[0], window[1], elapsed)
    seq_ttft = seq_token = None
    tokens = 0
    tokens_per_s = 0.0
    if cell.sequences:
        seq_ttft, seq_token, tokens, tokens_per_s = sequence_stats(
            records, elapsed
        )
    fleet = {}
    if router is not None:
        fleet = dict(
            router=cell.router,
            requests_rerouted=router.requests_rerouted,
            node_events=tuple(router.records),
            availability=router.availability(elapsed),
            mttr_s=mean_time_to_repair(incidents),
            incidents=incidents,
        )
    result_type = ServingResult if router is None else ClusterResult
    return result_type(
        platform=nodes[0].platform.name,
        latency=latency,
        queue_delay=queue_delay,
        mean_batch_size=mean_batch,
        mean_inflight=mean_inflight,
        mean_compute_utilization=sum(
            stats.mean_compute_utilization for stats in per_node
        ) / len(per_node),
        reconfigurations=reconfigurations,
        network_energy_j=network_energy_j,
        compute_energy_j=compute_energy_j,
        channel_stats=tuple(channel_stats),
        windows=windows,
        hazard_events=hazard_events,
        time_degraded_s=_degraded_s(spans),
        ttft=seq_ttft,
        token_latency=seq_token,
        tokens_generated=tokens,
        tokens_per_s=tokens_per_s,
        kv_refusals=kv_refusals,
        kv_peak_bits=kv_peak_bits,
        decode_remaps=decode_remaps,
        n_nodes=cell.replicas,
        per_node=tuple(per_node),
        **fleet,
        **common,
    )


# ---------------------------------------------------------------------------
# Text reports.
# ---------------------------------------------------------------------------


def render_slo_summary(results: Sequence[ServingResult],
                       labels: Sequence[str]) -> str:
    """Per-tenant SLO table: one row per (point, model), each ending in
    its point's label.

    Empty string when no result carries per-model stats (classic
    latency–throughput sweeps), so callers can append unconditionally.
    """
    rows = [
        (result, label, stats)
        for result, label in zip(results, labels)
        for stats in result.per_model
    ]
    if not rows:
        return ""
    header = (
        f"{'policy':<16}{'offered/s':>12}  {'model':<18}{'slo(us)':>9}"
        f"{'done':>7}{'shed':>6}{'viol':>6}{'attain':>9}{'p99(us)':>10}"
        "  point"
    )
    lines = [header, "-" * len(header)]
    for result, label, stats in rows:
        slo = "-" if stats.slo_s is None else f"{stats.slo_s * 1e6:.0f}"
        lines.append(
            f"{result.policy:<16}{result.offered_rps:>12.0f}  "
            f"{stats.model:<18}{slo:>9}"
            f"{stats.completed:>7}{stats.shed:>6}{stats.slo_violations:>6}"
            f"{stats.slo_attainment:>9.2%}"
            f"{stats.latency.p99_s * 1e6:>10.1f}  {label}"
        )
    return "\n".join(lines)


def render_sequence_summary(results: Sequence[ServingResult],
                            labels: Sequence[str]) -> str:
    """Autoregressive serving table: one row per sequence-serving point,
    each ending in its point's label.

    Empty string when no result carries token metrics (single-step
    runs), so callers can append unconditionally.
    """
    rows = [
        (result, label)
        for result, label in zip(results, labels)
        if result.is_sequence_run
    ]
    if not rows:
        return ""
    header = (
        f"{'policy':<16}{'offered/s':>12}  {'mix':<26}"
        f"{'ttft p50(us)':>13}{'ttft p99(us)':>13}{'tok p99(us)':>12}"
        f"{'tokens':>9}{'tok/s':>11}{'kv-ref':>7}{'remaps':>7}  point"
    )
    lines = [header, "-" * len(header)]
    for result, label in rows:
        ttft = result.ttft
        token = result.token_latency
        lines.append(
            f"{result.policy:<16}{result.offered_rps:>12.0f}  "
            f"{result.model:<26}"
            f"{(ttft.p50_s * 1e6 if ttft else 0):>13.1f}"
            f"{(ttft.p99_s * 1e6 if ttft else 0):>13.1f}"
            f"{(token.p99_s * 1e6 if token else 0):>12.1f}"
            f"{result.tokens_generated:>9}"
            f"{result.tokens_per_s:>11.0f}"
            f"{result.kv_refusals:>7}"
            f"{result.decode_remaps:>7}  {label}"
        )
    return "\n".join(lines)


def render_fault_windows(results: Sequence[ServingResult],
                         labels: Sequence[str]) -> str:
    """Windowed degradation table: one row per (point, window), each
    ending in its point's label.

    Empty string when no result carries fault windows (fault-free
    runs), so callers can append unconditionally.
    """
    labelled = [
        (result, label)
        for result, label in zip(results, labels)
        if result.windows
    ]
    if not labelled:
        return ""
    header = (
        f"{'policy':<16}{'offered/s':>12}  {'window':<8}{'span(us)':>16}"
        f"{'done':>7}{'shed':>6}{'goodput/s':>12}{'p99(us)':>10}"
        f"{'attain':>9}  point"
    )
    lines = [header, "-" * len(header)]
    for result, label in labelled:
        for window in result.windows:
            span = (
                f"{window.start_s * 1e6:.0f}-{window.end_s * 1e6:.0f}"
            )
            lines.append(
                f"{result.policy:<16}{result.offered_rps:>12.0f}  "
                f"{window.label:<8}{span:>16}"
                f"{window.completed:>7}{window.shed:>6}"
                f"{window.goodput_rps:>12.0f}"
                f"{window.latency.p99_s * 1e6:>10.1f}"
                f"{window.slo_attainment:>9.2%}  {label}"
            )
    for result, label in labelled:
        lines.append(
            f"{result.policy:<16}{result.offered_rps:>12.0f}  "
            f"time degraded: {result.time_degraded_s * 1e6:.0f} us "
            f"({result.platform}, {result.controller})  {label}"
        )
    return "\n".join(lines)


def render_serving_study(results: Sequence[ServingResult],
                         labels: Sequence[str]) -> str:
    """Text latency–throughput table, one row per simulated point, each
    ending in its point's label.

    Points a router served add one row per node beneath their own:
    final state, completed and shed counts, goodput, latency, MAC
    utilization and the requests rerouted away from it.
    """
    header = (
        f"{'platform':<28}{'policy':<12}{'router':<18}{'nodes':>6}"
        f"{'offered/s':>12}{'goodput/s':>12}"
        f"{'p50(us)':>11}{'p95(us)':>11}{'p99(us)':>11}{'util':>8}"
        f"{'mac':>7}{'imbal':>7}{'rerouted':>9}"
    )
    # Five columns past the header hold the saturation flag.
    row_width = len(header) + 5
    header = f"{header:<{row_width}}  point"
    lines = [header, "-" * len(header)]
    ordered = sorted(
        zip(results, labels),
        key=lambda pair: (
            pair[0].platform, pair[0].controller, pair[0].policy,
            pair[0].router, pair[0].n_nodes, pair[0].offered_rps,
        ),
    )
    for result, point in ordered:
        lines.append(f"{result.summary_row():<{row_width}}  {point}")
        if result.router == "-":
            continue
        for stats in result.per_node:
            label = (f"  {stats.node} {stats.state}: "
                     f"{stats.requests_completed} done, "
                     f"{stats.requests_shed} shed")
            # The label spans the platform..offered/s columns (76).
            lines.append(
                f"{label:<76}{stats.goodput_rps:>12.0f}"
                f"{stats.latency.p50_s * 1e6:>11.1f}"
                f"{stats.latency.p95_s * 1e6:>11.1f}"
                f"{stats.latency.p99_s * 1e6:>11.1f}{'':>8}"
                f"{stats.mean_compute_utilization:>7.2f}{'':>7}"
                f"{stats.rerouted_away:>9}"
            )
    return "\n".join(lines)

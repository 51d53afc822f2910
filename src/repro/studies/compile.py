"""The study compiler: lower a :class:`StudySpec` onto simulation cells.

``run_study`` is the single entry point every experiment-facing surface
goes through — the CLI verbs build specs and call it, the ``repro
study`` verb feeds it JSON files, and library users hand it spec
objects.  It expands the sweep grid, resolves every name against the
registries (typed did-you-mean errors), lowers each grid point onto
cells, and runs the cells through the runner's parallel/cached
machinery:

* every ``inference`` point lowers to one
  :class:`~repro.experiments.runner.InferenceCell` per model of its
  workload — the cells :class:`~repro.experiments.runner.ExperimentRunner`
  runs too, so both paths share warm caches;
* every ``serving`` point — one node or a fleet, with any traffic mix,
  policy, hazard, lifecycle, fidelity or telemetry section — lowers to
  one :class:`~repro.experiments.serving_study.ServingCell`.

Both cell kinds key by every one of their fields
(:func:`~repro.experiments.runner.fields_key`).

The serving layers (the scheduler, the cluster router, the lifecycle
driver, numpy-backed arrivals) load inside the serving lowering, the
way fidelity and telemetry always have: an inference study never
imports them, and a serving study's lowering imports everything its
run needs, so ``run_study`` spends no time importing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from ..config import DEFAULT_PLATFORM, PlatformConfig
from ..dnn.zoo import TRANSFORMER_BUILDERS
from ..errors import SpecError
from ..interposer.photonic.controllers import EPOCH_CONTROLLERS
from ..experiments.runner import (
    CacheStats,
    InferenceCell,
    ResultCache,
    cell_label,
    run_cached,
    simulate_inference_cell,
)
from .faults import hazard_timeline, platform_timelines
from .registry import (
    ARRIVALS,
    BATCH_POLICIES,
    CONTROLLERS,
    MODELS,
    PLATFORMS,
    ROUTERS,
)
from .spec import ClusterSpec, FaultSpec, SchedulerSpec, StudySpec

if TYPE_CHECKING:
    from ..cluster.router import HealthPolicy
    from ..experiments.serving_study import ServingCell
    from ..serving.lifecycle import ResiliencePolicy
    from ..serving.metrics import ServingResult
    from ..serving.scheduler import BatchPolicy

SIPH_PLATFORM = "2.5D-CrossLight-SiPh"
"""The one platform whose fabric takes a reconfiguration controller."""


# ---------------------------------------------------------------------------
# Spec resolution: names, configs, policies, the expanded grid.
# ---------------------------------------------------------------------------


def build_policy(scheduler: SchedulerSpec) -> BatchPolicy:
    """Resolve a scheduler spec into a dispatch policy (typed errors)."""
    return BATCH_POLICIES.get(scheduler.policy)(
        scheduler.max_batch, scheduler.batch_timeout_s,
        scheduler.max_inflight, scheduler.shed_expired,
    )


def build_resilience(spec: StudySpec) -> ResiliencePolicy | None:
    """The point's request-lifecycle policy; ``None`` when degenerate.

    A spec with no timeout, no retries and no hedging lowers to the
    submit-once path: the cell carries no policy.
    """
    section = spec.resilience
    if not section:
        return None
    from ..serving.lifecycle import ResiliencePolicy

    policy = ResiliencePolicy(
        timeout_s=section.timeout_s,
        max_retries=section.max_retries,
        retry_backoff_s=section.retry_backoff_s,
        retry_jitter=section.retry_jitter,
        retry_budget=section.retry_budget,
        hedge_delay_s=section.hedge_delay_s,
    )
    return policy if policy else None


def build_fidelity(spec: StudySpec):
    """The point's hybrid-fidelity policy; ``None`` when degenerate.

    A ``fidelity`` section in ``des`` mode (the default) lowers to
    full DES: the cell carries no policy.  The armed modes compile to
    a picklable
    :class:`~repro.experiments.fidelity.FidelityPolicy` the cell
    workers dispatch on.
    """
    section = spec.fidelity
    if not section:
        return None
    # Deferred: the fidelity engine imports the cell modules this
    # compiler lowers onto.
    from ..experiments.fidelity import FidelityPolicy

    return FidelityPolicy(
        mode=section.mode,
        error_budget=section.error_budget,
        calibration_s=section.calibration_s,
    )


def build_telemetry(spec: StudySpec):
    """The point's telemetry policy; ``None`` when degenerate.

    The default (empty) telemetry section lowers to an untelemetered
    run: the cell carries no policy.  An armed section compiles
    to a picklable :class:`~repro.obs.policy.TelemetryPolicy` the cell
    workers build a recording session from.
    """
    section = spec.telemetry
    if not section:
        return None
    from ..obs.policy import TelemetryPolicy
    # The armed run records through a session: load it here, at
    # lowering, so the run imports nothing.
    from ..obs.session import TelemetrySession  # noqa: F401

    return TelemetryPolicy(
        trace=section.trace,
        sample_rate=section.sample_rate,
        metrics_interval_s=section.metrics_interval_s,
    )


def _validate_fidelity(point: StudySpec) -> None:
    """Reject spec features the fluid model cannot express.

    The spec layer already rejects closed-loop arrivals, armed
    resilience and deadline shedding; here the compiler checks the
    parts that need lowering context — fabric-level hazards (the fluid
    queue has no photonic-channel model; only compute-side
    ``chiplet-mac-degrade`` windows map onto capacity segments) and
    health-checked routing (probe dynamics are inherently event-driven).
    """
    if not point.fidelity:
        return
    _, compute = platform_timelines(point.platform.faults)
    n_fabric = len(point.platform.faults.events) - len(compute)
    if n_fabric:
        raise SpecError(
            "fidelity modes fluid/auto support only compute-side "
            "platform faults (chiplet-mac-degrade); "
            f"{n_fabric} fabric-level event(s) present — use "
            "fidelity mode 'des' for photonic hazard studies"
        )
    if build_health(point) is not None:
        raise SpecError(
            "fidelity modes fluid/auto do not model probe-based health "
            "checking; use fidelity mode 'des' (or omniscient signals)"
        )


def build_health(spec: StudySpec) -> HealthPolicy | None:
    """The point's router signal path; ``None`` means omniscient —
    zero staleness and no probes lower to the instant-view router."""
    section = spec.resilience
    if not section.health_checked:
        return None
    from ..cluster.router import HealthPolicy

    return HealthPolicy(
        signal_staleness_s=section.signal_staleness_s,
        probe_interval_s=section.probe_interval_s,
        probe_misses=section.probe_misses,
    )


def resolve_config(spec: StudySpec,
                   base_config: PlatformConfig | None = None
                   ) -> PlatformConfig:
    """The platform configuration of one resolved grid point."""
    config = base_config or DEFAULT_PLATFORM
    if spec.platform.n_wavelengths is not None:
        config = config.with_wavelengths(spec.platform.n_wavelengths)
    if spec.platform.gateways_per_chiplet is not None:
        config = config.with_gateways_per_chiplet(
            spec.platform.gateways_per_chiplet
        )
    if spec.platform.controller_epoch_s is not None:
        config = config.with_epoch(spec.platform.controller_epoch_s)
    return config


def _validate_names(spec: StudySpec) -> None:
    """Resolve every registry name once, before any simulation runs."""
    PLATFORMS.get(spec.platform.name)
    CONTROLLERS.get(spec.platform.controller)
    for entry in spec.workload.models:
        MODELS.get(entry.model)
    if spec.platform.controller_epoch_s is not None:
        # Inert-knob rejection: the epoch only drives the reconfiguring
        # controllers, and only the SiPh fabric has one at all.
        if spec.platform.name != SIPH_PLATFORM:
            raise SpecError(
                f"platform.controller_epoch_s applies only to "
                f"{SIPH_PLATFORM!r} (the platform with a reconfiguration "
                f"controller), got platform {spec.platform.name!r}"
            )
        if spec.platform.controller not in EPOCH_CONTROLLERS:
            raise SpecError(
                f"platform.controller_epoch_s applies only to the "
                f"epoch-driven controllers "
                f"({', '.join(EPOCH_CONTROLLERS)}); the "
                f"{spec.platform.controller!r} controller never acts on "
                "the epoch"
            )
    for entry in spec.workload.models:
        prompt, output = spec.workload.resolved_lengths(entry)
        is_transformer = entry.model in TRANSFORMER_BUILDERS
        if output > 0 and not is_transformer:
            raise SpecError(
                f"sequence lengths on {entry.model!r}, which has no "
                "attention layers; autoregressive serving needs a "
                f"transformer model "
                f"({', '.join(sorted(TRANSFORMER_BUILDERS))}) — CNN "
                "tenants keep prompt_tokens/output_tokens at 0"
            )
        if spec.kind == "serving" and is_transformer and output == 0:
            raise SpecError(
                f"transformer model {entry.model!r} in a serving mix "
                "needs sequence lengths (set output_tokens, plus "
                "prompt_tokens, at the workload or tenant level)"
            )
    if spec.platform.faults.events:
        if spec.platform.name != SIPH_PLATFORM:
            raise SpecError(
                f"platform.faults applies only to {SIPH_PLATFORM!r} "
                f"(the hazard engine mutates its photonic fabric), got "
                f"platform {spec.platform.name!r}"
            )
        if spec.kind == "serving":
            platform_timelines(spec.platform.faults)
        else:
            # No serving layer: compute-side kinds rejected too.
            hazard_timeline(spec.platform.faults)
    if spec.kind == "serving":
        ARRIVALS.get(spec.workload.arrival)
        build_policy(spec.scheduler)
        _validate_fidelity(spec)
    if spec.cluster is not None:
        _validate_cluster(spec)


def _validate_cluster(spec: StudySpec) -> None:
    """Resolve and sanity-check one point's cluster section."""
    from ..cluster.hazards import node_hazard_timeline, validate_node_timeline

    cluster = spec.cluster
    # Building the policy also validates the weights against the
    # replica count (the weighted router demands one per node).
    ROUTERS.get(cluster.router)(cluster.replicas, cluster.weights)
    for override in cluster.nodes:
        if override.controller is not None:
            CONTROLLERS.get(override.controller)
    events = node_hazard_timeline(cluster.faults)
    # Probe-based health checking routes on a stale view instead of
    # raising, so (only then) a correlated outage may take down the
    # whole fleet.
    validate_node_timeline(
        events, cluster.replicas,
        allow_total_outage=spec.resilience.probe_interval_s is not None,
    )


def expand_points(spec: StudySpec) -> list[StudySpec]:
    """The resolved grid, with the controller axis pinned off-SiPh.

    Controllers only differentiate the photonic platform: grid points
    on other platforms collapse onto the controller axis's first value
    and deduplicate, so baseline platforms never run duplicate cells.
    """
    points = spec.expand()
    controller_axis = next(
        (axis for axis in spec.sweep.axes
         if axis.field == "platform.controller"),
        None,
    )
    if controller_axis is None:
        return points
    seen: set[str] = set()
    pinned: list[StudySpec] = []
    for point in points:
        if point.platform.name != SIPH_PLATFORM:
            point = point.with_override(
                "platform.controller", controller_axis.values[0]
            )
        digest = point.digest
        if digest not in seen:
            seen.add(digest)
            pinned.append(point)
    return pinned


def lower_serving_point(point: StudySpec,
                        config: PlatformConfig) -> ServingCell:
    """One resolved serving point to its serving cell.

    A point without a ``cluster`` section is the one-node fleet.
    """
    from ..experiments.serving_study import ServingCell

    workload = point.workload
    cluster = point.cluster or ClusterSpec()
    return ServingCell(
        platform=point.platform.name,
        models=tuple(
            (entry.model, entry.fraction, entry.slo_s, entry.priority)
            for entry in workload.models
        ),
        controller=point.platform.controller,
        policy=build_policy(point.scheduler),
        arrival_kind=workload.arrival,
        rate_rps=workload.rate_rps,
        duration_s=workload.duration_s,
        seed=workload.seed,
        config=config,
        burstiness=workload.burstiness,
        dwell_s=workload.dwell_s,
        think_time_s=workload.think_time_s,
        residency_capacity_bits=point.residency_capacity_bits,
        faults=point.platform.faults or None,
        resilience=build_resilience(point),
        fidelity=build_fidelity(point),
        sequences=(
            tuple(
                workload.resolved_lengths(entry)
                for entry in workload.models
            )
            if workload.has_sequences else ()
        ),
        length_distribution=workload.length_distribution,
        quotas=(
            tuple(entry.quota for entry in workload.models)
            if workload.has_quotas else ()
        ),
        starvation_age_s=point.scheduler.starvation_age_s,
        telemetry=build_telemetry(point),
        replicas=cluster.replicas,
        router=cluster.router,
        weights=cluster.weights,
        reroute_on_fail=cluster.reroute_on_fail,
        node_overrides=tuple(
            (override.node, override.controller, override.n_wavelengths,
             override.gateways_per_chiplet)
            for override in cluster.nodes
        ),
        node_faults=cluster.faults or None,
        health=build_health(point),
    )


# ---------------------------------------------------------------------------
# The entry point.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyPoint:
    """One resolved grid point and its result(s).

    Serving points carry exactly one :class:`ServingResult`; inference
    points carry one :class:`InferenceResult` per model of the
    workload, in mix order.
    """

    spec: StudySpec
    results: tuple


@dataclass(frozen=True)
class StudyResult:
    """Everything ``run_study`` produced for one spec.

    ``cache_stats`` tallies the run's result-cache behaviour (hits,
    misses, corrupt evictions, cells actually simulated) — the CLI
    prints its summary after each ``repro study`` run.
    """

    spec: StudySpec
    points: tuple[StudyPoint, ...]
    cache_stats: "CacheStats | None" = None

    def flat_results(self) -> list:
        """Every result across the grid, point order."""
        return [result for point in self.points for result in point.results]

    def serving_results(self) -> list[ServingResult]:
        """Every serving result across the grid (none for inference)."""
        if self.spec.kind == "inference":
            return []
        return self.flat_results()

    def point_labels(self) -> list[str]:
        """Each point's swept fields (:func:`point_label`), point order:
        parallel to :meth:`serving_results`, which has one result per
        point."""
        return [point_label(point.spec, self.spec) for point in self.points]


def lower_study(
    spec: StudySpec, base_config: PlatformConfig | None = None
) -> tuple[list[StudySpec], list[list]]:
    """The fully lowered grid — nothing simulated.

    Returns the resolved grid points and, per point, the list of cells
    it lowers onto (one serving cell, or one inference cell per model
    of the workload).  Shared by :func:`run_study` (which simulates
    them) and :func:`render_dry_run` (which only prints them).
    """
    points = expand_points(spec)
    for point in points:
        _validate_names(point)
    cells_per_point: list[list] = []
    for point in points:
        config = resolve_config(point, base_config)
        if spec.kind == "inference":
            cells_per_point.append([
                InferenceCell(
                    platform=point.platform.name,
                    model=entry.model,
                    controller=point.platform.controller,
                    config=config,
                    batch_size=point.workload.batch_size,
                    faults=(
                        point.platform.faults
                        if point.platform.faults.events else None
                    ),
                )
                for entry in point.workload.models
            ])
        else:
            cells_per_point.append(
                [lower_serving_point(point, config)]
            )
    return points, cells_per_point


def run_study(spec: StudySpec, jobs: int = 1,
              cache_dir: str | Path | None = None,
              base_config: PlatformConfig | None = None,
              stats: CacheStats | None = None) -> StudyResult:
    """Execute a declarative study spec end to end.

    Expands the sweep grid, lowers every point onto simulation cells
    and runs them through the shared parallel (``jobs``) and
    disk-cached (``cache_dir``) cell machinery.  ``base_config`` is a
    Python-API escape hatch for sweeps over a non-default
    :class:`PlatformConfig`; spec-level platform knobs apply on top of
    it (JSON specs always start from the Table 1 defaults).  Callers
    running several studies in one invocation (e.g. ``repro dse``) can
    pass a shared ``stats`` accumulator to aggregate hit/miss counts.
    """
    points, cells_per_point = lower_study(spec, base_config)
    cells = [cell for group in cells_per_point for cell in group]
    if stats is None:
        stats = CacheStats()

    if spec.kind == "inference":
        simulate = simulate_inference_cell
    else:
        # Loaded by the serving lowering above: no import cost here.
        from ..experiments.serving_study import simulate_serving_cell

        simulate = simulate_serving_cell
    labels = [
        cell_label(cell, point_label(point, spec))
        for point, group in zip(points, cells_per_point)
        for cell in group
    ]
    results = run_cached(
        cells, simulate, jobs=jobs, cache_dir=cache_dir, stats=stats,
        labels=labels,
    )

    grouped = []
    cursor = 0
    for group in cells_per_point:
        grouped.append(tuple(results[cursor:cursor + len(group)]))
        cursor += len(group)

    return StudyResult(
        spec=spec,
        points=tuple(
            StudyPoint(spec=point, results=group)
            for point, group in zip(points, grouped)
        ),
        cache_stats=stats,
    )


def render_study(study: StudyResult) -> str:
    """Text report for one executed study, by kind."""
    lines = [f"study: {study.spec.name} ({study.spec.kind}, "
             f"{len(study.points)} point(s))", ""]
    if study.spec.kind == "inference":
        header = (
            f"{'platform':<28}{'model':<14}{'power':>11}{'latency':>15}"
            f"{'EPB':>15}"
        )
        lines += [header, "-" * len(header)]
        lines += [result.summary_row() for result in study.flat_results()]
    else:
        from ..experiments.serving_study import (
            render_fault_windows,
            render_sequence_summary,
            render_serving_study,
            render_slo_summary,
        )

        results = study.serving_results()
        labels = study.point_labels()
        lines.append(render_serving_study(results, labels))
        sequence_table = render_sequence_summary(results, labels)
        if sequence_table:
            lines += ["", "transformer serving (token metrics):",
                      sequence_table]
        slo_table = render_slo_summary(results, labels)
        if slo_table:
            lines += ["", "per-model SLO attainment:", slo_table]
        fault_table = render_fault_windows(results, labels)
        if fault_table:
            lines += ["", "fault windows (before/during/after):",
                      fault_table]
    return "\n".join(lines)


def _event_label(event) -> str:
    """``kind@at_s`` plus every knob the event sets off its default."""
    knobs = ",".join(
        f"{entry.name}={getattr(event, entry.name)}"
        for entry in fields(event)
        if entry.name not in ("kind", "at_s")
        and getattr(event, entry.name) != entry.default
    )
    return f"{event.kind}@{event.at_s}s" + (f"({knobs})" if knobs else "")


def point_label(point: StudySpec, spec: StudySpec) -> str:
    """Readable ``field=value`` summary of one grid point's axes.

    A swept fault section reads as its events, so two points differ in
    their labels whenever they differ on an axis.
    """
    parts = []
    for axis in spec.sweep.axes:
        section_name, _, field_name = axis.field.partition(".")
        if field_name:
            value = getattr(getattr(point, section_name), field_name)
        else:
            value = getattr(point, section_name)
        if isinstance(value, FaultSpec):
            value = "+".join(map(_event_label, value.events)) or "none"
        parts.append(f"{axis.field}={value}")
    return ", ".join(parts) if parts else "-"


def render_dry_run(spec: StudySpec,
                   base_config: PlatformConfig | None = None,
                   cache_dir: str | Path | None = None) -> str:
    """The expanded grid, per-cell cache keys and the spec digest —
    everything ``run_study`` would do short of simulating.

    Cheap spec debugging: verifies names resolve, shows how each point
    lowers (one node or a fleet) and prints the exact on-disk keys a
    ``--cache-dir`` run would use.
    With ``cache_dir``, each cell is annotated ``cached``/``cold``
    against the store's current contents and the header counts how many
    cells a real run would actually simulate.
    """
    points, cells_per_point = lower_study(spec, base_config)
    n_cells = sum(len(group) for group in cells_per_point)
    cache = ResultCache(cache_dir) if cache_dir else None
    cached_cells = 0
    if cache is not None:
        cached_cells = sum(
            1 for group in cells_per_point for cell in group
            if cache._path(cell.key()).exists()
        )
    lines = [
        f"study: {spec.name} ({spec.kind}) — dry run, nothing simulated",
        f"spec digest: {spec.digest}",
        f"grid: {len(points)} point(s), {n_cells} cell(s)"
        + (
            f" — {cached_cells} cached, {n_cells - cached_cells} to "
            f"simulate" if cache is not None else ""
        ),
    ]
    for axis in spec.sweep.axes:
        lines.append(f"  axis {axis.field}: {list(axis.values)}")
    lines.append("")
    for index, (point, group) in enumerate(zip(points, cells_per_point)):
        lines.append(
            f"point {index}: {point_label(point, spec)} "
            f"[digest {point.digest[:12]}]"
        )
        resilience = build_resilience(point)
        health = build_health(point)
        if resilience is not None or health is not None:
            parts = []
            if resilience is not None:
                parts.append(f"lifecycle {resilience.label}")
            if health is not None:
                parts.append(f"signals {health.label}")
            lines.append(f"  resilience: {', '.join(parts)}")
        fidelity = build_fidelity(point)
        if fidelity is not None:
            lines.append(
                f"  fidelity: {fidelity.mode} "
                f"(budget {fidelity.error_budget:g})"
            )
        telemetry = build_telemetry(point)
        if telemetry is not None:
            lines.append(f"  telemetry: {telemetry.label}")
        for cell in group:
            label = type(cell).__name__
            line = f"  {label:<14}{cell.grid_label:<32} key {cell.key()}"
            if cache is not None:
                state = (
                    "cached" if cache._path(cell.key()).exists()
                    else "cold"
                )
                line += f" [{state}]"
            lines.append(line)
    return "\n".join(lines)


def load_spec(path: str | Path) -> StudySpec:
    """Read and validate a spec JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise SpecError(f"cannot read spec file {path}: {error}") from None
    return StudySpec.from_json(text)

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
from .registry import ARRIVALS, CONTROLLERS, MODELS, PLATFORMS, ROUTERS
from .spec import (
    MEANINGLESS,
    UNSUPPORTED,
    ClusterSpec,
    FaultSpec,
    Rule,
    StudySpec,
)

if TYPE_CHECKING:
    from ..experiments.serving_study import ServingCell
    from ..serving.metrics import ServingResult

SIPH_PLATFORM = "2.5D-CrossLight-SiPh"
"""The one platform whose fabric takes a reconfiguration controller."""

MONOLITHIC_PLATFORM = "CrossLight"
"""The single-chip platform: no chiplets, so no per-chiplet gateways."""


# ---------------------------------------------------------------------------
# Spec resolution: names, configs, lowering rules, the expanded grid.
# ---------------------------------------------------------------------------


def _lengths(spec: StudySpec):
    """``(model, output_tokens)`` of every tenant, after overrides."""
    workload = spec.workload
    return [
        (entry.model, workload.resolved_lengths(entry)[1])
        for entry in workload.models
    ]


_LENGTH_PATHS = ("workload.models[].model", "workload.output_tokens",
                 "workload.models[].output_tokens")

LOWERING_RULES: tuple[Rule, ...] = (
    Rule("epoch-needs-siph", "",
         ("platform.controller_epoch_s", "platform.name"), MEANINGLESS,
         lambda s: s.platform.controller_epoch_s is not None
         and s.platform.name != SIPH_PLATFORM,
         f"platform.controller_epoch_s applies only to {SIPH_PLATFORM!r} "
         "(the platform with a reconfiguration controller), got platform "
         "{s.platform.name!r}"),
    Rule("epoch-needs-epoch-controller", "",
         ("platform.controller_epoch_s", "platform.controller"), MEANINGLESS,
         lambda s: s.platform.controller_epoch_s is not None
         and s.platform.controller not in EPOCH_CONTROLLERS,
         "platform.controller_epoch_s applies only to the epoch-driven "
         f"controllers ({', '.join(EPOCH_CONTROLLERS)}); the "
         "{s.platform.controller!r} controller never acts on the epoch"),
    Rule("sequences-need-transformer", "", _LENGTH_PATHS, MEANINGLESS,
         lambda s: any(
             output > 0 and model not in TRANSFORMER_BUILDERS
             for model, output in _lengths(s)
         ),
         "sequence lengths on a model with no attention layers; "
         "autoregressive serving needs a transformer model "
         f"({', '.join(sorted(TRANSFORMER_BUILDERS))}) — CNN tenants keep "
         "prompt_tokens/output_tokens at 0"),
    Rule("transformer-needs-sequences", "", _LENGTH_PATHS, UNSUPPORTED,
         lambda s: s.kind == "serving" and any(
             output == 0 and model in TRANSFORMER_BUILDERS
             for model, output in _lengths(s)
         ),
         "a transformer model in a serving mix needs sequence lengths "
         "(set output_tokens, plus prompt_tokens, at the workload or "
         "tenant level): the serving layer runs transformers only as "
         "sequences"),
    Rule("platform-faults-need-siph", "", ("platform.faults", "platform.name"),
         UNSUPPORTED,
         lambda s: s.platform.name != SIPH_PLATFORM
         and platform_timelines(s.platform.faults)[0] is not None,
         "fabric fault kinds in platform.faults (gateway, ring-drift, "
         f"laser) apply only to {SIPH_PLATFORM!r} (the hazard engine "
         "mutates its photonic fabric), got platform {s.platform.name!r}; "
         "compute kinds (chiplet-mac-degrade) run on every platform"),
    Rule("fluid-fabric-faults", "", ("fidelity.mode", "platform.faults"),
         UNSUPPORTED,
         lambda s: bool(s.fidelity) and len(s.platform.faults.events) > len(
             platform_timelines(s.platform.faults)[1]
         ),
         "fidelity modes fluid/auto support only compute-side platform "
         "faults (chiplet-mac-degrade); the fluid queue has no model of "
         "fabric-level events — use fidelity mode 'des' for photonic "
         "hazard studies"),
    Rule("fluid-compute-faults-need-chiplets", "",
         ("fidelity.mode", "platform.faults", "platform.name"), UNSUPPORTED,
         lambda s: bool(s.fidelity)
         and s.platform.name == MONOLITHIC_PLATFORM
         and bool(platform_timelines(s.platform.faults)[1]),
         "fidelity modes fluid/auto price a chiplet-mac-degrade through "
         "the 2.5D analytic model, which needs the per-chiplet gateway "
         "groups that platform {s.platform.name!r} has none of — use "
         "fidelity mode 'des'"),
)
"""The rules that need the registries or the fault lowering, run on
every grid point at lowering, after its names resolve.  Rows read like
:data:`~repro.studies.spec.RULES` rows: ``section`` is ``""`` (the
point), and each error ends with the row's paths.  A platform fault
section on another platform is ``unsupported`` rather than
``meaningless``: its compute-side ``chiplet-mac-degrade`` kind could
act on any platform's MAC arrays."""


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
    """Resolve every registry name and run :data:`LOWERING_RULES`
    once, before any simulation runs."""
    PLATFORMS.get(spec.platform.name)
    CONTROLLERS.get(spec.platform.controller)
    for entry in spec.workload.models:
        MODELS.get(entry.model)
    for rule in LOWERING_RULES:
        rule.check(spec)
    if spec.platform.faults:
        if spec.kind == "serving":
            platform_timelines(spec.platform.faults)
        else:
            # No serving layer: compute-side kinds rejected too.
            hazard_timeline(spec.platform.faults)
    if spec.kind == "serving":
        ARRIVALS.get(spec.workload.arrival)
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

    The cell carries the point's scheduler, resilience, fidelity and
    telemetry sections and its node overrides as they are.  A point
    without a ``cluster`` section is the one-node fleet.
    """
    from ..experiments.serving_study import ServingCell

    # The armed fluid path and the recording session load here, at
    # lowering, so the run imports nothing.
    if point.fidelity:
        from ..experiments.fidelity import simulate_fidelity_cell  # noqa: F401
    if point.telemetry:
        from ..obs.session import TelemetrySession  # noqa: F401
    workload = point.workload
    cluster = point.cluster or ClusterSpec()
    return ServingCell(
        platform=point.platform.name,
        models=tuple(
            (entry.model, entry.fraction, entry.slo_s, entry.priority)
            for entry in workload.models
        ),
        controller=point.platform.controller,
        scheduler=point.scheduler,
        arrival_kind=workload.arrival,
        rate_rps=workload.rate_rps,
        duration_s=workload.duration_s,
        seed=workload.seed,
        config=config,
        burstiness=workload.burstiness,
        dwell_s=workload.dwell_s,
        think_time_s=workload.think_time_s,
        residency_capacity_bits=point.residency_capacity_bits,
        faults=point.platform.faults,
        resilience=point.resilience,
        fidelity=point.fidelity,
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
        telemetry=point.telemetry,
        replicas=cluster.replicas,
        router=cluster.router,
        weights=cluster.weights,
        reroute_on_fail=cluster.reroute_on_fail,
        node_overrides=cluster.nodes,
        node_faults=cluster.faults,
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
                    faults=point.platform.faults,
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
        if point.resilience:
            lines.append(f"  resilience: {point.resilience.label}")
        if point.fidelity:
            lines.append(
                f"  fidelity: {point.fidelity.mode} "
                f"(budget {point.fidelity.error_budget:g})"
            )
        if point.telemetry:
            lines.append(f"  telemetry: {point.telemetry.label}")
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

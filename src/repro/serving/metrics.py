"""Per-request latency records and serving-level aggregates.

The scheduler stamps a :class:`RequestRecord` for every completed
request (these travel on the shared
:class:`~repro.core.engine.ExecutionTrace`).  Every serving backend
hands its requests to one :class:`RequestTable`, and one reduction,
:func:`request_fields`, turns that table into the request-derived
fields of a :class:`ServingResult` — tail-latency percentiles, goodput,
per-tenant and per-window SLO stats, token metrics — which is what
serving studies cache, export and plot as latency–throughput curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import and_, not_
from typing import Sequence

from ..errors import SimulationError
from ..sim.resources import ChannelStat


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle timestamps of one completed (or shed) request.

    Sequence (autoregressive) requests additionally carry their token
    counts, the first-token completion time (prefill end) and the gaps
    between consecutive decoded tokens; single-shot requests keep the
    zero defaults, so every pre-transformer record is unchanged.
    """

    request_id: int
    model: str
    arrival_s: float
    dispatch_s: float
    finish_s: float
    batch_size: int = 1
    deadline_s: float | None = None
    dropped: bool = False
    prompt_tokens: int = 0
    output_tokens: int = 0
    first_token_s: float | None = None
    token_gaps: tuple[float, ...] = ()

    @property
    def is_sequence(self) -> bool:
        """Whether this request was served as prefill + decode steps."""
        return self.output_tokens > 0

    @property
    def ttft_s(self) -> float | None:
        """Arrival-to-first-token latency (None for single-shot)."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion latency (what the user experiences)."""
        return self.finish_s - self.arrival_s

    @property
    def queue_delay_s(self) -> float:
        """Time spent queued/batched before execution started."""
        return self.dispatch_s - self.arrival_s

    @property
    def service_s(self) -> float:
        """Time spent executing on the fabric."""
        return self.finish_s - self.dispatch_s

    @property
    def slo_violated(self) -> bool:
        """Shed, or completed after the assigned deadline."""
        if self.dropped:
            return True
        return self.deadline_s is not None and self.finish_s > self.deadline_s


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of non-empty, sorted ``ordered``."""
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (deterministic, no
    interpolation); 0.0 for an empty sample set."""
    if not 0.0 <= q <= 100.0:
        raise SimulationError(f"percentile must be in [0, 100], got {q}")
    if not samples:
        return 0.0
    return _nearest_rank(sorted(samples), q)


@dataclass(frozen=True)
class LatencyProfile:
    """Latency distribution summary of one serving run."""

    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyProfile":
        """Profile of ``samples``, sorted once.  The mean is the
        built-in ``sum`` in sample order over the count: pass Python
        floats, which 3.12+ sums compensated and numpy scalars not."""
        if not samples:
            return cls(count=0, mean_s=0.0, p50_s=0.0, p95_s=0.0,
                       p99_s=0.0, max_s=0.0)
        ordered = sorted(samples)
        return cls(
            count=len(ordered),
            mean_s=sum(samples) / len(ordered),
            p50_s=_nearest_rank(ordered, 50.0),
            p95_s=_nearest_rank(ordered, 95.0),
            p99_s=_nearest_rank(ordered, 99.0),
            max_s=ordered[-1],
        )


@dataclass(frozen=True)
class ModelServingStats:
    """Per-tenant serving outcome: one model of a (possibly mixed) run."""

    model: str
    slo_s: float | None
    completed: int
    shed: int
    slo_violations: int
    latency: LatencyProfile
    goodput_rps: float
    quota_denied: int = 0

    @property
    def submitted(self) -> int:
        """Requests this model received (completed + shed)."""
        return self.completed + self.shed

    @property
    def slo_attainment(self) -> float:
        """Fraction of submitted requests served within their deadline
        (1.0 when the model has no SLO and nothing was shed)."""
        if self.submitted == 0:
            return 1.0
        return 1.0 - self.slo_violations / self.submitted


@dataclass(frozen=True)
class WindowStats:
    """Serving outcome of one time window of a run.

    Fault-injected runs report one of these per phase — ``before`` the
    first hazard strikes, ``during`` the fault window, and ``after``
    the last hazard clears — so degradation and recovery are directly
    measurable instead of being averaged into the run totals.
    Requests belong to the window their *arrival* falls in: those are
    the users who experienced the degraded (or recovered) service.
    """

    label: str
    start_s: float
    end_s: float
    completed: int
    shed: int
    slo_violations: int
    latency: LatencyProfile
    goodput_rps: float

    @property
    def submitted(self) -> int:
        return self.completed + self.shed

    @property
    def slo_attainment(self) -> float:
        """Fraction of the window's requests served within deadline."""
        if self.submitted == 0:
            return 1.0
        return 1.0 - self.slo_violations / self.submitted


@dataclass(frozen=True)
class RequestTable:
    """One serving cell's requests as columns, one row per request.

    Both backends hand :func:`request_fields` this table: the DES
    worker builds it once from its records (:meth:`from_records`, rows
    in record order), the fluid engine from its cohort (rows in arrival
    order).  Every mean sums in row order.

    ``tenants`` is the mix: each ``mix_index``'s model and SLO, in mix
    order.  ``batch_size`` is ``None`` when the backend resolves no
    batches (the fluid model).  The sequence columns cover the
    completed sequences only, in row order: one ``ttft_s`` and one
    ``output_tokens`` entry per sequence, and every decode gap
    flattened into ``token_gaps``.
    """

    tenants: tuple[tuple[str, "float | None"], ...]
    arrival_s: Sequence[float]
    queue_delay_s: Sequence[float]
    latency_s: Sequence[float]
    mix_index: Sequence[int]
    dropped: Sequence[bool]
    slo_violated: Sequence[bool]
    batch_size: "Sequence[int] | None" = None
    ttft_s: Sequence[float] = ()
    output_tokens: Sequence[int] = ()
    token_gaps: Sequence[float] = ()

    @classmethod
    def from_records(cls, records: Sequence[RequestRecord],
                     tenants: tuple[tuple[str, "float | None"], ...]
                     ) -> "RequestTable":
        """The table of ``records`` under the mix ``tenants``."""
        index = {name: position for position, (name, _) in enumerate(tenants)}
        ttft: list[float] = []
        outputs: list[int] = []
        gaps: list[float] = []
        for record in records:
            if (record.is_sequence and not record.dropped
                    and record.first_token_s is not None):
                ttft.append(record.first_token_s - record.arrival_s)
                outputs.append(record.output_tokens)
                gaps.extend(record.token_gaps)
        return cls(
            tenants=tenants,
            arrival_s=[record.arrival_s for record in records],
            queue_delay_s=[record.queue_delay_s for record in records],
            latency_s=[record.latency_s for record in records],
            mix_index=[index[record.model] for record in records],
            dropped=[record.dropped for record in records],
            slo_violated=[record.slo_violated for record in records],
            batch_size=[record.batch_size for record in records],
            ttft_s=ttft,
            output_tokens=outputs,
            token_gaps=gaps,
        )


def _split(table: RequestTable, keys: Sequence["int | None"], groups: int
           ) -> list[tuple[int, int, int, LatencyProfile]]:
    """(completed, shed, SLO violations, latency profile) per group,
    where row ``r`` belongs to group ``keys[r]`` (``None``: to none).
    Shed rows have no latency sample; samples keep row order."""
    kept = list(map(not_, table.dropped))
    split = []
    for group in range(groups):
        member = [key == group for key in keys]
        samples = list(compress(table.latency_s, map(and_, member, kept)))
        split.append((
            len(samples),
            member.count(True) - len(samples),
            sum(compress(table.slo_violated, member)),
            LatencyProfile.from_samples(samples),
        ))
    return split


def per_model_stats(
    table: RequestTable,
    elapsed_s: float,
    quota_denied: dict[str, int] | None = None,
) -> tuple[ModelServingStats, ...]:
    """Per-tenant SLO stats, one per tenant in mix order.

    ``quota_denied`` optionally carries per-model admission-quota
    denial counts (those requests were shed at submit time, so they
    are rows of ``table`` too — the counter says *why*).
    """
    return tuple(
        ModelServingStats(
            model=model,
            slo_s=slo_s,
            completed=completed,
            shed=shed,
            slo_violations=violations,
            latency=latency,
            goodput_rps=completed / elapsed_s if elapsed_s > 0 else 0.0,
            quota_denied=(quota_denied or {}).get(model, 0),
        )
        for (model, slo_s), (completed, shed, violations, latency) in zip(
            table.tenants,
            _split(table, table.mix_index, len(table.tenants)),
        )
    )


def windowed_stats(
    table: RequestTable,
    fault_start_s: float,
    fault_end_s: float,
    elapsed_s: float,
) -> tuple[WindowStats, ...]:
    """before/during/after-fault windows over one run's requests.

    A request belongs to the window its arrival falls in.  The during
    window is ``[fault_start_s, fault_end_s)`` clamped to the run, and
    the after window also takes any arrival at or past the run's end.
    Zero-span windows (a fault starting at t=0, or one that outlives
    the run) are omitted.
    """
    if fault_end_s < fault_start_s:
        raise SimulationError(
            f"fault window must be ordered, got "
            f"[{fault_start_s}, {fault_end_s}]"
        )
    start = min(fault_start_s, elapsed_s)
    end = min(fault_end_s, elapsed_s)
    spans = [
        span for span in (
            ("before", 0.0, start),
            ("during", start, end),
            ("after", end, elapsed_s),
        )
        if span[2] > span[1]
    ]
    group = {label: key for key, (label, _, _) in enumerate(spans)}
    before, during, after = (
        group.get(label) for label in ("before", "during", "after")
    )
    keys = [
        before if arrival < start else during if arrival < end else after
        for arrival in table.arrival_s
    ]
    return tuple(
        WindowStats(
            label=label,
            start_s=span_start,
            end_s=span_end,
            completed=completed,
            shed=shed,
            slo_violations=violations,
            latency=latency,
            goodput_rps=completed / (span_end - span_start),
        )
        for (label, span_start, span_end), (
            completed, shed, violations, latency
        ) in zip(spans, _split(table, keys, len(spans)))
    )


def request_fields(
    table: RequestTable,
    elapsed_s: float,
    fault_span: "tuple[float, float] | None" = None,
    quota_denied: dict[str, int] | None = None,
) -> dict:
    """Every request-derived :class:`ServingResult` field of ``table``.

    The one reduction both serving backends run: the latency and
    queue-delay profiles and the mean batch (completed rows; the batch
    only when the table carries one), ``per_model``, the fault
    ``windows`` around ``fault_span`` (none without one), and the token
    metrics (``None``/zero when no sequence completed).
    """
    served = list(map(not_, table.dropped))
    latencies = list(compress(table.latency_s, served))
    fields = dict(
        latency=LatencyProfile.from_samples(latencies),
        queue_delay=LatencyProfile.from_samples(
            list(compress(table.queue_delay_s, served))
        ),
        per_model=per_model_stats(table, elapsed_s, quota_denied),
        windows=(
            () if fault_span is None
            else windowed_stats(table, *fault_span, elapsed_s)
        ),
        ttft=None,
        token_latency=None,
        tokens_generated=0,
        tokens_per_s=0.0,
    )
    if table.batch_size is not None:
        fields["mean_batch_size"] = (
            sum(compress(table.batch_size, served)) / len(latencies)
            if latencies else 0.0
        )
    if table.ttft_s:
        tokens = sum(table.output_tokens)
        fields.update(
            ttft=LatencyProfile.from_samples(table.ttft_s),
            token_latency=LatencyProfile.from_samples(table.token_gaps),
            tokens_generated=tokens,
            tokens_per_s=tokens / elapsed_s if elapsed_s > 0 else 0.0,
        )
    return fields


# ---------------------------------------------------------------------------
# Resilience accounting: the request lifecycle and fleet availability.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceStats:
    """Request-lifecycle accounting of one resilient serving run.

    Plain picklable data stamped by
    :class:`~repro.serving.lifecycle.LifecycleDriver`: ``requests``
    counts *logical* requests (what the client sees), ``attempts``
    every physical submission including retries and hedges.
    ``cancelled`` counts attempts withdrawn from a queue before
    dispatch, ``timeouts`` attempt timeouts observed, ``gave_up``
    logical requests abandoned after exhausting retries (or the retry
    budget — ``budget_denied`` counts denials).  ``retry_causes``
    tallies retries by trigger (``timeout`` / ``shed``), sorted by
    cause name for determinism.
    """

    requests: int = 0
    attempts: int = 0
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    timeouts: int = 0
    cancelled: int = 0
    gave_up: int = 0
    budget_denied: int = 0
    retry_causes: tuple[tuple[str, int], ...] = ()

    @property
    def retry_amplification(self) -> float:
        """Physical attempts per logical request (1.0 = no extra work)."""
        if self.requests == 0:
            return 1.0
        return self.attempts / self.requests

    @property
    def hedge_win_rate(self) -> float:
        """Fraction of hedged attempts that beat their primary."""
        if self.hedges == 0:
            return 0.0
        return self.hedge_wins / self.hedges

    @property
    def wasted_attempts(self) -> int:
        """Attempts that produced no user-visible response: cancelled,
        timed out in flight, or lost a hedge race."""
        return self.attempts - (self.requests - self.gave_up)


@dataclass(frozen=True)
class IncidentRecord:
    """One node outage: from failure through detection to restoration.

    ``start_s`` is when the node actually failed, ``detected_s`` when
    the router ejected it from the routable view (equal to ``start_s``
    under omniscient failure detection; later under probe-based
    detection), and ``end_s`` when it returned to rotation (``None`` =
    unresolved at window end).
    """

    node: int
    start_s: float
    detected_s: float | None = None
    end_s: float | None = None

    @property
    def resolved(self) -> bool:
        return self.end_s is not None

    @property
    def repair_s(self) -> float | None:
        """Time to restore (MTTR numerator); None while unresolved."""
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    @property
    def detection_lag_s(self) -> float | None:
        """Failure-to-ejection lag (0 under omniscient detection)."""
        if self.detected_s is None:
            return None
        return self.detected_s - self.start_s


def mean_time_to_repair(incidents: tuple[IncidentRecord, ...]) -> float:
    """Mean repair time over the resolved incidents (0.0 when none)."""
    repairs = [
        incident.repair_s for incident in incidents if incident.resolved
    ]
    if not repairs:
        return 0.0
    return sum(repairs) / len(repairs)


@dataclass(frozen=True)
class FidelityReport:
    """How a hybrid-fidelity cell was actually simulated, and how well.

    Attached to results produced under an armed fidelity section.
    ``mode_used`` is ``"fluid"`` when the fluid fast path produced the
    result and ``"des-fallback"`` when the calibration error exceeded
    the budget (or the calibration produced no usable profile) and the
    cell re-ran through full DES.  The relative errors compare the
    fluid model's prediction of the calibration window against the
    short DES measurement of that same window — recorded either way, so
    fidelity loss is always visible in exports.  ``warm_forked`` marks
    cells that reused a memoised calibration checkpoint (the warm-state
    fork) instead of re-simulating the warm-up phase.
    """

    mode_requested: str
    mode_used: str
    error_budget: float
    calibration_s: float
    calibration_requests: int
    p50_rel_err: float
    p99_rel_err: float
    goodput_rel_err: float
    warm_forked: bool = False
    ttft_rel_err: float | None = None
    """Relative error of the fluid TTFT p99 prediction against the
    calibration DES measurement; ``None`` for single-step workloads."""
    token_p99_rel_err: float | None = None
    """Relative error of the fluid per-token-latency p99 prediction;
    ``None`` for single-step workloads."""

    @property
    def within_budget(self) -> bool:
        """Whether every tracked error stayed within the budget."""
        return (
            self.p50_rel_err <= self.error_budget
            and self.p99_rel_err <= self.error_budget
            and self.goodput_rel_err <= self.error_budget
            and (self.ttft_rel_err is None
                 or self.ttft_rel_err <= self.error_budget)
            and (self.token_p99_rel_err is None
                 or self.token_p99_rel_err <= self.error_budget)
        )


@dataclass(frozen=True)
class NodeStats:
    """Serving outcome of one node of a serving run.

    ``state`` is the node's final router-visible state (``up`` /
    ``draining`` / ``failed``; a node no router fronts stays ``up``);
    ``rerouted_away`` counts requests the router withdrew from this
    node's queue after a failure and re-enqueued elsewhere.
    """

    node: str
    state: str
    requests_completed: int
    requests_shed: int
    rerouted_away: int
    latency: LatencyProfile
    goodput_rps: float
    mean_compute_utilization: float

    @property
    def submitted(self) -> int:
        return self.requests_completed + self.requests_shed


@dataclass(frozen=True)
class ServingResult:
    """Complete outcome of one request-serving simulation.

    One node and a fleet share this shape.  ``latency``/``queue_delay``
    and the request, energy and token counters aggregate over every
    node; ``per_node`` splits them per replica, and ``load_imbalance``
    (max/mean node compute utilization) is the headline routing-quality
    figure.  A single node is the one-entry case: ``router`` is ``-``,
    ``n_nodes`` 1, ``per_node`` holds one :class:`NodeStats`, and
    nothing is rerouted.

    Picklable plain data: serving studies cache these through the same
    on-disk :class:`~repro.experiments.runner.ResultCache` as inference
    results, and the export layer serialises them to JSON/CSV.
    """

    platform: str
    model: str
    controller: str
    policy: str
    arrival_kind: str
    offered_rps: float
    duration_s: float
    elapsed_s: float
    requests_injected: int
    requests_completed: int
    latency: LatencyProfile
    queue_delay: LatencyProfile
    mean_batch_size: float
    mean_inflight: float
    mean_compute_utilization: float
    reconfigurations: int
    network_energy_j: float
    compute_energy_j: float
    channel_stats: tuple[ChannelStat, ...] = ()
    requests_shed: int = 0
    per_model: tuple[ModelServingStats, ...] = ()
    windows: tuple[WindowStats, ...] = ()
    hazard_events: tuple = ()
    time_degraded_s: float = 0.0
    resilience: ResilienceStats | None = None
    availability: float = 1.0
    mttr_s: float = 0.0
    incidents: tuple = ()
    fidelity: FidelityReport | None = None
    ttft: LatencyProfile | None = None
    token_latency: LatencyProfile | None = None
    tokens_generated: int = 0
    tokens_per_s: float = 0.0
    kv_refusals: int = 0
    kv_peak_bits: float = 0.0
    decode_remaps: int = 0
    telemetry: "object | None" = None
    """Frozen :class:`~repro.obs.session.TelemetrySummary` when the
    cell ran with telemetry armed."""
    router: str = "-"
    """Routing policy that fronted the nodes (``-`` when none did)."""
    n_nodes: int = 1
    per_node: tuple[NodeStats, ...] = ()
    requests_rerouted: int = 0
    node_events: tuple = ()
    """Applied node-hazard records, with per-event reroute counts."""

    @property
    def is_sequence_run(self) -> bool:
        """Whether any request was served as prefill + decode steps."""
        return self.tokens_generated > 0

    @property
    def retry_amplification(self) -> float:
        """Attempts per logical request (1.0 on the classic path)."""
        if self.resilience is None:
            return 1.0
        return self.resilience.retry_amplification

    @property
    def hedge_win_rate(self) -> float:
        if self.resilience is None:
            return 0.0
        return self.resilience.hedge_win_rate

    @property
    def wasted_attempts(self) -> int:
        if self.resilience is None:
            return 0
        return self.resilience.wasted_attempts

    @property
    def goodput_rps(self) -> float:
        """Completed requests per second of simulated time."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.requests_completed / self.elapsed_s

    @property
    def achieved_rps(self) -> float:
        """Realized injection rate over the arrival window (sampling
        makes this differ from the configured ``offered_rps``)."""
        if self.duration_s <= 0:
            return 0.0
        return self.requests_injected / self.duration_s

    @property
    def saturated(self) -> bool:
        """Whether service failed to keep pace with realized arrivals.

        Every injected request completes eventually (the run drains),
        so saturation shows up as the drain outliving the arrival
        window: goodput well below the achieved injection rate.
        """
        return self.goodput_rps < 0.9 * self.achieved_rps

    @property
    def load_imbalance(self) -> float:
        """Max/mean node compute utilization (1.0 = perfectly even).

        0.0 when no node did any compute — an idle fleet is not
        imbalanced.
        """
        utilizations = [
            stats.mean_compute_utilization for stats in self.per_node
        ]
        mean = sum(utilizations) / len(utilizations) if utilizations else 0.0
        if mean <= 0.0:
            return 0.0
        return max(utilizations) / mean

    @property
    def total_energy_j(self) -> float:
        return self.network_energy_j + self.compute_energy_j

    @property
    def energy_per_request_j(self) -> float:
        if self.requests_completed <= 0:
            return 0.0
        return self.total_energy_j / self.requests_completed

    @property
    def slo_violations(self) -> int:
        """Shed plus late completions, summed across tenants."""
        return sum(stats.slo_violations for stats in self.per_model)

    @property
    def slo_attainment(self) -> float:
        """Fraction of all submitted requests served within deadline."""
        submitted = sum(stats.submitted for stats in self.per_model)
        if submitted == 0:
            return 1.0
        return 1.0 - self.slo_violations / submitted

    @property
    def peak_channel_utilization(self) -> float:
        """Highest per-channel utilization over the run (bottleneck)."""
        if not self.channel_stats:
            return 0.0
        return max(stat.utilization for stat in self.channel_stats)

    @property
    def mean_channel_utilization(self) -> float:
        """Average utilization across every fabric channel."""
        if not self.channel_stats:
            return 0.0
        return sum(stat.utilization for stat in self.channel_stats) / len(
            self.channel_stats
        )

    def summary_row(self) -> str:
        """One formatted latency–throughput line: peak channel (``util``)
        and mean MAC (``mac``) utilization, load imbalance and reroutes
        beside the tail latencies."""
        return (
            f"{self.platform:<28}{self.policy:<12}{self.router:<18}"
            f"{self.n_nodes:>6}"
            f"{self.offered_rps:>12.0f}"
            f"{self.goodput_rps:>12.0f}"
            f"{self.latency.p50_s * 1e6:>11.1f}"
            f"{self.latency.p95_s * 1e6:>11.1f}"
            f"{self.latency.p99_s * 1e6:>11.1f}"
            f"{self.peak_channel_utilization:>8.2f}"
            f"{self.mean_compute_utilization:>7.2f}"
            f"{self.load_imbalance:>7.2f}"
            f"{self.requests_rerouted:>9}"
            f"{'  SAT' if self.saturated else ''}"
        )


class ClusterResult(ServingResult):
    """A :class:`ServingResult` whose nodes a router served.

    Adds no field.  The serving assemblers build it for router-served
    cells only so that the benchmark harness, which branches on it to
    skip per-channel checks on fleets, keeps checking the same cells.
    Nothing in this package reads it.
    """

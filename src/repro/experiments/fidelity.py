"""Hybrid-fidelity serving engine: the calibrated fluid fast path.

Million-request serving sweeps spend almost all of their wall-clock in
the discrete-event kernel, replaying steady-state windows whose
behaviour a queueing model predicts to within a few percent.  This
module trades that time for a bounded, *measured* fidelity loss:

1. **Calibration** — each fluid cell first runs a short DES window of
   the *same* point (same seed, same arrival stream prefix, faults
   stripped) to measure the empirical service-time distribution, batch
   size and dispatch variability.  The checkpoint is memoised per
   calibration identity (platform × workload × policy × rate), so a
   sweep simulates the warm-up phase once and **forks** every scenario
   variant from the warm state.
2. **Fluid fast path** — the full window is then predicted by the
   piecewise M/G/k fluid model in :mod:`repro.core.analytic`: the exact
   seeded arrival cohort (vectorized, identical to what DES would
   inject), service times drawn from the calibrated quantiles through a
   low-discrepancy stream, and queueing delays from Allen–Cunneen
   stationary waits plus transient backlog drain across capacity
   windows (MAC-degrade hazards, node failures/repairs).
   Autoregressive cohorts decompose further: prefill rides the same
   M/G/k machinery on calibrated prefill quantiles, and decode is a
   vectorized token-service loop over the capacity windows — per-token
   services resampled from width-conditioned calibration quantiles
   (the observed decode-pool widths) through independent Weyl streams.
   The cohort becomes a :class:`~repro.serving.metrics.RequestTable`,
   reduced by the same :func:`~repro.serving.metrics.request_fields`
   as a DES cell's records.
3. **Validation** — the fluid model re-predicts the calibration window
   itself; the relative error on p50/p99 latency and goodput against
   the DES measurement is recorded in the result's ``fidelity`` block.
   Under ``mode="auto"`` a cell whose error exceeds the declared budget
   automatically falls back to full DES — fidelity loss is bounded and
   reported, never assumed.

The entry point is :func:`simulate_fidelity_cell`, dispatched to by
:func:`~repro.experiments.serving_study.simulate_serving_cell`
whenever a cell carries an armed fidelity section
(:class:`~repro.studies.spec.FidelitySpec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from operator import add

import numpy as np
# ``np.unique`` reaches ``numpy.ma``, which numpy loads on first use:
# load it here, at lowering, so the fluid run imports nothing.
import numpy.ma  # noqa: F401

from ..cluster.hazards import (
    NodeHazardRecord,
    event_nodes,
    node_hazard_timeline,
    node_outages,
)
from ..core.analytic import (
    FluidWindow,
    analytic_estimate,
    decode_token_latencies,
    fluid_queue_delays,
)
from ..dnn.workload import extract_workload
from ..errors import ConfigurationError
from ..serving.metrics import (
    ClusterResult,
    FidelityReport,
    IncidentRecord,
    NodeStats,
    RequestTable,
    ServingResult,
    mean_time_to_repair,
    request_fields,
)
from ..sim.core import Environment
from ..studies.faults import platform_timelines
from ..studies.registry import MODELS
from ..studies.spec import FaultSpec, FidelitySpec
from .runner import build_platform
from .serving_study import (
    ServingCell,
    _degraded_s,
    _fault_span,
    _fault_spans,
    _sequence_stream,
    compute_hazard_records,
    simulate_serving_cell,
)

__all__ = [
    "simulate_fidelity_cell",
    "warm_store_size",
    "clear_warm_store",
]


_FULL_DES = FidelitySpec()
"""The degenerate section a cell's full-DES twin carries (the
calibration window and the ``auto`` fallback)."""

_NO_FAULTS = FaultSpec()
"""The degenerate fault section a calibration cell carries."""


# Low-discrepancy multipliers (Weyl sequences): deterministic,
# equidistributed quantile streams for service draws and stationary
# waits.  Irrational and independent, so the streams never lock.
_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT2M1 = math.sqrt(2.0) - 1.0
_SQRT3M1 = math.sqrt(3.0) - 1.0
_SQRT7M2 = math.sqrt(7.0) - 2.0
_SQRT11M3 = math.sqrt(11.0) - 3.0


def _weyl(n: int, alpha: float) -> np.ndarray:
    """First ``n`` points of the Weyl sequence ``frac(i * alpha)``."""
    return np.modf(np.arange(1, n + 1, dtype=float) * alpha)[0]


def _rel_err(predicted: float, measured: float) -> float:
    """|pred - meas| / meas, saturating when the reference is zero."""
    if measured <= 0.0:
        return 0.0 if abs(predicted) <= 1e-30 else 1.0
    return abs(predicted - measured) / measured


# ---------------------------------------------------------------------------
# Calibration: short DES windows, memoised as warm-state checkpoints.
# ---------------------------------------------------------------------------


@dataclass
class _CalibrationState:
    """One warm-state checkpoint: the measured truth the fluid model is
    built from (and validated against)."""

    result: ServingResult
    """The DES result of the short window."""
    calibration_s: float
    served: int
    service_sorted: np.ndarray
    model_service: dict
    mean_batch: float
    service_scv: float
    prefill_sorted: np.ndarray | None = None
    """Sorted prefill service times (``first_token_s - dispatch_s``) of
    the calibration's sequence requests; ``None`` for single-step."""
    gap_sorted: np.ndarray | None = None
    """Sorted inter-token decode services across every sequence."""
    width_per_token: np.ndarray | None = None
    """Observed decode-pool width of every calibrated token (tokens
    finishing at one pool-step instant share that step's width)."""
    width_gaps: dict | None = None
    """Per-width sorted gap samples — width-dependent token service."""


_WARM_STORE: dict[ServingCell, _CalibrationState] = {}
"""Per-process warm-state store, keyed by the calibration cell itself
(cells are frozen, and equal exactly when their cache keys are).
Worker processes each hold their own copy; within one worker a sweep
forks every scenario variant of a (platform, workload, policy, rate)
point from a single calibration run."""


def warm_store_size() -> int:
    """Number of memoised calibration checkpoints (this process)."""
    return len(_WARM_STORE)


def clear_warm_store() -> None:
    """Drop every memoised checkpoint (tests and benchmarks)."""
    _WARM_STORE.clear()


def _calibration_window(cell, policy: FidelitySpec) -> float:
    """Resolve the calibration window length for one cell."""
    if policy.calibration_s is not None:
        return min(cell.duration_s, policy.calibration_s)
    thirty_gaps = 30.0 / cell.rate_rps if cell.rate_rps > 0 else cell.duration_s
    return min(cell.duration_s, max(cell.duration_s / 10.0, thirty_gaps))


def _calibration_cell(cell: ServingCell,
                      calibration_s: float) -> ServingCell:
    """The short fault-free DES twin of ``cell``.

    Platform and node faults are stripped so the checkpoint measures
    *nominal* service — that is what makes it shareable across every
    hazard-scenario variant of the same serving point (the warm-state
    fork).  The remaining fields — platform, config, mix, policy,
    arrivals, seed, fleet shape — are exactly the (platform, workload)
    identity the checkpoint measures.
    """
    return replace(cell, duration_s=calibration_s, fidelity=_FULL_DES,
                   faults=_NO_FAULTS, node_faults=_NO_FAULTS)


def _calibrate(cell: ServingCell, policy: FidelitySpec
               ) -> tuple[_CalibrationState, bool, float]:
    """(checkpoint, warm_forked, calibration_s) for one fluid cell."""
    calibration_s = _calibration_window(cell, policy)
    calib_cell = _calibration_cell(cell, calibration_s)
    state = _WARM_STORE.get(calib_cell)
    if state is not None:
        return state, True, calibration_s

    sink: list = []
    result = simulate_serving_cell(calib_cell, record_sink=sink)
    served = [record for record in sink if not record.dropped]
    service = np.sort(np.array(
        [record.service_s for record in served], dtype=float
    ))
    model_service: dict = {}
    for record in served:
        model_service.setdefault(record.model, []).append(record.service_s)
    model_service = {
        name: np.sort(np.array(samples, dtype=float))
        for name, samples in model_service.items()
    }
    if service.size >= 2 and service.mean() > 0:
        service_scv = float(service.var() / service.mean() ** 2)
    else:
        service_scv = 1.0
    prefill_sorted, gap_sorted, width_per_token, width_gaps = (
        _sequence_calibration(served)
    )
    state = _CalibrationState(
        result=result,
        calibration_s=calibration_s,
        served=len(served),
        service_sorted=service,
        model_service=model_service,
        mean_batch=max(1.0, result.mean_batch_size),
        service_scv=service_scv,
        prefill_sorted=prefill_sorted,
        gap_sorted=gap_sorted,
        width_per_token=width_per_token,
        width_gaps=width_gaps,
    )
    _WARM_STORE[calib_cell] = state
    return state, False, calibration_s


def _sequence_calibration(served):
    """Per-sequence calibration: prefill services, per-token decode
    services, and the observed decode-pool width behind every token.

    Widths are recovered from the records alone: a continuous-batching
    decode step fires every member's token at the same instant, so
    grouping token completion times (reconstructed from
    ``first_token_s`` + gap prefix sums, rounded to picoseconds to
    absorb float re-accumulation) by timestamp recovers each step's
    width — and each gap is then a width-conditioned service sample.
    """
    seq_records = [
        r for r in served if r.is_sequence and r.first_token_s is not None
    ]
    if not seq_records:
        return None, None, None, None
    prefill_sorted = np.sort(np.array(
        [r.first_token_s - r.dispatch_s for r in seq_records], dtype=float
    ))
    step_width: dict[int, int] = {}
    token_keys: list[list[int]] = []
    for r in seq_records:
        t = r.first_token_s
        keys = []
        for gap in r.token_gaps:
            t += gap
            key = int(round(t * 1e12))
            keys.append(key)
            step_width[key] = step_width.get(key, 0) + 1
        token_keys.append(keys)
    gap_samples: list[float] = []
    widths: list[int] = []
    buckets: dict[int, list[float]] = {}
    for r, keys in zip(seq_records, token_keys):
        for gap, key in zip(r.token_gaps, keys):
            width = step_width[key]
            gap_samples.append(gap)
            widths.append(width)
            buckets.setdefault(width, []).append(gap)
    gap_sorted = np.sort(np.array(gap_samples, dtype=float))
    width_per_token = np.sort(np.array(widths, dtype=np.intp))
    width_gaps = {
        width: np.sort(np.array(samples, dtype=float))
        for width, samples in buckets.items()
    }
    return prefill_sorted, gap_sorted, width_per_token, width_gaps


# ---------------------------------------------------------------------------
# Fluid construction: cell knobs -> arrival cohort + capacity windows.
# ---------------------------------------------------------------------------


def _arrival_scv(cell, times: np.ndarray) -> float:
    """Squared coefficient of variation of the inter-arrival gaps."""
    if cell.arrival_kind == "poisson" or times.size < 3:
        return 1.0
    gaps = np.diff(times)
    mean = gaps.mean()
    if mean <= 0:
        return 1.0
    return float(gaps.var() / mean ** 2)


def _model_assignment(cell, n: int) -> np.ndarray:
    """Per-arrival tenant index — bit-identical to ``_mix_stream``.

    The event-driven mix sampler draws one ``rng.random()`` per
    arrival from ``default_rng((seed, 211))``; a batched ``random(n)``
    from the same generator yields the identical double stream, so the
    fluid cohort targets exactly the models DES would have.
    """
    models = cell.models
    if len(models) == 1:
        return np.zeros(n, dtype=np.intp)
    fractions = np.cumsum([fraction for _, fraction, _, _ in models])
    draws = np.random.default_rng((cell.seed, 211)).random(n)
    indices = np.searchsorted(fractions, draws, side="right")
    return np.minimum(indices, len(models) - 1)


_INFLATION_MEMO: dict[tuple, float] = {}


def _service_inflation(cell, mac_fraction: float) -> float:
    """Service-time stretch factor under a MAC-degrade hazard.

    The ratio of analytic streaming bounds (degraded / nominal) for the
    cell's primary model: compute-bound layers stretch by
    ``1/mac_fraction``, bandwidth-bound layers not at all — the same
    physics :class:`~repro.core.engine.ComputeOccupancy` applies to
    in-flight requests, collapsed to one scalar per window.
    """
    if mac_fraction >= 1.0:
        return 1.0
    primary = cell.models[0][0]
    memo_key = (cell.platform, cell.controller, cell.config, primary,
                round(mac_fraction, 12))
    cached = _INFLATION_MEMO.get(memo_key)
    if cached is not None:
        return cached
    platform = build_platform(cell.platform, cell.config, cell.controller)
    with Environment() as env:
        sim = platform.build_simulation(env)
        mapping = sim.map_workload(extract_workload(MODELS.get(primary)()))
    nominal = analytic_estimate(mapping, cell.config).lower_bound_s
    degraded = analytic_estimate(
        mapping, cell.config, mac_fraction=mac_fraction
    ).lower_bound_s
    ratio = degraded / nominal if nominal > 0 else 1.0 / mac_fraction
    _INFLATION_MEMO[memo_key] = ratio
    return ratio


def _mac_segments(events, duration_s: float
                  ) -> list[tuple[float, float, float]]:
    """(start, end, mac_fraction) spans covering [0, duration)."""
    cuts = {0.0, duration_s}
    for event in events:
        if event.at_s < duration_s:
            cuts.add(event.at_s)
            if event.duration_s is not None:
                end = event.at_s + event.duration_s
                if end < duration_s:
                    cuts.add(end)
    ordered = sorted(cuts)
    segments = []
    for start, end in zip(ordered, ordered[1:]):
        midpoint = (start + end) / 2.0
        fraction = 1.0
        for event in events:
            event_end = (
                event.at_s + event.duration_s
                if event.duration_s is not None else float("inf")
            )
            if event.at_s <= midpoint < event_end:
                fraction = min(fraction, event.mac_fraction)
        segments.append((start, end, fraction))
    return segments


_NODE_STATE = {
    "node-fail": "failed",
    "rack-fail": "failed",
    "node-drain": "draining",
    "node-repair": "up",
    "rack-repair": "up",
}


def _replica_walk(cell: ServingCell):
    """Replay the node-hazard timeline analytically.

    Returns ``(segments, final_states, uptime, incidents, records)``:
    (start, end, active) capacity spans, each node's final router state,
    per-node up-time integrals over the window (the stationary share of
    completed requests), synthesized :class:`IncidentRecord` outages
    (failures only, omniscient detection — matching the router's
    accounting) and the applied :class:`NodeHazardRecord` stream.
    """
    events = node_hazard_timeline(cell.node_faults)
    duration = cell.duration_s
    states = {index: "up" for index in range(cell.replicas)}
    up_since = {index: 0.0 for index in range(cell.replicas)}
    uptime = {index: 0.0 for index in range(cell.replicas)}
    open_incident: dict[int, IncidentRecord] = {}
    incidents: list[IncidentRecord] = []
    records: list[NodeHazardRecord] = []
    segments: list[tuple[float, float, int]] = []
    cursor = 0.0
    active = cell.replicas
    for event in events:
        at = min(event.at_s, duration)
        if at > cursor:
            segments.append((cursor, at, active))
            cursor = at
        if event.at_s > duration:
            break
        for node in event_nodes(event):
            if node >= cell.replicas:
                raise ConfigurationError(
                    f"node hazard addresses node {node} but the fleet "
                    f"has {cell.replicas} replicas"
                )
            previous = states[node]
            state = _NODE_STATE[event.kind]
            if previous == "up" and state != "up":
                uptime[node] += event.at_s - up_since[node]
            if previous != "up" and state == "up":
                up_since[node] = event.at_s
            if state == "failed" and node not in open_incident:
                open_incident[node] = IncidentRecord(
                    node=node, start_s=event.at_s, detected_s=event.at_s
                )
            if state == "up" and node in open_incident:
                incidents.append(replace(
                    open_incident.pop(node), end_s=event.at_s
                ))
            states[node] = state
            records.append(NodeHazardRecord(
                kind=event.kind, node=node, at_s=event.at_s
            ))
        active = sum(1 for state in states.values() if state == "up")
    if cursor < duration:
        segments.append((cursor, duration, active))
    for node, state in states.items():
        if state == "up":
            uptime[node] += duration - up_since[node]
    incidents.extend(open_incident.values())
    incidents.sort(key=lambda incident: (incident.start_s, incident.node))
    return segments, states, uptime, tuple(incidents), tuple(records)


def _overlay_segments(mac_segments, replica_segments):
    """Merge MAC-fraction and active-replica spans on shared cuts."""
    cuts = sorted(
        {start for start, _, _ in mac_segments}
        | {end for _, end, _ in mac_segments}
        | {start for start, _, _ in replica_segments}
        | {end for _, end, _ in replica_segments}
    )
    merged = []
    for start, end in zip(cuts, cuts[1:]):
        midpoint = (start + end) / 2.0
        fraction = next(
            (f for s, e, f in mac_segments if s <= midpoint < e), 1.0
        )
        active = next(
            (a for s, e, a in replica_segments if s <= midpoint < e), None
        )
        merged.append((start, end, fraction, active))
    return merged


def _build_windows(cell, state: _CalibrationState, policy_slots: int,
                   arrival_scv: float):
    """The piecewise capacity model for one cell's full window.

    Returns ``(windows, walk)`` where ``walk`` is the
    :func:`_replica_walk` tuple (every node stays up throughout when no
    node hazard strikes).
    """
    service_mean = (
        float(state.service_sorted.mean())
        if state.service_sorted.size else 0.0
    )
    _, compute_events = platform_timelines(cell.faults)
    walk = _replica_walk(cell)
    mac = _mac_segments(compute_events, cell.duration_s)
    windows = []
    for start, end, fraction, active in _overlay_segments(mac, walk[0]):
        inflation = _service_inflation(cell, fraction)
        if active:
            servers = active * policy_slots
            mean_s = service_mean * inflation
        else:
            # Zero replicas up: no drain at all.  A server count of
            # one with an (effectively) infinite service time gives
            # the fluid model zero capacity without dividing by it.
            servers = 1
            mean_s = max(service_mean, 1e-9) * 1e12
        windows.append(FluidWindow(
            start_s=start, end_s=end, servers=servers,
            service_mean_s=mean_s, mean_batch=state.mean_batch,
            service_scv=state.service_scv, arrival_scv=arrival_scv,
        ))
    return windows, walk


def _sample_services(cell, state: _CalibrationState,
                     model_indices: np.ndarray) -> np.ndarray:
    """Per-arrival service times from the calibrated quantiles.

    A Weyl low-discrepancy stream indexes each tenant's sorted service
    samples, reproducing the calibration distribution (including its
    batching plateau) without RNG noise between fluid runs.
    """
    n = len(model_indices)
    uniforms = _weyl(n, _PHI)
    services = np.empty(n, dtype=float)
    models = cell.models
    overall = state.service_sorted
    for index, (name, _, _, _) in enumerate(models):
        mask = model_indices == index
        if not mask.any():
            continue
        samples = state.model_service.get(name)
        if samples is None or samples.size == 0:
            samples = overall
        ranks = np.minimum(
            (uniforms[mask] * samples.size).astype(np.intp),
            samples.size - 1,
        )
        services[mask] = samples[ranks]
    return services


def _sequence_lengths(cell, n: int,
                      model_indices: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(prompt, output) token counts per arrival — DES-identical.

    ``fixed`` lengths are pure table lookups; ``geometric`` lengths
    replay :func:`_sequence_stream` itself (same ``(seed, 311)`` RNG,
    same per-arrival draw order), so the fluid cohort decodes exactly
    the token counts the event-driven scheduler would have.
    """
    sequences = cell.sequences
    if cell.length_distribution == "fixed":
        prompt_means = np.array(
            [prompt for prompt, _ in sequences], dtype=np.intp
        )
        output_means = np.array(
            [output for _, output in sequences], dtype=np.intp
        )
        return prompt_means[model_indices], output_means[model_indices]
    prompts = np.empty(n, dtype=np.intp)
    outputs = np.empty(n, dtype=np.intp)
    stream = _sequence_stream(
        cell.models, sequences, cell.length_distribution, cell.seed
    )
    for index, (_, prompt, output) in enumerate(islice(stream, n)):
        prompts[index] = prompt
        outputs[index] = output
    return prompts, outputs


def _sample_decode_gaps(state: _CalibrationState, total: int) -> np.ndarray:
    """Nominal per-token decode services for ``total`` tokens.

    Two Weyl streams drive the draw: one resamples the observed
    decode-pool width distribution, the other indexes that width's
    calibrated gap quantiles — wider pools amortize a step across more
    tokens, and the calibration measured exactly how.
    """
    if total == 0 or state.gap_sorted is None or state.gap_sorted.size == 0:
        return np.zeros(total, dtype=float)
    widths = state.width_per_token
    gap_uniforms = _weyl(total, _SQRT11M3)
    if widths is None or widths.size == 0 or not state.width_gaps:
        ranks = np.minimum(
            (gap_uniforms * state.gap_sorted.size).astype(np.intp),
            state.gap_sorted.size - 1,
        )
        return state.gap_sorted[ranks]
    width_uniforms = _weyl(total, _SQRT7M2)
    picks = widths[np.minimum(
        (width_uniforms * widths.size).astype(np.intp), widths.size - 1
    )]
    gaps = np.empty(total, dtype=float)
    for width in np.unique(picks):
        bucket = state.width_gaps.get(int(width))
        if bucket is None or bucket.size == 0:
            bucket = state.gap_sorted
        mask = picks == width
        ranks = np.minimum(
            (gap_uniforms[mask] * bucket.size).astype(np.intp),
            bucket.size - 1,
        )
        gaps[mask] = bucket[ranks]
    return gaps


def _decode_cohort(cell, state: _CalibrationState, times: np.ndarray,
                   waits: np.ndarray, latency: np.ndarray,
                   model_indices: np.ndarray, windows, stretch):
    """Sequence-aware latency decomposition of one fluid cohort.

    Prefill rides the calibrated quantiles (window-stretched like any
    service); decode is the vectorized token-service loop of
    :func:`~repro.core.analytic.decode_token_latencies`.  Returns the
    sequences' ``(ttft, token_gaps, outputs)`` as lists, and every
    arrival's latency, single-step tenants' untouched.
    """
    n = len(times)
    _, outputs = _sequence_lengths(cell, n, model_indices)
    seq_mask = outputs > 0
    prefill_quantiles = state.prefill_sorted
    prefill_uniforms = _weyl(n, _SQRT3M1)
    ranks = np.minimum(
        (prefill_uniforms * prefill_quantiles.size).astype(np.intp),
        prefill_quantiles.size - 1,
    )
    prefill = prefill_quantiles[ranks]
    if stretch is not None:
        starts = np.array([window.start_s for window in windows])
        window_of = np.clip(
            np.searchsorted(starts, times, side="right") - 1,
            0, len(windows) - 1,
        )
        prefill = prefill * stretch[window_of]
    ttft = waits + prefill
    token_counts = np.where(seq_mask, np.maximum(outputs - 1, 0), 0)
    gaps = _sample_decode_gaps(state, int(token_counts.sum()))
    decode_s, stretched_gaps = decode_token_latencies(
        times + ttft, gaps, token_counts, windows, stretch
    )
    latency = np.where(seq_mask, ttft + decode_s, latency)
    return (ttft[seq_mask].tolist(), stretched_gaps.tolist(),
            outputs[seq_mask].tolist(), latency)


def _evaluate_fluid(cell, state: _CalibrationState, times: np.ndarray,
                    windows) -> RequestTable:
    """Run the fluid model over the cell's exact arrival cohort,
    ``times`` (drawn once by the caller, which also reads its SCV).

    Every arrival completes, so no row is shed; a row violates its SLO
    when its latency exceeds its tenant's.
    """
    n = len(times)
    if n == 0:
        return RequestTable(cell.tenants, [], [], [], [], [], [])
    model_indices = _model_assignment(cell, n)
    services = _sample_services(cell, state, model_indices)
    stretch = None
    if len(windows) > 1:
        starts = np.array([window.start_s for window in windows])
        window_of = np.clip(
            np.searchsorted(starts, times, side="right") - 1,
            0, len(windows) - 1,
        )
        nominal = (
            float(state.service_sorted.mean())
            if state.service_sorted.size else 0.0
        )
        if nominal > 0:
            stretch = np.array([
                window.service_mean_s / nominal for window in windows
            ])
            services = services * stretch[window_of]
    waits = fluid_queue_delays(times, windows, _weyl(n, _SQRT2M1))
    latency = waits + services
    ttft = token_gaps = outputs = ()
    if (cell.sequences
            and state.prefill_sorted is not None
            and state.prefill_sorted.size):
        ttft, token_gaps, outputs, latency = _decode_cohort(
            cell, state, times, waits, latency, model_indices,
            windows, stretch,
        )
    slos = np.array([
        math.inf if slo_s is None else slo_s for _, slo_s in cell.tenants
    ])
    return RequestTable(
        tenants=cell.tenants,
        arrival_s=times.tolist(),
        queue_delay_s=waits.tolist(),
        latency_s=latency.tolist(),
        mix_index=model_indices.tolist(),
        dropped=[False] * n,
        slo_violated=(latency > slos[model_indices]).tolist(),
        ttft_s=ttft,
        output_tokens=outputs,
        token_gaps=token_gaps,
    )


def _elapsed(table: RequestTable, window_s: float) -> float:
    """A fluid run's end: its window, or its last completion."""
    return max([window_s, *map(add, table.arrival_s, table.latency_s)])


# ---------------------------------------------------------------------------
# Validation + result assembly.
# ---------------------------------------------------------------------------


def _policy_slots(cell) -> int:
    return cell.scheduler.max_inflight


def _validate(cell, state: _CalibrationState, warm: bool,
              policy: FidelitySpec) -> FidelityReport:
    """Fluid re-prediction of the calibration window vs its DES truth."""
    if state.served == 0:
        return FidelityReport(
            mode_requested=policy.mode, mode_used="des-fallback",
            error_budget=policy.error_budget,
            calibration_s=state.calibration_s, calibration_requests=0,
            p50_rel_err=1.0, p99_rel_err=1.0, goodput_rel_err=1.0,
            warm_forked=warm,
        )
    calib_cell = _calibration_cell(cell, state.calibration_s)
    times = calib_cell.arrival_process().arrival_times(state.calibration_s)
    arrival_scv = _arrival_scv(calib_cell, times)
    servers = _policy_slots(cell) * cell.replicas
    window = FluidWindow(
        start_s=0.0, end_s=state.calibration_s, servers=servers,
        service_mean_s=float(state.service_sorted.mean()),
        mean_batch=state.mean_batch, service_scv=state.service_scv,
        arrival_scv=arrival_scv,
    )
    table = _evaluate_fluid(calib_cell, state, times, [window])
    elapsed = _elapsed(table, state.calibration_s)
    predicted = request_fields(table, elapsed)
    latency = predicted["latency"]
    measured = state.result
    ttft_err = token_err = None
    ttft, token = predicted["ttft"], predicted["token_latency"]
    if ttft is not None and measured.ttft is not None:
        ttft_err = _rel_err(ttft.p99_s, measured.ttft.p99_s)
    if (token is not None and token.count
            and measured.token_latency is not None):
        token_err = _rel_err(token.p99_s, measured.token_latency.p99_s)
    return FidelityReport(
        mode_requested=policy.mode, mode_used="fluid",
        error_budget=policy.error_budget,
        calibration_s=state.calibration_s,
        calibration_requests=state.served,
        p50_rel_err=_rel_err(latency.p50_s, measured.latency.p50_s),
        p99_rel_err=_rel_err(latency.p99_s, measured.latency.p99_s),
        goodput_rel_err=_rel_err(latency.count / elapsed,
                                 measured.goodput_rps),
        warm_forked=warm,
        ttft_rel_err=ttft_err,
        token_p99_rel_err=token_err,
    )


def _scale(value: float, completed: int, reference: int) -> float:
    """Extrapolate a calibration-window extensive quantity."""
    if reference <= 0:
        return value
    return value * (completed / reference)


def _fluid_result(cell: ServingCell, state: _CalibrationState,
                  report: FidelityReport) -> ServingResult:
    """The fluid model's result, one node or many.

    The request-derived fields come from :func:`request_fields` over
    the fluid cohort's table, as the DES worker's do over its records.
    Each node's MAC utilization, the in-flight mean, the mean batch,
    the KV peak, the decode remaps and the channel stats stand in from
    the calibration window; energies, reconfigurations and KV refusals
    scale with the completed count.
    """
    times = cell.arrival_process().arrival_times(cell.duration_s)
    windows, walk = _build_windows(
        cell, state, _policy_slots(cell), _arrival_scv(cell, times)
    )
    _, final_states, uptime, incidents, node_records = walk
    table = _evaluate_fluid(cell, state, times, windows)
    completed = len(table.latency_s)
    elapsed = _elapsed(table, cell.duration_s)
    calibration: ServingResult = state.result
    _, compute_events = platform_timelines(cell.faults)
    outages, availability = node_outages(
        node_records, cell.replicas, elapsed
    )
    spans = _fault_spans((), compute_events, outages, elapsed)
    fields = request_fields(table, elapsed, _fault_span(spans))

    # Completed requests distribute across replicas in proportion to
    # routable up-time x routing weight — the fluid model does not track
    # per-node queues, so this is the stationary share.
    weights = cell.weights if cell.weights else (1.0,) * cell.replicas
    shares = np.array([
        uptime[index] * weights[index] for index in range(cell.replicas)
    ])
    total_share = shares.sum()
    if total_share <= 0:
        shares = np.ones(cell.replicas)
        total_share = float(cell.replicas)
    node_completed = np.floor(
        shares / total_share * completed
    ).astype(int)
    node_completed[int(np.argmax(shares))] += completed - node_completed.sum()
    per_node = tuple(
        NodeStats(
            node=measured.node,
            state=final_states[index],
            requests_completed=int(node_completed[index]),
            requests_shed=0,
            rerouted_away=0,
            latency=fields["latency"],
            goodput_rps=(
                int(node_completed[index]) / elapsed if elapsed > 0
                else 0.0
            ),
            mean_compute_utilization=measured.mean_compute_utilization,
        )
        for index, measured in enumerate(calibration.per_node)
    )

    def scaled(value: float) -> float:
        return _scale(value, completed, calibration.requests_completed)

    result_type = ClusterResult if cell.is_fleet else ServingResult
    return result_type(
        platform=calibration.platform,
        model=cell.mix_label,
        controller=cell.controller,
        router=cell.router if cell.is_fleet else "-",
        policy=cell.scheduler.label,
        arrival_kind=cell.arrival_kind,
        n_nodes=cell.replicas,
        offered_rps=cell.rate_rps,
        duration_s=cell.duration_s,
        elapsed_s=elapsed,
        requests_injected=completed,
        requests_completed=completed,
        per_node=per_node,
        mean_batch_size=state.mean_batch if completed else 0.0,
        mean_inflight=calibration.mean_inflight,
        mean_compute_utilization=calibration.mean_compute_utilization,
        reconfigurations=int(round(scaled(calibration.reconfigurations))),
        network_energy_j=scaled(calibration.network_energy_j),
        compute_energy_j=scaled(calibration.compute_energy_j),
        channel_stats=calibration.channel_stats,
        requests_shed=0,
        requests_rerouted=0,
        node_events=node_records,
        hazard_events=compute_hazard_records(compute_events, elapsed),
        time_degraded_s=_degraded_s(spans),
        availability=availability,
        mttr_s=mean_time_to_repair(incidents),
        incidents=incidents,
        kv_refusals=int(round(scaled(calibration.kv_refusals))),
        kv_peak_bits=calibration.kv_peak_bits,
        decode_remaps=calibration.decode_remaps,
        fidelity=report,
        **fields,
    )


def simulate_fidelity_cell(cell):
    """Worker body for any cell carrying an armed fidelity section.

    Calibrate (or warm-fork), validate, then either evaluate the fluid
    fast path or fall back to full DES — attaching the
    :class:`FidelityReport` either way.
    """
    policy: FidelitySpec = cell.fidelity
    state, warm, _ = _calibrate(cell, policy)
    report = _validate(cell, state, warm, policy)
    fallback = report.mode_used == "des-fallback" or (
        policy.mode == "auto" and not report.within_budget
    )
    if fallback:
        report = replace(report, mode_used="des-fallback")
        full = simulate_serving_cell(replace(cell, fidelity=_FULL_DES))
        return replace(full, fidelity=report)
    return _fluid_result(cell, state, report)

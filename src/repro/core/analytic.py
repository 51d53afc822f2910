"""Closed-form analytic performance model.

A fast first-order estimator for the 2.5D photonic platform: per layer,
latency = max(compute, weight fetch, input stream, output drain) with
bandwidths taken at their configured maxima (no contention, no
controller lag).  Three uses:

* **Cross-validation** — the DES may only be *slower* than the
  analytic lower bound, and stays close to it when uncontended
  (``tests/test_faults_analytic.py`` asserts both).
* **Fast DSE** — sweeps that only need first-order trends run in
  microseconds instead of simulating.
* **Fluid serving model** — the hybrid-fidelity engine
  (:mod:`repro.experiments.fidelity`) feeds per-model service-time
  estimates into the M/G/k machinery below to approximate whole
  serving windows without per-request event processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import PlatformConfig
from ..dnn.workload import InferenceWorkload
from ..errors import ConfigurationError
from ..mapping.mapper import ModelMapping


@dataclass(frozen=True)
class AnalyticLayerEstimate:
    """Closed-form phase times for one layer."""

    name: str
    compute_s: float
    weight_fetch_s: float
    input_stream_s: float
    output_drain_s: float

    @property
    def latency_s(self) -> float:
        """Streaming execution: the slowest of the overlapped phases.

        Weight fetch is prefetched during the previous layer, so it only
        binds when it exceeds the previous layer's span; the max() here
        is therefore a lower bound.
        """
        return max(self.compute_s, self.input_stream_s,
                   self.output_drain_s)


@dataclass(frozen=True)
class AnalyticEstimate:
    """Whole-model analytic bounds."""

    model_name: str
    layers: tuple[AnalyticLayerEstimate, ...]

    @property
    def lower_bound_s(self) -> float:
        """Sum of per-layer streaming maxima (no contention)."""
        return sum(layer.latency_s for layer in self.layers)


def analytic_estimate(
    mapping: ModelMapping,
    config: PlatformConfig,
    workload: InferenceWorkload | None = None,
    mac_fraction: float = 1.0,
) -> AnalyticEstimate:
    """Closed-form latency bounds for a mapped workload on the 2.5D
    photonic platform at full (static) interposer capacity.

    ``mac_fraction`` is the remaining MAC throughput under a
    ``chiplet-mac-degrade`` hazard — it divides the effective MAC rate
    exactly as :class:`~repro.core.engine.ComputeOccupancy` stretches
    the compute phase of every in-flight request, so analytic and DES
    estimates stay comparable inside degraded windows.
    """
    if not 0.0 < mac_fraction <= 1.0:
        raise ConfigurationError(
            f"MAC fraction must be in (0, 1], got {mac_fraction}"
        )
    read_bw = min(
        config.n_memory_write_gateways * config.gateway_bandwidth_bps,
        config.hbm_internal_bandwidth_bps,
    )
    effective_mac_rate_hz = config.mac_rate_hz * mac_fraction
    layers = []
    for layer_mapping in mapping:
        layer = layer_mapping.layer
        compute_s = max(
            (
                alloc.vector_ops / (alloc.n_macs * effective_mac_rate_hz)
                for alloc in layer_mapping.allocations
            ),
            default=0.0,
        )
        # Per-chiplet ingest can bind before the memory side does.
        slowest_ingest = min(
            (
                config.group_by_kind(alloc.kind).gateways_per_chiplet
                * config.gateway_bandwidth_bps
                for alloc in layer_mapping.allocations
            ),
            default=read_bw,
        )
        input_bw = min(read_bw, slowest_ingest)
        weight_fetch_s = layer.weight_bits / read_bw
        input_stream_s = layer.input_bits / input_bw
        write_bw = min(
            (
                config.group_by_kind(alloc.kind).gateways_per_chiplet
                * config.gateway_bandwidth_bps
                for alloc in layer_mapping.allocations
            ),
            default=read_bw,
        )
        output_drain_s = layer.output_bits / min(
            write_bw, config.hbm_internal_bandwidth_bps
        )
        layers.append(
            AnalyticLayerEstimate(
                name=layer.name,
                compute_s=compute_s,
                weight_fetch_s=weight_fetch_s,
                input_stream_s=input_stream_s,
                output_drain_s=output_drain_s,
            )
        )
    if not layers:
        raise ConfigurationError("cannot estimate an empty mapping")
    return AnalyticEstimate(
        model_name=mapping.workload.model_name
        if mapping.workload is not None
        else (workload.model_name if workload else "unknown"),
        layers=tuple(layers),
    )


def compute_bound_fraction(estimate: AnalyticEstimate) -> float:
    """Fraction of layers whose streaming maximum is the compute term."""
    compute_bound = sum(
        1
        for layer in estimate.layers
        if layer.compute_s >= max(layer.input_stream_s,
                                  layer.output_drain_s)
    )
    return compute_bound / len(estimate.layers)


# ---------------------------------------------------------------------------
# Fluid serving model: M/G/k queueing over piecewise capacity windows.
#
# The hybrid-fidelity engine approximates a whole serving window as a
# fluid queue: requests are batches flowing through ``servers``
# concurrent dispatch slots at a calibrated mean (batched) service
# time.  Stationary behaviour comes from the Allen–Cunneen M/G/k
# approximation (Erlang-C delay probability scaled by the arrival and
# service variability); capacity hazards and node outages become
# piecewise windows whose backlog carries over, so saturation ramps
# and post-fault drains appear in the latency profile even though no
# per-request events fire.
# ---------------------------------------------------------------------------


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang-C delay probability ``C(k, a)`` for an M/M/k queue.

    Computed through the numerically stable Erlang-B recurrence
    (``B(0)=1; B(j) = a·B(j-1) / (j + a·B(j-1))``), so large server
    counts neither overflow nor lose precision.  Returns 1.0 at or
    beyond saturation (``a >= k``), where every arrival waits.
    """
    if servers < 1:
        raise ConfigurationError(
            f"server count must be >= 1, got {servers}"
        )
    if offered_load < 0:
        raise ConfigurationError(
            f"offered load must be >= 0, got {offered_load}"
        )
    if offered_load == 0.0:
        return 0.0
    if offered_load >= servers:
        return 1.0
    blocking = 1.0
    for j in range(1, servers + 1):
        blocking = offered_load * blocking / (j + offered_load * blocking)
    occupancy = offered_load / servers
    return blocking / (1.0 - occupancy * (1.0 - blocking))


def mgk_queue_delay(
    rate_rps: float,
    servers: int,
    service_mean_s: float,
    mean_batch: float = 1.0,
    service_scv: float = 1.0,
    arrival_scv: float = 1.0,
) -> tuple[float, float]:
    """Stationary ``(P(wait), mean wait)`` of the batched M/G/k queue.

    Jobs are dispatch batches of ``mean_batch`` requests served in
    ``service_mean_s`` by one of ``servers`` slots; the mean wait uses
    the Allen–Cunneen approximation — the M/M/k wait scaled by
    ``(ca² + cs²) / 2`` — which is exact for M/M/k and accurate to a
    few percent for the coefficient-of-variation range the calibrated
    service profiles produce.  Returns ``(1.0, inf)`` at saturation.
    """
    if service_mean_s <= 0 or rate_rps <= 0:
        return 0.0, 0.0
    offered = rate_rps * service_mean_s / mean_batch
    if offered >= servers:
        return 1.0, float("inf")
    prob_wait = erlang_c(servers, offered)
    wait_mmk = prob_wait * service_mean_s / (servers - offered)
    scale = 0.5 * (arrival_scv + service_scv)
    return prob_wait, wait_mmk * scale


@dataclass(frozen=True)
class FluidWindow:
    """One constant-capacity span of the fluid serving model.

    ``servers`` is the number of concurrent dispatch slots (admission
    ``max_inflight``, times the active replica count for fleets),
    ``service_mean_s`` the calibrated mean batched service time inside
    this window (hazard-inflated when MACs are degraded), and
    ``mean_batch`` the calibrated mean dispatch batch size.  The
    variability knobs feed Allen–Cunneen: ``arrival_scv`` is 1 for
    Poisson and the calibrated proxy for bursty MMPP arrivals;
    ``service_scv`` is the squared coefficient of variation of the
    calibration's per-batch service times.
    """

    start_s: float
    end_s: float
    servers: int
    service_mean_s: float
    mean_batch: float = 1.0
    service_scv: float = 1.0
    arrival_scv: float = 1.0

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ConfigurationError(
                f"fluid window must have positive span, got "
                f"[{self.start_s}, {self.end_s}]"
            )
        if self.servers < 1:
            raise ConfigurationError(
                f"fluid window needs >= 1 server, got {self.servers}"
            )
        if self.service_mean_s < 0:
            raise ConfigurationError(
                f"service time must be >= 0, got {self.service_mean_s}"
            )
        if self.mean_batch < 1.0:
            raise ConfigurationError(
                f"mean batch must be >= 1, got {self.mean_batch}"
            )

    @property
    def capacity_rps(self) -> float:
        """Request drain rate at full occupancy (requests/s)."""
        if self.service_mean_s <= 0:
            return float("inf")
        return self.servers * self.mean_batch / self.service_mean_s


def fluid_queue_delays(
    arrival_s: np.ndarray,
    windows: Sequence[FluidWindow],
    uniforms: np.ndarray,
) -> np.ndarray:
    """Per-arrival queue delays of the piecewise fluid queue.

    ``arrival_s`` are sorted arrival times, ``windows`` chronological
    capacity spans covering them (the last window extends to the final
    arrival), and ``uniforms`` one low-discrepancy value per arrival
    that samples the stationary wait mixture deterministically — equal
    inputs give bit-equal outputs, like every simulation path.

    Within each window the wait is the sum of two terms: the
    **transient** backlog ahead of the arrival draining at the window's
    capacity (``backlog(τ)/μ``, with the backlog integrated across
    window boundaries so an overload ramp keeps delaying requests after
    the capacity recovers), and — while the window is stable — a
    **stationary** M/G/k sample: zero with probability ``1 - P(wait)``,
    else an exponential quantile of the conditional mean wait.
    """
    if len(arrival_s) != len(uniforms):
        raise ConfigurationError(
            "need exactly one uniform sample per arrival"
        )
    if not windows:
        raise ConfigurationError("fluid model needs at least one window")
    waits = np.zeros(len(arrival_s), dtype=float)
    backlog = 0.0
    starts = np.array([window.start_s for window in windows])
    # searchsorted assigns each arrival to the window containing it;
    # arrivals beyond the last window's end stay in the last window.
    indices = np.searchsorted(starts, arrival_s, side="right") - 1
    indices = np.clip(indices, 0, len(windows) - 1)
    for w, window in enumerate(windows):
        mask = indices == w
        span_s = window.end_s - window.start_s
        n_window = int(np.count_nonzero(mask))
        rate_rps = n_window / span_s
        capacity = window.capacity_rps
        if n_window:
            tau = arrival_s[mask] - window.start_s
            backlog_at = np.maximum(
                0.0, backlog + (rate_rps - capacity) * tau
            )
            transient = (
                backlog_at / capacity if np.isfinite(capacity)
                else np.zeros_like(backlog_at)
            )
            prob_wait, mean_wait = mgk_queue_delay(
                rate_rps,
                window.servers,
                window.service_mean_s,
                window.mean_batch,
                window.service_scv,
                window.arrival_scv,
            )
            stationary = np.zeros_like(transient)
            if 0.0 < prob_wait and np.isfinite(mean_wait) and mean_wait > 0:
                u = uniforms[mask]
                delayed = u >= 1.0 - prob_wait
                conditional_mean = mean_wait / prob_wait
                # Exponential quantile of the conditional wait: the
                # u-range [1-Pw, 1) maps onto (0, inf).
                stationary[delayed] = -conditional_mean * np.log(
                    (1.0 - u[delayed]) / prob_wait
                )
            waits[mask] = transient + stationary
        backlog = max(0.0, backlog + (rate_rps - capacity) * span_s)
    return waits


def decode_token_latencies(
    start_s: np.ndarray,
    gap_samples: np.ndarray,
    token_counts: np.ndarray,
    windows: Sequence[FluidWindow] | None = None,
    stretches: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized token-service loop for autoregressive decode.

    Each sequence ``i`` starts decoding at ``start_s[i]`` (its first
    token is produced by prefill) and emits ``token_counts[i]`` further
    tokens whose nominal inter-token services are the next
    ``token_counts[i]`` entries of ``gap_samples`` (flat, concatenated
    in sequence order).  When ``windows``/``stretches`` are given, each
    gap is inflated by the stretch of the capacity window its nominal
    emission time falls into — a single-pass piecewise inflation, so a
    MAC-degrade window slows exactly the tokens emitted inside it.

    Returns ``(per_sequence_decode_s, stretched_gaps)``: the total
    decode span per sequence and the flat per-token latencies (the
    per-token latency profile aggregates the latter).
    """
    if gap_samples.size != int(token_counts.sum()):
        raise ConfigurationError(
            "need exactly token_counts.sum() gap samples"
        )
    n = len(start_s)
    if gap_samples.size == 0:
        return np.zeros(n, dtype=float), gap_samples
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(token_counts, out=offsets[1:])
    seq_index = np.repeat(np.arange(n, dtype=np.intp), token_counts)
    if windows is not None and stretches is not None and len(windows) > 1:
        # Nominal absolute emission time of every token: the sequence
        # start plus the within-sequence running sum of nominal gaps.
        running = np.cumsum(gap_samples)
        before = np.zeros(n, dtype=float)
        nonzero = token_counts > 0
        firsts = offsets[:-1][nonzero]
        before[nonzero] = running[firsts] - gap_samples[firsts]
        local = running - before[seq_index]
        times = start_s[seq_index] + local
        starts = np.array([window.start_s for window in windows])
        indices = np.searchsorted(starts, times, side="right") - 1
        indices = np.clip(indices, 0, len(windows) - 1)
        gaps = gap_samples * stretches[indices]
    elif windows is not None and stretches is not None and len(windows) == 1:
        gaps = gap_samples * stretches[0]
    else:
        gaps = gap_samples
    decode_s = np.bincount(seq_index, weights=gaps, minlength=n)
    return decode_s, gaps

"""Synthetic traffic generation: link-level patterns and request arrivals.

The interposer-network papers the platform builds on (PROWAVES [11],
ReSiPI [37], DeFT [40]) characterise their fabrics with synthetic
patterns before running applications.  This module provides the standard
patterns adapted to the hub-shaped chiplet system (one memory node,
N compute nodes):

* ``hotspot``   — every compute chiplet reads from memory (DNN-like),
* ``writeback`` — every compute chiplet writes to memory,
* ``mixed``     — reads and writes in a configurable ratio,
* ``uniform``   — chiplet-to-chiplet traffic routed through memory
  (the fabrics expose only the memory hub, matching Section V's
  traffic classes).

It also provides the **request arrival processes** the serving layer
(:mod:`repro.serving`) feeds the scheduler from:

* :class:`PoissonArrivals`   — memoryless open-loop stream,
* :class:`MMPPArrivals`      — bursty two-state Markov-modulated
  Poisson process (high/low intensity phases),
* :class:`ClosedLoopClients` — N clients that think, issue one request,
  and wait for its completion before the next (load self-throttles).

Generators inject fixed-size messages with exponential inter-arrival
times from a deterministic seeded RNG, so characterisation sweeps and
serving studies are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
# numpy loads its submodules on first attribute access; load the RNG
# here, so a serving study pays for it at lowering, not in its run.
import numpy.random  # noqa: F401

from ..errors import ConfigurationError
from ..interposer.base import InterposerFabric
from ..sim.core import Environment
from ..sim.stats import LatencyRecorder


@dataclass(frozen=True)
class TrafficPattern:
    """A synthetic offered-load description.

    Parameters
    ----------
    name:
        Pattern kind: ``hotspot``, ``writeback``, ``mixed``, ``uniform``.
    offered_load_bps:
        Aggregate injection rate across all compute chiplets.
    message_bits:
        Size of each injected message.
    read_fraction:
        Fraction of messages that are reads (used by ``mixed``).
    duration_s:
        Injection window; the run drains after injection stops.
    seed:
        RNG seed for arrival times and source selection.
    """

    name: str = "hotspot"
    offered_load_bps: float = 1e12
    message_bits: float = 1e6
    read_fraction: float = 0.7
    duration_s: float = 100e-6
    seed: int = 7

    def __post_init__(self) -> None:
        if self.name not in ("hotspot", "writeback", "mixed", "uniform"):
            raise ConfigurationError(f"unknown pattern {self.name!r}")
        if self.offered_load_bps <= 0 or self.message_bits <= 0:
            raise ConfigurationError("load and message size must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read fraction must be in [0, 1]")
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")


@dataclass
class TrafficReport:
    """Outcome of one characterisation run."""

    pattern: TrafficPattern
    messages_injected: int = 0
    bits_injected: float = 0.0
    completion_time_s: float = 0.0
    latencies: LatencyRecorder = field(default_factory=LatencyRecorder)

    @property
    def achieved_throughput_bps(self) -> float:
        """Delivered bits over the full run (injection + drain)."""
        if self.completion_time_s <= 0:
            return 0.0
        return self.bits_injected / self.completion_time_s

    @property
    def mean_latency_s(self) -> float:
        return self.latencies.mean

    @property
    def saturated(self) -> bool:
        """Whether the fabric could not keep up with the offered load."""
        return self.achieved_throughput_bps < 0.9 * (
            self.pattern.offered_load_bps
        )


class TrafficGenerator:
    """Injects a synthetic pattern into any interposer fabric."""

    def __init__(self, env: Environment, fabric: InterposerFabric,
                 compute_chiplets: tuple[str, ...],
                 pattern: TrafficPattern):
        if not compute_chiplets:
            raise ConfigurationError("need at least one compute chiplet")
        self.env = env
        self.fabric = fabric
        self.compute_chiplets = compute_chiplets
        self.pattern = pattern
        self.report = TrafficReport(pattern=pattern)
        self._rng = np.random.default_rng(pattern.seed)
        self._inflight = []

    def _is_read(self) -> bool:
        if self.pattern.name == "hotspot":
            return True
        if self.pattern.name == "writeback":
            return False
        return bool(self._rng.random() < self.pattern.read_fraction)

    def _message_proc(self, chiplet: str, is_read: bool):
        start = self.env.now
        if is_read:
            yield self.fabric.read(chiplet, self.pattern.message_bits)
        else:
            yield self.fabric.write(chiplet, self.pattern.message_bits)
        self.report.latencies.record(self.env.now - start)

    def _injector(self):
        mean_gap = self.pattern.message_bits / self.pattern.offered_load_bps
        while self.env.now < self.pattern.duration_s:
            yield self.env.timeout(
                float(self._rng.exponential(mean_gap))
            )
            chiplet = self.compute_chiplets[
                int(self._rng.integers(len(self.compute_chiplets)))
            ]
            proc = self.env.process(
                self._message_proc(chiplet, self._is_read())
            )
            self._inflight.append(proc)
            self.report.messages_injected += 1
            self.report.bits_injected += self.pattern.message_bits

    def run(self, drain_limit_s: float = 10.0) -> TrafficReport:
        """Inject for the pattern duration, then drain all messages."""
        injector = self.env.process(self._injector())
        self.env.run_until_event(injector, limit=drain_limit_s)
        if self._inflight:
            barrier = self.env.all_of(self._inflight)
            self.env.run_until_event(barrier, limit=drain_limit_s)
        self.report.completion_time_s = self.env.now
        return self.report


# ---------------------------------------------------------------------------
# Request arrival processes (the serving layer's offered load).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoissonArrivals:
    """Open-loop memoryless request stream at ``rate_rps`` requests/s."""

    rate_rps: float
    seed: int = 7
    kind: str = "poisson"

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ConfigurationError(
                f"arrival rate must be positive, got {self.rate_rps}"
            )

    @property
    def mean_rate_rps(self) -> float:
        """Long-run average offered rate (requests/s)."""
        return self.rate_rps

    def gaps(self) -> Iterator[float]:
        """Infinite deterministic stream of inter-arrival gaps (s)."""
        rng = np.random.default_rng(self.seed)
        mean_gap = 1.0 / self.rate_rps
        while True:
            yield float(rng.exponential(mean_gap))

    def arrival_times(self, duration_s: float) -> np.ndarray:
        """All arrival times in ``(0, duration_s]``, vectorized.

        Consumes the same seeded RNG stream as :meth:`gaps` in batched
        draws (numpy ``Generator`` fills arrays with the identical
        sample sequence), so the returned times — and therefore the
        injected-request count — are bit-equal to what the open-loop
        injector produces one event at a time.
        """
        rng = np.random.default_rng(self.seed)
        mean_gap = 1.0 / self.rate_rps
        chunk = max(1024, int(self.rate_rps * duration_s * 1.1) + 16)
        pieces: list[np.ndarray] = []
        last = 0.0
        while True:
            times = last + np.cumsum(rng.exponential(mean_gap, size=chunk))
            if times[-1] > duration_s:
                pieces.append(times[times <= duration_s])
                return np.concatenate(pieces)
            pieces.append(times)
            last = float(times[-1])


@dataclass(frozen=True)
class MMPPArrivals:
    """Bursty two-state Markov-modulated Poisson process.

    The process alternates between a *high* and a *low* intensity phase
    with exponentially distributed dwell times of mean ``dwell_s``.
    ``burstiness`` is the high/low rate ratio; the phase rates are
    chosen so the long-run average equals ``rate_rps`` (equal expected
    time in each phase), so MMPP and Poisson points at the same
    ``rate_rps`` are directly comparable on a latency–throughput curve.
    """

    rate_rps: float
    burstiness: float = 4.0
    dwell_s: float = 20e-6
    seed: int = 7
    kind: str = "mmpp"

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ConfigurationError(
                f"arrival rate must be positive, got {self.rate_rps}"
            )
        if self.burstiness < 1.0:
            raise ConfigurationError(
                f"burstiness must be >= 1, got {self.burstiness}"
            )
        if self.dwell_s <= 0:
            raise ConfigurationError(
                f"dwell time must be positive, got {self.dwell_s}"
            )

    @property
    def mean_rate_rps(self) -> float:
        return self.rate_rps

    @property
    def phase_rates_rps(self) -> tuple[float, float]:
        """(low, high) phase intensities averaging to ``rate_rps``."""
        low = 2.0 * self.rate_rps / (1.0 + self.burstiness)
        return low, low * self.burstiness

    def gaps(self) -> Iterator[float]:
        """Infinite deterministic stream of inter-arrival gaps (s)."""
        rng = np.random.default_rng(self.seed)
        low, high = self.phase_rates_rps
        rate = high  # bursts first: stresses admission immediately
        phase_left = float(rng.exponential(self.dwell_s))
        waited = 0.0
        while True:
            candidate = float(rng.exponential(1.0 / rate))
            if candidate <= phase_left:
                phase_left -= candidate
                yield waited + candidate
                waited = 0.0
            else:
                # No arrival before the phase ends: advance to the
                # boundary, switch intensity, and resample — exact by
                # the memorylessness of the within-phase process.
                waited += phase_left
                rate = low if rate == high else high
                phase_left = float(rng.exponential(self.dwell_s))

    def arrival_times(self, duration_s: float) -> np.ndarray:
        """All arrival times in ``(0, duration_s]``.

        The two-state modulation is inherently sequential, so this
        walks :meth:`gaps` (same stream, same times as the event-driven
        injector) instead of batching draws.
        """
        times: list[float] = []
        now = 0.0
        for gap in self.gaps():
            now += gap
            if now > duration_s:
                break
            times.append(now)
        return np.array(times, dtype=float)


@dataclass(frozen=True)
class ClosedLoopClients:
    """N clients issuing one request each, thinking between requests.

    Offered load self-throttles: a client only issues its next request
    after the previous one completed and an exponential think time of
    mean ``think_time_s`` elapsed — the classic closed-loop model whose
    throughput saturates instead of its queue exploding.
    """

    n_clients: int
    think_time_s: float = 10e-6
    seed: int = 7
    kind: str = "closed"

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ConfigurationError(
                f"need at least one client, got {self.n_clients}"
            )
        if self.think_time_s < 0:
            raise ConfigurationError(
                f"think time must be non-negative, got {self.think_time_s}"
            )

    @property
    def mean_rate_rps(self) -> float:
        """Upper bound on offered rate (zero service time)."""
        if self.think_time_s <= 0:
            return float("inf")
        return self.n_clients / self.think_time_s

    def think_gaps(self, client_index: int) -> Iterator[float]:
        """Deterministic per-client stream of think gaps (s)."""
        rng = np.random.default_rng((self.seed, client_index))
        while True:
            if self.think_time_s <= 0:
                yield 0.0
            else:
                yield float(rng.exponential(self.think_time_s))


ARRIVAL_KINDS = {
    "poisson": PoissonArrivals,
    "mmpp": MMPPArrivals,
    "closed": ClosedLoopClients,
}
"""Arrival-process constructors keyed by CLI/serving-study kind name."""

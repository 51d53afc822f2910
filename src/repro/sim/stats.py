"""Measurement helpers for simulations.

* :class:`TimeWeightedValue` — integrates a piecewise-constant signal
  over time (queue depths, active-gateway counts, power draw).
* :class:`EpochTrafficMonitor` — bins traffic into fixed epochs per key;
  this is the observation mechanism the ReSiPI controller reads.
* :class:`LatencyRecorder` — collects per-message latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from .core import Environment


class TimeWeightedValue:
    """Time-integral of a piecewise-constant signal.

    The integral adds one term per change of value: a :meth:`set` of the
    current value adds nothing, so re-asserting a signal every epoch
    costs one comparison and leaves the integral as it is.
    """

    __slots__ = ("env", "_value", "_last_change", "_integral")

    def __init__(self, env: Environment, initial: float = 0.0):
        self.env = env
        self._value = initial
        self._last_change = env.now
        self._integral = 0.0

    @property
    def value(self) -> float:
        """Current signal value."""
        return self._value

    def set(self, value: float) -> None:
        """Change the signal value at the current simulation time."""
        if value == self._value:
            return
        now = self.env._now
        self._integral += self._value * (now - self._last_change)
        self._value = value
        self._last_change = now

    def add(self, delta: float) -> None:
        """Increment the signal."""
        self.set(self._value + delta)

    def integral(self) -> float:
        """Signal integral from t=0 to now (value-seconds)."""
        return self._integral + self._value * (self.env.now - self._last_change)

    def time_average(self) -> float:
        """Time-averaged signal value from t=0 to now."""
        if self.env.now == 0.0:
            return self._value
        return self.integral() / self.env.now


class EpochTrafficMonitor:
    """Traffic accumulated per key within fixed-length epochs.

    Controllers call :meth:`record` as messages move, and
    :meth:`close_epoch` at each epoch boundary to obtain the per-key bit
    counts of the epoch just ended.
    """

    def __init__(self, env: Environment, epoch_length_s: float):
        if epoch_length_s <= 0:
            raise SimulationError("epoch length must be positive")
        self.env = env
        self.epoch_length_s = epoch_length_s
        self._current: dict[str, float] = {}
        self.history: list[dict[str, float]] = []

    def record(self, key: str, bits: float) -> None:
        """Attribute ``bits`` of traffic to ``key`` in the current epoch."""
        if bits < 0:
            raise SimulationError("traffic bits must be non-negative")
        self._current[key] = self._current.get(key, 0.0) + bits

    def close_epoch(self) -> dict[str, float]:
        """End the current epoch; returns and archives its traffic map."""
        finished = self._current
        self.history.append(finished)
        self._current = {}
        return finished

    def demanded_bandwidth_bps(self, traffic: dict[str, float]) -> dict[str, float]:
        """Convert an epoch's bit counts to average offered load (b/s)."""
        return {
            key: bits / self.epoch_length_s for key, bits in traffic.items()
        }


@dataclass
class LatencyRecorder:
    """Accumulates per-message latency samples."""

    samples: list[float] = field(default_factory=list)

    def record(self, latency_s: float) -> None:
        if latency_s < 0:
            raise SimulationError("latency must be non-negative")
        self.samples.append(latency_s)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return self.total / len(self.samples)

    @property
    def max(self) -> float:
        if not self.samples:
            return 0.0
        return max(self.samples)

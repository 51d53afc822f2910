"""Counters, sampled gauges and log-bucketed histograms in sim time.

A :class:`MetricsRegistry` is owned by one simulation cell.  Gauges are
registered as zero-argument callbacks (queue depth, inflight, residency
occupancy, MAC/channel utilization, routable nodes) and sampled by a
perpetual simulation process on a fixed sim-time interval — safe under
the serving layer's ``run_until_event`` drain, which exits when the
drained barrier fires regardless of pending sampler timeouts, and
side-effect-free, so armed metrics never perturb request records.

Gauge samples are columnar: every tick appends ``now`` once to one
shared ``array('d')`` tick column and one value to each gauge's own
``array('d')`` column, so a sample costs 8 bytes per gauge plus 8 per
tick.  The shared column needs the gauge set fixed before the first
sample, so :meth:`MetricsRegistry.gauge` refuses a late registration.
:meth:`MetricsRegistry.freeze_series` copies the columns into an
immutable :class:`GaugeSeries`.

Histograms use power-of-two buckets (each observation lands in the
bucket whose upper bound is the next power of two), the classic
log-bucketing that keeps tails visible at constant memory.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..errors import SimulationError

_BLOCKS = " .:-=+*#%@"
"""ASCII intensity ramp for sparklines (space = zero/min)."""


@dataclass(frozen=True)
class GaugeSeries:
    """Every gauge time series of one cell, frozen as columns.

    ``ticks`` is the sim-time column all gauges share and ``values``
    holds one value column per name, each ``len(ticks)`` long; both
    are native-order ``float64`` bytes, so the series is immutable,
    hashable and equal after a pickle round trip.  Iterating yields
    ``(name, values)`` pairs whose values read as floats.
    """

    names: tuple[str, ...] = ()
    ticks: bytes = b""
    values: tuple[bytes, ...] = ()

    def times(self) -> memoryview:
        """The shared sample-time column, in seconds."""
        return memoryview(self.ticks).cast("d")

    def __iter__(self) -> Iterator[tuple[str, memoryview]]:
        for name, column in zip(self.names, self.values):
            yield name, memoryview(column).cast("d")


class MetricsRegistry:
    """Counters + gauge time series + log-bucketed histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self._gauges: dict[str, tuple[Callable[[], float], array]] = {}
        self._ticks = array("d")
        self.histograms: dict[str, dict[float, int]] = {}

    # -- counters ------------------------------------------------------------------

    def inc(self, name: str, delta: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + delta

    # -- histograms ----------------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Drop ``value`` into its power-of-two bucket of ``name``."""
        if value <= 0:
            bucket = 0.0
        else:
            bucket = 2.0 ** math.ceil(math.log2(value))
        buckets = self.histograms.setdefault(name, {})
        buckets[bucket] = buckets.get(bucket, 0) + 1

    # -- gauges --------------------------------------------------------------------

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a gauge callback sampled on every tick.

        Every gauge shares one tick column, so all must register before
        the first sample.
        """
        if self._ticks:
            raise SimulationError(
                f"gauge {name!r} registered after the first sample; "
                f"register every gauge before start_sampler"
            )
        if name in self._gauges:
            raise SimulationError(f"gauge {name!r} already registered")
        self._gauges[name] = (fn, array("d"))

    def sample(self, now: float) -> None:
        """Append one sample of every gauge at sim time ``now``."""
        self._ticks.append(now)
        for fn, column in self._gauges.values():
            column.append(fn())

    def freeze_series(self) -> GaugeSeries:
        """The samples so far as an immutable :class:`GaugeSeries`."""
        return GaugeSeries(
            names=tuple(self._gauges),
            ticks=self._ticks.tobytes(),
            values=tuple(
                column.tobytes() for _, column in self._gauges.values()
            ),
        )

    def start_sampler(self, env: Any, interval_s: float) -> None:
        """Launch the perpetual sampling process (one tick per interval).

        The first sample lands at t = ``env.now`` so every series has a
        baseline point; the process never terminates — callers must
        drain via ``run_until_event``, which all serving entry points
        do.
        """
        if interval_s <= 0:
            raise SimulationError(
                f"sampling interval must be positive, got {interval_s}"
            )
        self.sample(env.now)

        def _sampler():
            while True:
                yield env.timeout(interval_s)
                self.sample(env.now)

        env.process(_sampler())


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """ASCII sparkline of ``values`` resampled to ``width`` columns."""
    if not values:
        return ""
    if len(values) > width:
        # Bucket-wise max keeps short spikes visible after resampling.
        step = len(values) / width
        values = [
            max(values[int(i * step):max(int(i * step) + 1,
                                         int((i + 1) * step))])
            for i in range(width)
        ]
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        return _BLOCKS[0] * len(values)
    scale = len(_BLOCKS) - 1
    return "".join(
        _BLOCKS[int(round((value - low) / span * scale))]
        for value in values
    )


def render_sparklines(
    series: Iterable[tuple[str, Sequence[float]]],
    width: int = 48,
) -> str:
    """One sparkline row per ``(name, values)`` series (min/max
    annotated); a :class:`GaugeSeries` iterates as exactly that."""
    lines = []
    for name, values in series:
        if not values:
            continue
        lines.append(
            f"{name:<24}|{sparkline(values, width)}| "
            f"min {min(values):.3g}  max {max(values):.3g}  "
            f"last {values[-1]:.3g}"
        )
    return "\n".join(lines)

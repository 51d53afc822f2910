"""One cell's telemetry session and its picklable summary.

A :class:`TelemetrySession` is created inside the simulation worker
when a cell carries an armed :class:`~repro.obs.policy.TelemetryPolicy`:
it owns the (optional) :class:`~repro.obs.trace.TraceRecorder` and the
:class:`~repro.obs.metrics.MetricsRegistry`, and at the end of the run
freezes both into a :class:`TelemetrySummary` — plain immutable data
that rides on the ``ServingResult`` through the on-disk cache and the
export layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .metrics import MetricsRegistry, render_sparklines
from .policy import TelemetryPolicy
from .trace import Instant, Span, TraceRecorder


@dataclass(frozen=True)
class TelemetrySummary:
    """Frozen telemetry outcome of one simulation cell.

    Everything is tuples, so results with telemetry attached compare by
    value and survive a pickle round trip unchanged — the determinism
    tests rely on summary equality across serial / fanned-out / cached
    runs.
    """

    policy_label: str
    sample_rate: float
    sampled_requests: int
    total_requests: int
    spans: tuple[Span, ...] = ()
    instants: tuple[Instant, ...] = ()
    counters: tuple[tuple[str, float], ...] = ()
    series: tuple[tuple[str, tuple[tuple[float, float], ...]], ...] = ()
    histograms: tuple[
        tuple[str, tuple[tuple[float, int], ...]], ...
    ] = ()

    @property
    def span_count(self) -> int:
        return len(self.spans)

    def render_sparklines(self, width: int = 48) -> str:
        """ASCII sparkline block of every gauge series."""
        return render_sparklines(self.series, width=width)


class TelemetrySession:
    """Builds, attaches and finally freezes one cell's telemetry."""

    def __init__(self, env: Any, policy: TelemetryPolicy):
        self.env = env
        self.policy = policy
        self.recorder = (
            TraceRecorder(env, sample_rate=policy.sample_rate)
            if policy.trace else None
        )
        self.metrics = MetricsRegistry()

    def start(self, duration_s: float) -> None:
        """Start the gauge sampler for a serving window."""
        self.metrics.start_sampler(
            self.env, self.policy.interval_for(duration_s)
        )

    def summary(self, total_requests: int) -> TelemetrySummary:
        """Freeze the session into its picklable summary."""
        recorder = self.recorder
        if recorder is not None:
            recorder.close_open_spans()
        metrics = self.metrics
        return TelemetrySummary(
            policy_label=self.policy.label,
            sample_rate=self.policy.sample_rate,
            sampled_requests=(
                recorder.sampled_requests if recorder is not None else 0
            ),
            total_requests=total_requests,
            spans=tuple(recorder.spans) if recorder is not None else (),
            instants=(
                tuple(recorder.instants) if recorder is not None else ()
            ),
            counters=tuple(sorted(metrics.counters.items())),
            series=tuple(
                (name, tuple(samples))
                for name, samples in metrics.series.items()
            ),
            histograms=tuple(
                (name, tuple(sorted(buckets.items())))
                for name, buckets in sorted(metrics.histograms.items())
            ),
        )


def telemetry_series_to_csv(
    summaries: list[tuple[str, TelemetrySummary]],
) -> str:
    """CSV of every metric time series: cell,series,t_s,value."""
    lines = ["cell,series,t_s,value"]
    for label, summary in summaries:
        for name, samples in summary.series:
            for at_s, value in samples:
                lines.append(f"{label},{name},{at_s!r},{value!r}")
    return "\n".join(lines) + "\n"

"""One cell's telemetry session and its picklable summary.

A :class:`TelemetrySession` is created inside the simulation worker
when a cell carries an armed :class:`~repro.obs.policy.TelemetryPolicy`:
it owns the (optional) :class:`~repro.obs.trace.TraceRecorder` and the
:class:`~repro.obs.metrics.MetricsRegistry`, and at the end of the run
freezes both into a :class:`TelemetrySummary` — plain immutable data
that rides on the ``ServingResult`` through the on-disk cache and the
export layer.

Both sides are columnar.  The recorder and the registry append into
typed arrays while the cell runs; the summary carries the same columns
as ``bytes`` beside tuple intern tables (tracks, names, ``args``) and
one shared gauge tick column, never one Python object per record.  A
span costs 32 bytes of columns (two ``float64`` times, four ``int32``
fields) and a gauge sample 8 bytes plus its share of the tick column,
against about 250 and 108 bytes as one frozen object per record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .metrics import GaugeSeries, MetricsRegistry, render_sparklines
from .policy import TelemetryPolicy
from .trace import InstantTable, SpanTable, TraceRecorder


@dataclass(frozen=True)
class TelemetrySummary:
    """Frozen telemetry outcome of one simulation cell.

    Every field is a tuple, ``bytes`` or a frozen table of those, so
    results with telemetry attached compare by value and survive a
    pickle round trip unchanged — the determinism tests rely on summary
    equality across serial / fanned-out / cached runs.  ``spans`` and
    ``instants`` iterate as :class:`~repro.obs.trace.Span` /
    :class:`~repro.obs.trace.Instant` rows and ``series`` as
    ``(name, values)`` pairs over the shared ``series.times()``.
    """

    policy_label: str
    sample_rate: float
    sampled_requests: int
    total_requests: int
    spans: SpanTable = SpanTable()
    instants: InstantTable = InstantTable()
    counters: tuple[tuple[str, float], ...] = ()
    series: GaugeSeries = GaugeSeries()
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
        spans, instants = SpanTable(), InstantTable()
        if recorder is not None:
            recorder.close_open_spans()
            spans = recorder.freeze_spans()
            instants = recorder.freeze_instants()
        metrics = self.metrics
        return TelemetrySummary(
            policy_label=self.policy.label,
            sample_rate=self.policy.sample_rate,
            sampled_requests=(
                recorder.sampled_requests if recorder is not None else 0
            ),
            total_requests=total_requests,
            spans=spans,
            instants=instants,
            counters=tuple(sorted(metrics.counters.items())),
            series=metrics.freeze_series(),
            histograms=tuple(
                (name, tuple(sorted(buckets.items())))
                for name, buckets in sorted(metrics.histograms.items())
            ),
        )


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted only when it must be (a swept
    fault section's label carries commas)."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def telemetry_series_to_csv(
    summaries: list[tuple[str, TelemetrySummary]],
) -> str:
    """CSV of every metric time series: cell,series,t_s,value."""
    lines = ["cell,series,t_s,value"]
    for label, summary in summaries:
        cell = _csv_field(label)
        ticks = summary.series.times()
        for name, values in summary.series:
            for at_s, value in zip(ticks, values):
                lines.append(f"{cell},{name},{at_s!r},{value!r}")
    return "\n".join(lines) + "\n"

"""Simulation-time telemetry: span tracing and time-series metrics.

The observability layer of the serving stack.  Two pillars:

* **Span tracing** (:mod:`repro.obs.trace`): a :class:`TraceRecorder`
  collects typed spans with sim-time begin/end across the request
  lifecycle — queue wait, batch gather, KV/weight admission and fetch,
  prefill and decode steps, retry/hedge attempts, cluster routing —
  into typed columns (:class:`SpanTable`, :class:`InstantTable`) and
  exports Chrome trace-event JSON loadable in Perfetto or
  ``chrome://tracing``.  A configurable per-request sample rate keeps
  million-request studies tractable.

* **Time-series metrics** (:mod:`repro.obs.metrics`): a
  :class:`MetricsRegistry` of counters, gauge callbacks sampled on a
  sim-time interval (queue depth, inflight, KV/weight occupancy, MAC
  and channel utilization, routable nodes) into one shared tick column
  and a value column per gauge (:class:`GaugeSeries`), and
  log-bucketed histograms, exported as JSON/CSV time series and
  rendered as ASCII sparklines after ``repro study``.

Everything is armed from the spec layer: a serving cell carries its
point's ``StudySpec.telemetry`` section, and an armed one records
through a :class:`TelemetrySession`.  The null path — the degenerate
section — costs nothing beyond a handful of ``is not None`` guards,
which the ``telemetry_null_recorder`` microbenchmark pins.
"""

from .. import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".metrics": ("GaugeSeries", "MetricsRegistry", "render_sparklines",
                 "sparkline"),
    ".session": ("TelemetrySession", "TelemetrySummary",
                 "telemetry_series_to_csv"),
    ".trace": (
        "Instant",
        "InstantTable",
        "Span",
        "SpanTable",
        "TraceRecorder",
        "chrome_trace_events",
        "chrome_trace_json",
        "validate_chrome_trace",
    ),
})

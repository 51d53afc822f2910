"""Request-serving layer: schedulers, metrics, arrival-driven load.

Turns the one-shot simulator into a request-serving model: arrival
processes feed a :class:`~repro.serving.scheduler.RequestScheduler`
that dispatches batched :class:`~repro.core.engine.RequestExecution`
instances over one shared fabric, and
:mod:`repro.serving.metrics` reduces the per-request records, as one
request table, into latency/goodput/utilization results — per tenant
model when several share the fabric.
"""

from .. import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".lifecycle": ("LifecycleDriver",),
    ".metrics": (
        "IncidentRecord",
        "LatencyProfile",
        "ModelServingStats",
        "NodeStats",
        "RequestRecord",
        "RequestTable",
        "ResilienceStats",
        "ServingResult",
        "WindowStats",
        "mean_time_to_repair",
        "per_model_stats",
        "percentile",
        "request_fields",
        "windowed_stats",
    ),
    ".scheduler": ("RequestHandle", "RequestScheduler"),
})

"""The picklable telemetry policy simulation cells carry.

The spec layer's :class:`~repro.studies.spec.TelemetrySpec` lowers onto
this frozen twin (:func:`repro.studies.compile.build_telemetry`), the
same pattern as ``ResiliencePolicy`` / ``FidelityPolicy``: cells cross
process-pool boundaries, so the policy must be plain picklable data,
and a degenerate policy is represented as ``None`` on the cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class TelemetryPolicy:
    """What to observe during one simulation cell.

    ``trace`` arms span recording; ``sample_rate`` is the fraction of
    requests whose lifecycle is traced (deterministic per request id,
    so serial and fanned-out runs sample identically).  Metrics gauges
    are always sampled while the policy is armed; ``metrics_interval_s``
    overrides the sampling interval (default: duration / 50).
    """

    trace: bool = False
    sample_rate: float = 1.0
    metrics_interval_s: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_rate <= 1.0:
            raise ConfigurationError(
                f"telemetry sample rate must be in (0, 1], got "
                f"{self.sample_rate}"
            )
        if self.metrics_interval_s is not None and self.metrics_interval_s <= 0:
            raise ConfigurationError(
                f"metrics interval must be positive, got "
                f"{self.metrics_interval_s}"
            )

    def __bool__(self) -> bool:
        """True when any knob departs from the degenerate default."""
        return self != type(self)()

    def interval_for(self, duration_s: float) -> float:
        """The gauge-sampling interval for a serving window."""
        if self.metrics_interval_s is not None:
            return self.metrics_interval_s
        return max(duration_s / 50.0, 1e-9)

    @property
    def label(self) -> str:
        parts = []
        if self.trace:
            parts.append(
                "trace" if self.sample_rate >= 1.0
                else f"trace@{self.sample_rate:g}"
            )
        if self.metrics_interval_s is not None:
            parts.append(f"metrics@{self.metrics_interval_s:g}s")
        elif not parts:
            parts.append("metrics")
        return "telemetry(" + ",".join(parts) + ")"

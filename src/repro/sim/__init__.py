"""Discrete-event simulation kernel and shared-resource primitives."""

from .. import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".core": ("AllOf", "Environment", "Event", "Process", "Timeout"),
    ".resources": ("BandwidthChannel", "ChannelStat", "Resource"),
    ".stats": ("EpochTrafficMonitor", "LatencyRecorder", "TimeWeightedValue"),
})

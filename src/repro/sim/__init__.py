"""Discrete-event simulation kernel and shared-resource primitives."""

from .core import AllOf, Environment, Event, Process, Timeout
from .resources import BandwidthChannel, ChannelStat, Resource
from .stats import EpochTrafficMonitor, LatencyRecorder, TimeWeightedValue

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "BandwidthChannel",
    "ChannelStat",
    "Resource",
    "EpochTrafficMonitor",
    "LatencyRecorder",
    "TimeWeightedValue",
]

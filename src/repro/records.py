"""Plain records that simulation results carry through the cache.

A cached result is a pickle, and unpickling imports the module that
defines each class in it.  These records live apart from the layers
that fill them in (the kernel's channels, the photonic hazard engine,
the cluster router), so reading a cached result loads none of those
layers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ChannelStat:
    """Utilization snapshot of one :class:`~repro.sim.resources.Resource`
    or :class:`~repro.sim.resources.BandwidthChannel`, taken at the end
    of a run.

    Attached to the execution trace (and exported with results) so that
    runs farmed out to worker processes remain debuggable: the snapshot
    travels with the pickled :class:`~repro.core.metrics.InferenceResult`
    even though the simulation objects themselves do not.
    """

    name: str
    utilization: float
    busy_time_s: float
    bits_transferred: float = 0.0
    transfer_count: int = 0
    queue_length: int = 0


@dataclass(frozen=True)
class HazardRecord:
    """One applied hazard event and its capacity delta.

    Serving results carry these through the cache and the JSON/CSV
    export path.  Gateway deltas are negative for failures and positive
    for repairs; ``wavelength_fraction`` is the hazard multiplier on
    every channel's comb after this event (1.0 = full comb).  ``end_s``
    is set for transient events.
    """

    kind: str
    start_s: float
    end_s: float | None = None
    memory_gateways_delta: int = 0
    chiplet_gateways_delta: int = 0
    wavelength_fraction: float = 1.0


@dataclass(frozen=True)
class NodeHazardRecord:
    """One applied node event and what the router did about it.

    Cluster results carry these through the cache and the JSON/CSV
    export path.  ``rerouted`` counts the queued requests withdrawn
    from the node and re-enqueued elsewhere (failures only; 0 for
    drains and repairs).
    """

    kind: str
    node: int
    at_s: float
    rerouted: int = 0

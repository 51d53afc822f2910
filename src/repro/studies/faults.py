"""Fault-section lowering: a spec's hazards onto engine timelines.

A :class:`~repro.studies.spec.FaultSpec` names its events by kind; this
module resolves each kind against the ``HAZARDS`` registry and hands
the events to the engine that applies them:

* a platform section splits between the photonic hazard engine (a
  :class:`~repro.interposer.photonic.faults.HazardTimeline` of fabric
  events) and the serving layer (compute-side ``chiplet-mac-degrade``
  events);
* a cluster section lowers onto the router's node events.

The compiler validates every fault section through it at lowering, and
the cells lower their fault fields through it when they run.  An empty
section lowers to nothing and loads no hazard layer; a kind's factory
loads its layer on first use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..names import COMPUTE_HAZARD_KINDS, NODE_HAZARD_KINDS
from .registry import HAZARDS
from .spec import ClusterSpec, FaultSpec

if TYPE_CHECKING:
    from ..cluster.hazards import NodeHazardEvent
    from ..interposer.photonic.faults import ChipletMacDegrade, HazardTimeline


def _refuse_node_kind(kind: str) -> None:
    """A platform fault section takes no node kind."""
    if kind in NODE_HAZARD_KINDS:
        raise ConfigurationError(
            f"hazard kind {kind!r} applies to cluster nodes; put it "
            "in cluster.faults (platform.faults takes fabric-level "
            "kinds)"
        )


def _refuse_other_kinds(kind: str) -> None:
    """A cluster fault section takes node kinds only."""
    if kind not in NODE_HAZARD_KINDS:
        layer = (
            "the compute path" if kind in COMPUTE_HAZARD_KINDS
            else "the photonic fabric"
        )
        raise ConfigurationError(
            f"hazard kind {kind!r} applies to {layer}; "
            "put it in platform.faults (cluster.faults takes "
            f"{', '.join(NODE_HAZARD_KINDS)})"
        )


def check_fault_kinds(faults: FaultSpec,
                      cluster: ClusterSpec | None = None) -> None:
    """Check that every event kind of a platform fault section (and of
    the cluster's) is registered and belongs in its section, against
    the static kind tables: no hazard layer loads."""
    for event in faults.events:
        HAZARDS.check(event.kind)
        _refuse_node_kind(event.kind)
    if cluster is not None:
        for event in cluster.faults.events:
            HAZARDS.check(event.kind)
            _refuse_other_kinds(event.kind)


def platform_timelines(
    faults: FaultSpec | None,
) -> tuple[HazardTimeline | None, tuple[ChipletMacDegrade, ...]]:
    """Lower a platform fault section onto its two hazard timelines.

    Resolves every event kind against the ``HAZARDS`` registry (typed
    did-you-mean errors) and runs the per-kind factory validation, so a
    malformed fault section fails at compile time — before any
    simulation.  Fabric events become a :class:`HazardTimeline` for the
    photonic hazard engine; compute events (``chiplet-mac-degrade``)
    are returned separately for the serving layer to drive through the
    schedulers' :class:`~repro.core.engine.ComputeOccupancy`.
    ``None``/empty lowers to ``(None, ())``.
    """
    if faults is None or not faults.events:
        return None, ()
    fabric = []
    compute = []
    for entry in faults.events:
        fields = entry.to_dict()
        kind = fields.pop("kind")
        factory = HAZARDS.get(kind)
        _refuse_node_kind(kind)
        event = factory(**fields)
        if kind in COMPUTE_HAZARD_KINDS:
            compute.append(event)
        else:
            fabric.append(event)
    if not fabric:
        return None, tuple(compute)
    from ..interposer.photonic.faults import HazardTimeline

    return HazardTimeline(tuple(fabric)), tuple(compute)


def hazard_timeline(faults: FaultSpec | None) -> HazardTimeline | None:
    """Lower a fault section for a study with no serving layer.

    Same validation as :func:`platform_timelines`, but compute-side
    kinds are rejected: without a serving layer nothing drives the
    chiplet occupancy they degrade, so accepting one would silently
    no-op (and still move the cache digest).
    """
    timeline, compute = platform_timelines(faults)
    if compute:
        raise ConfigurationError(
            f"hazard kind {compute[0].kind!r} applies to the serving "
            "compute path; it needs a serving study (nothing drives the "
            "chiplet MAC occupancy in a single-inference run)"
        )
    return timeline


def node_hazard_timeline(faults: FaultSpec | None
                         ) -> tuple[NodeHazardEvent, ...]:
    """Lower a cluster-level fault section onto typed node events.

    Every kind must be a node-level hazard; fabric and compute kinds
    belong in ``platform.faults`` and are rejected with a pointer there.
    ``None``/empty lowers to ``()``.
    """
    if faults is None or not faults.events:
        return ()
    events = []
    for entry in faults.events:
        fields = entry.to_dict()
        kind = fields.pop("kind")
        factory = HAZARDS.get(kind)
        _refuse_other_kinds(kind)
        events.append(factory(**fields))
    return tuple(events)

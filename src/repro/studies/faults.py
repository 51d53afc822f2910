"""Fault-section lowering: a spec's platform hazards onto engine timelines.

A :class:`~repro.studies.spec.FaultSpec` names its events by kind; this
module resolves each kind against the ``HAZARDS`` registry and splits
the events between the two engines that apply them: the photonic
hazard engine (a :class:`HazardTimeline` of fabric events) and the
serving layer (compute-side ``chiplet-mac-degrade`` events).  The
compiler validates every fault section through it at lowering, and the
inference and serving cells lower their ``faults`` field through it
when they run.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..interposer.photonic.faults import (
    COMPUTE_HAZARD_KINDS,
    ChipletMacDegrade,
    HazardTimeline,
)
from .registry import HAZARDS
from .spec import FaultSpec


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
    # Deferred: fault-free studies never load the cluster layer.
    from ..cluster.hazards import NODE_HAZARD_KINDS

    fabric = []
    compute = []
    for entry in faults.events:
        fields = entry.to_dict()
        kind = fields.pop("kind")
        factory = HAZARDS.get(kind)
        if kind in NODE_HAZARD_KINDS:
            raise ConfigurationError(
                f"hazard kind {kind!r} applies to cluster nodes; put it "
                "in cluster.faults (platform.faults takes fabric-level "
                "kinds)"
            )
        event = factory(**fields)
        if kind in COMPUTE_HAZARD_KINDS:
            compute.append(event)
        else:
            fabric.append(event)
    timeline = HazardTimeline(tuple(fabric)) if fabric else None
    return timeline, tuple(compute)


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

"""Cluster serving: a fleet of platform replicas behind a router.

Scales the single-node serving layer (:mod:`repro.serving`) out to N
platform replicas — each its own
:meth:`~repro.core.accelerator._PlatformBase.build_simulation` context,
all inside **one** shared :class:`~repro.sim.core.Environment` — behind
a :class:`~repro.cluster.router.ClusterRouter` that dispatches the
traffic-mix arrival stream via pluggable routing policies and survives
node-level hazards (:mod:`repro.cluster.hazards`).  The serving cell
(:class:`~repro.experiments.serving_study.ServingCell`) builds the
fleet whenever its ``replicas``/node fields call for one.
"""

from .hazards import (
    NODE_HAZARD_KINDS,
    NodeDrain,
    NodeFail,
    NodeHazardRecord,
    NodeRepair,
    node_hazard_timeline,
    validate_node_timeline,
)
from .router import (
    ROUTER_FACTORIES,
    ClusterNode,
    ClusterRouter,
    RoutingPolicy,
)

__all__ = [
    "ClusterNode",
    "ClusterRouter",
    "NODE_HAZARD_KINDS",
    "NodeDrain",
    "NodeFail",
    "NodeHazardRecord",
    "NodeRepair",
    "ROUTER_FACTORIES",
    "RoutingPolicy",
    "node_hazard_timeline",
    "validate_node_timeline",
]

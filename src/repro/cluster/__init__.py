"""Cluster serving: a fleet of platform replicas behind a router.

Scales the single-node serving layer (:mod:`repro.serving`) out to N
platform replicas — each its own
:meth:`~repro.core.accelerator._PlatformBase.build_simulation` context,
all inside **one** shared :class:`~repro.sim.core.Environment` — behind
a :class:`~repro.cluster.router.ClusterRouter` that dispatches the
traffic-mix arrival stream via pluggable routing policies and survives
node-level hazards (:mod:`repro.cluster.hazards`).  The serving cell
(:class:`~repro.experiments.serving_cell.ServingCell`) builds the
fleet whenever its ``replicas``/node fields call for one.
"""

from .. import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".hazards": (
        "NodeDrain",
        "NodeFail",
        "NodeHazardRecord",
        "NodeRepair",
        "validate_node_timeline",
    ),
    ".router": (
        "ROUTER_FACTORIES",
        "ClusterNode",
        "ClusterRouter",
        "RoutingPolicy",
    ),
})

"""Node-level hazards: whole accelerator nodes fail, drain and return.

The fabric-level hazard engine (:mod:`repro.interposer.photonic.faults`)
models resources dying *inside* one platform; at fleet scale the
dominant events are coarser — an entire node drops out (power, host,
link), is drained for maintenance, or rejoins after repair.  This
module models those as typed events on the **cluster** timeline:

* :class:`NodeFail`   — the node stops *receiving* at ``at_s``: the
  router stops routing to it and, with ``reroute_on_fail`` (the
  default), withdraws its queued-but-undispatched requests and
  re-enqueues them on surviving nodes, so only in-flight batches finish
  locally.  With rerouting disabled the accepted queue drains in place
  instead (graceful for accepted work, closed to new work — the same
  local behavior as a drain, but the requests are *not* moved).
* :class:`NodeDrain`  — graceful removal: no new requests, the queue
  drains in place.
* :class:`NodeRepair` — a failed or draining node returns to rotation.

The factories register under ``node-fail`` / ``node-drain`` /
``node-repair`` in the same ``HAZARD_FACTORIES`` dict the ``HAZARDS``
registry shares with the fabric-level kinds, so cluster fault sections
resolve through the one hazard namespace — and each layer rejects the
other layer's kinds instead of silently misapplying them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

from ..errors import ConfigurationError, UnknownNameError
from ..interposer.photonic.faults import (
    COMPUTE_HAZARD_KINDS,
    HAZARD_FACTORIES,
    _reject_inert,
)


@dataclass(frozen=True)
class NodeFail:
    """Node ``node`` stops serving at ``at_s`` (until a repair)."""

    at_s: float
    node: int

    kind: ClassVar[str] = "node-fail"


@dataclass(frozen=True)
class NodeDrain:
    """Node ``node`` stops accepting new requests at ``at_s``."""

    at_s: float
    node: int

    kind: ClassVar[str] = "node-drain"


@dataclass(frozen=True)
class NodeRepair:
    """Node ``node`` returns to the routing rotation at ``at_s``."""

    at_s: float
    node: int

    kind: ClassVar[str] = "node-repair"


@dataclass(frozen=True)
class RackFail:
    """A correlated outage: every node in ``nodes`` fails at ``at_s``.

    Models shared-fate failure domains — a rack losing power, a shared
    optical trunk, a power domain browning out — where nodes do not
    fail independently.  Semantically equivalent to simultaneous
    :class:`NodeFail` events on every member, applied atomically.
    """

    at_s: float
    nodes: tuple[int, ...]

    kind: ClassVar[str] = "rack-fail"


@dataclass(frozen=True)
class RackRepair:
    """The correlated group ``nodes`` returns to rotation at ``at_s``."""

    at_s: float
    nodes: tuple[int, ...]

    kind: ClassVar[str] = "rack-repair"


NodeHazardEvent = Union[NodeFail, NodeDrain, NodeRepair, RackFail,
                        RackRepair]
"""Any event a cluster hazard timeline can carry."""

NODE_HAZARD_KINDS = ("node-fail", "node-drain", "node-repair",
                     "rack-fail", "rack-repair")
"""Hazard kinds that apply to cluster nodes, not the photonic fabric."""


def event_nodes(event: NodeHazardEvent) -> tuple[int, ...]:
    """The node indices a cluster event addresses (group or single)."""
    if isinstance(event, (RackFail, RackRepair)):
        return event.nodes
    return (event.node,)


@dataclass(frozen=True)
class NodeHazardRecord:
    """One applied node event and what the router did about it.

    Plain picklable data: cluster results carry these through the
    cache and the JSON/CSV export path.  ``rerouted`` counts the
    queued requests withdrawn from the node and re-enqueued elsewhere
    (failures only; 0 for drains and repairs).
    """

    kind: str
    node: int
    at_s: float
    rerouted: int = 0


def node_outages(records: Sequence[NodeHazardRecord], n_nodes: int,
                 elapsed_s: float
                 ) -> tuple[tuple[tuple[int, float, float], ...], float]:
    """(out-of-rotation spans, availability) of one fleet run.

    ``records`` is the applied node-hazard stream, in time order (the
    router's, or the fluid engine's replayed walk).  A node is out of
    rotation from a fail or a drain to its next repair; a span still
    open at ``elapsed_s`` ends there.  Spans are ``(node, start_s,
    end_s)``, closed ones first.  Availability is the fraction of
    ``[0, elapsed_s]`` with at least one node up.  Probe ejections
    change neither: they only move the router's view of a node.
    """
    opened: dict[int, float] = {}
    spans: list[tuple[int, float, float]] = []
    downtime = 0.0
    down_since: float | None = None
    for record in records:
        if record.kind in ("node-fail", "rack-fail", "node-drain"):
            opened.setdefault(record.node, record.at_s)
        elif record.kind in ("node-repair", "rack-repair"):
            spans.append((record.node, opened.pop(record.node),
                          record.at_s))
        else:
            continue
        if len(opened) == n_nodes and down_since is None:
            down_since = record.at_s
        elif len(opened) < n_nodes and down_since is not None:
            downtime += record.at_s - down_since
            down_since = None
    spans.extend((node, start, elapsed_s) for node, start in opened.items())
    if down_since is not None:
        downtime += max(0.0, elapsed_s - down_since)
    if elapsed_s <= 0:
        return tuple(spans), 1.0
    return tuple(spans), max(0.0, 1.0 - downtime / elapsed_s)


# ---------------------------------------------------------------------------
# Event factories (HAZARDS registry entries for the node kinds).
# ---------------------------------------------------------------------------


def _make_node_event(cls, kind: str, at_s: float,
                     duration_s: float | None = None,
                     memory_gateways: int = 0,
                     chiplet_gateways=(),
                     temperature_rise_k: float = 0.0,
                     power_fraction: float = 1.0,
                     seed: int = 0,
                     node: int | None = None,
                     nodes=(),
                     mac_fraction: float = 1.0):
    # Fabric-only spec knobs would silently no-op on a node event (yet
    # still move cache digests): reject instead.
    _reject_inert(
        kind,
        duration_s=duration_s is not None,
        memory_gateways=memory_gateways != 0,
        chiplet_gateways=bool(chiplet_gateways),
        temperature_rise_k=temperature_rise_k != 0.0,
        power_fraction=power_fraction != 1.0,
        seed=seed != 0,
        nodes=bool(nodes),
        mac_fraction=mac_fraction != 1.0,
    )
    if node is None:
        raise ConfigurationError(
            f"{kind} at t={at_s}s needs a 'node' index"
        )
    if node < 0:
        raise ConfigurationError(
            f"{kind} node index must be >= 0, got {node}"
        )
    return cls(at_s=at_s, node=int(node))


def _make_rack_event(cls, kind: str, at_s: float,
                     duration_s: float | None = None,
                     memory_gateways: int = 0,
                     chiplet_gateways=(),
                     temperature_rise_k: float = 0.0,
                     power_fraction: float = 1.0,
                     seed: int = 0,
                     node: int | None = None,
                     nodes=(),
                     mac_fraction: float = 1.0):
    _reject_inert(
        kind,
        duration_s=duration_s is not None,
        memory_gateways=memory_gateways != 0,
        chiplet_gateways=bool(chiplet_gateways),
        temperature_rise_k=temperature_rise_k != 0.0,
        power_fraction=power_fraction != 1.0,
        seed=seed != 0,
        node=node is not None,
        mac_fraction=mac_fraction != 1.0,
    )
    if not nodes:
        raise ConfigurationError(
            f"{kind} at t={at_s}s needs a non-empty 'nodes' group "
            "(the correlated failure domain)"
        )
    members = tuple(int(index) for index in nodes)
    if any(index < 0 for index in members):
        raise ConfigurationError(
            f"{kind} node indices must be >= 0, got {list(members)}"
        )
    if len(set(members)) != len(members):
        raise ConfigurationError(
            f"{kind} at t={at_s}s names duplicate nodes: {list(members)}"
        )
    return cls(at_s=at_s, nodes=members)


def make_node_fail(at_s: float, **fields) -> NodeFail:
    """``node-fail`` factory: validates the generic spec field set."""
    return _make_node_event(NodeFail, "node-fail", at_s, **fields)


def make_node_drain(at_s: float, **fields) -> NodeDrain:
    """``node-drain`` factory."""
    return _make_node_event(NodeDrain, "node-drain", at_s, **fields)


def make_node_repair(at_s: float, **fields) -> NodeRepair:
    """``node-repair`` factory."""
    return _make_node_event(NodeRepair, "node-repair", at_s, **fields)


def make_rack_fail(at_s: float, **fields) -> RackFail:
    """``rack-fail`` factory (correlated multi-node outage)."""
    return _make_rack_event(RackFail, "rack-fail", at_s, **fields)


def make_rack_repair(at_s: float, **fields) -> RackRepair:
    """``rack-repair`` factory."""
    return _make_rack_event(RackRepair, "rack-repair", at_s, **fields)


NODE_HAZARD_FACTORIES = {
    "node-fail": make_node_fail,
    "node-drain": make_node_drain,
    "node-repair": make_node_repair,
    "rack-fail": make_rack_fail,
    "rack-repair": make_rack_repair,
}

for _kind, _factory in NODE_HAZARD_FACTORIES.items():
    # Shared namespace with the fabric kinds: the HAZARDS registry is
    # backed by this dict, so node kinds resolve everywhere specs do.
    HAZARD_FACTORIES.setdefault(_kind, _factory)


# ---------------------------------------------------------------------------
# Timeline lowering and validation.
# ---------------------------------------------------------------------------


def node_hazard_timeline(faults) -> tuple[NodeHazardEvent, ...]:
    """Lower a cluster-level fault section onto typed node events.

    ``faults`` is a :class:`~repro.studies.spec.FaultSpec` (or None).
    Every kind must be a node-level hazard; fabric kinds belong in
    ``platform.faults`` and are rejected with a pointer there.
    """
    if faults is None or not faults.events:
        return ()
    events = []
    for entry in faults.events:
        fields = entry.to_dict()
        kind = fields.pop("kind")
        factory = HAZARD_FACTORIES.get(kind)
        if factory is None:
            raise UnknownNameError(
                "hazard", kind, tuple(HAZARD_FACTORIES),
                registry="HAZARDS",
            )
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
        events.append(factory(**fields))
    return tuple(events)


def validate_node_timeline(events: tuple[NodeHazardEvent, ...],
                           n_nodes: int,
                           allow_total_outage: bool = False) -> None:
    """Walk a node timeline once: it must stay applicable throughout.

    Every event must address an existing node, transitions must be
    legal (no failing a failed node, no repairing a healthy one) and —
    mirroring the fabric engine's survivors rule — every instant must
    leave at least one node in the ``up`` state to route to.  With
    ``allow_total_outage`` (probe-based health-checked routing, where
    the router queues onto its stale view instead of raising) a
    correlated outage may take down the whole fleet.
    """
    states = ["up"] * n_nodes
    previous = 0.0
    for event in events:
        if event.at_s < previous:
            raise ConfigurationError(
                "node events must be listed chronologically: "
                f"{event.kind} at t={event.at_s}s follows t={previous}s"
            )
        previous = event.at_s
        for index in event_nodes(event):
            if index >= n_nodes:
                raise ConfigurationError(
                    f"{event.kind} at t={event.at_s}s names node "
                    f"{index} but the cluster has {n_nodes} node(s) "
                    f"(indices 0..{n_nodes - 1})"
                )
            state = states[index]
            if isinstance(event, (NodeFail, RackFail)):
                if state == "failed":
                    raise ConfigurationError(
                        f"{event.kind} at t={event.at_s}s: node {index} "
                        "is already failed"
                    )
                states[index] = "failed"
            elif isinstance(event, NodeDrain):
                if state != "up":
                    raise ConfigurationError(
                        f"node-drain at t={event.at_s}s: node {index} "
                        f"is {state}, only an up node can drain"
                    )
                states[index] = "draining"
            else:  # NodeRepair / RackRepair
                if state == "up":
                    raise ConfigurationError(
                        f"{event.kind} at t={event.at_s}s: node {index} "
                        "is already up"
                    )
                states[index] = "up"
        surviving = states.count("up")
        if surviving == 0 and not allow_total_outage:
            raise ConfigurationError(
                f"{event.kind} at t={event.at_s}s leaves no node up: "
                f"all {n_nodes} node(s) failed or draining (at least "
                "one must stay routable without probe-based health "
                "checking)"
            )

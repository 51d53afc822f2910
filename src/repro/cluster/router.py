"""Fleet routing: dispatch one arrival stream across N platform nodes.

A :class:`ClusterRouter` sits above the per-node
:class:`~repro.serving.scheduler.RequestScheduler`s: it consumes the
traffic-mix arrival process exactly like a single scheduler would, but
each request is first assigned to a node by a pluggable
:class:`RoutingPolicy`:

* ``round-robin``         — cycle over the routable nodes;
* ``least-outstanding``   — fewest accepted-but-uncompleted requests;
* ``weighted``            — capacity-proportional: the node furthest
  below its weight share of total dispatches goes next;
* ``join-shortest-queue`` — fewest requests waiting for dispatch
  (ignores in-flight work, the classic JSQ approximation);
* ``model-affinity``      — prefer nodes whose
  :class:`~repro.mapping.residency.WeightResidency` already holds the
  request's model (no re-fetch), least-outstanding among them.

The router also owns the **node-level hazard timeline**
(:mod:`repro.cluster.hazards`): failed and draining nodes leave the
routable set, a failure optionally withdraws the node's queued-but-
undispatched requests and re-enqueues them on survivors (original
arrival times preserved, so latency and SLO clocks keep running), and
repairs return nodes to rotation.  Everything runs inside one shared
:class:`~repro.sim.core.Environment`, so fleet results are exactly as
deterministic as single-node ones.

By default the router is **omniscient**: policies read live queue
depths and failures leave the routable set instantly.  A health-checked
resilience section (:class:`~repro.studies.spec.ResilienceSpec`, when
its ``health_checked`` holds) replaces that with a modeled signal path —
queue-depth signals sampled on a staleness interval (policies route on
the stale copy, so bursts misroute until the next sample) and
probe-based failure detection (a failed node keeps *receiving* until
``probe_misses`` consecutive probes fail and it is ejected; probes
succeeding after repair reinstate it).  Detection lag, misrouting and
true fleet-wide outages become visible, which is exactly what the
resilience layer (:mod:`repro.serving.lifecycle`) is there to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..core.accelerator import PlatformSimulation
from ..errors import ConfigurationError, SimulationError
from ..mapping.residency import WeightResidency
from ..serving.metrics import IncidentRecord
from ..serving.scheduler import RequestScheduler
from ..serving.window import ServingWindow
from .hazards import (
    NodeDrain,
    NodeFail,
    NodeHazardEvent,
    NodeHazardRecord,
    RackFail,
    event_nodes,
    validate_node_timeline,
)

if TYPE_CHECKING:
    from ..studies.spec import ResilienceSpec


@dataclass
class ClusterNode:
    """One platform replica behind the router.

    ``state`` is router-visible only: a ``failed`` node's scheduler
    keeps draining whatever it already accepted — in-flight batches,
    plus its queue unless the router withdrew it on failure — it just
    never receives another routed request until repaired.
    """

    index: int
    platform: object
    sim: PlatformSimulation
    scheduler: RequestScheduler
    residency: WeightResidency
    weight: float = 1.0
    state: str = "up"
    routed: int = 0
    rerouted_away: int = 0
    ejected: bool = False
    """Probe-based health checking withdrew the node from routing."""
    misses: int = 0
    """Consecutive failed probes (probe mode only)."""
    sampled_outstanding: int | None = None
    sampled_queue_length: int | None = None
    """Stale signal copies; ``None`` means live (omniscient) signals."""

    @property
    def name(self) -> str:
        return f"node{self.index}"

    @property
    def outstanding(self) -> int:
        if self.sampled_outstanding is not None:
            return self.sampled_outstanding
        return self.scheduler.outstanding

    @property
    def queue_length(self) -> int:
        if self.sampled_queue_length is not None:
            return self.sampled_queue_length
        return self.scheduler.queue_length

    def holds_model(self, model: str) -> bool:
        """Whether the node's weight store already has (or is fetching)
        this model's weights."""
        return self.residency.resident_bits_for(model) > 0.0


# ---------------------------------------------------------------------------
# Routing policies.
# ---------------------------------------------------------------------------


class RoutingPolicy:
    """Chooses a node for each request; stateless unless noted."""

    name = "routing-policy"

    def choose(self, candidates: list[ClusterNode],
               model: str) -> ClusterNode:
        """Pick one of ``candidates`` (non-empty, all routable)."""
        raise NotImplementedError


class RoundRobinRouting(RoutingPolicy):
    """Cycle over the routable nodes in index order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._dispatches = 0

    def choose(self, candidates: list[ClusterNode],
               model: str) -> ClusterNode:
        node = candidates[self._dispatches % len(candidates)]
        self._dispatches += 1
        return node


class LeastOutstandingRouting(RoutingPolicy):
    """Fewest accepted-but-uncompleted requests (ties: lowest index)."""

    name = "least-outstanding"

    def choose(self, candidates: list[ClusterNode],
               model: str) -> ClusterNode:
        return min(candidates, key=lambda n: (n.outstanding, n.index))


class WeightedRouting(RoutingPolicy):
    """Capacity-proportional dispatch.

    The node whose dispatch count is furthest below its weight share
    goes next — deterministic smooth weighted round-robin, no RNG.
    """

    name = "weighted"

    def choose(self, candidates: list[ClusterNode],
               model: str) -> ClusterNode:
        return min(candidates,
                   key=lambda n: (n.routed / n.weight, n.index))


class JoinShortestQueueRouting(RoutingPolicy):
    """Fewest requests waiting for dispatch (ties: lowest index)."""

    name = "join-shortest-queue"

    def choose(self, candidates: list[ClusterNode],
               model: str) -> ClusterNode:
        return min(candidates, key=lambda n: (n.queue_length, n.index))


class ModelAffinityRouting(RoutingPolicy):
    """Prefer nodes already holding the request's weights.

    Among the nodes where the model is resident (no weight re-fetch,
    per-node :class:`~repro.mapping.residency.WeightResidency`), pick
    the least-outstanding; when no node holds the model yet, fall back
    to least-outstanding overall — which then *becomes* an affinity
    node for the model's later requests.
    """

    name = "model-affinity"

    def choose(self, candidates: list[ClusterNode],
               model: str) -> ClusterNode:
        resident = [n for n in candidates if n.holds_model(model)]
        pool = resident or candidates
        return min(pool, key=lambda n: (n.outstanding, n.index))


def _require_no_weights(name: str, n_nodes: int,
                        weights: tuple[float, ...]) -> None:
    if weights:
        raise ConfigurationError(
            f"router {name!r} ignores per-node weights; "
            "use the 'weighted' router or drop cluster.weights"
        )


def _make_round_robin(n_nodes: int, weights=()) -> RoutingPolicy:
    _require_no_weights("round-robin", n_nodes, weights)
    return RoundRobinRouting()


def _make_least_outstanding(n_nodes: int, weights=()) -> RoutingPolicy:
    _require_no_weights("least-outstanding", n_nodes, weights)
    return LeastOutstandingRouting()


def _make_weighted(n_nodes: int, weights=()) -> RoutingPolicy:
    if len(weights) != n_nodes:
        raise ConfigurationError(
            f"the weighted router needs one weight per node: got "
            f"{len(weights)} weight(s) for {n_nodes} node(s)"
        )
    if any(weight <= 0 for weight in weights):
        raise ConfigurationError(
            f"node weights must be positive, got {list(weights)}"
        )
    return WeightedRouting()


def _make_jsq(n_nodes: int, weights=()) -> RoutingPolicy:
    _require_no_weights("join-shortest-queue", n_nodes, weights)
    return JoinShortestQueueRouting()


def _make_model_affinity(n_nodes: int, weights=()) -> RoutingPolicy:
    _require_no_weights("model-affinity", n_nodes, weights)
    return ModelAffinityRouting()


ROUTER_FACTORIES: dict[str, Callable[..., RoutingPolicy]] = {
    "round-robin": _make_round_robin,
    "least-outstanding": _make_least_outstanding,
    "weighted": _make_weighted,
    "join-shortest-queue": _make_jsq,
    "model-affinity": _make_model_affinity,
}
"""Routing-policy factories ``(n_nodes, weights) -> policy``.  The
``ROUTERS`` registry (:mod:`repro.studies.registry`) shares this dict,
so externally registered routers are buildable from JSON specs."""


# ---------------------------------------------------------------------------
# The router.
# ---------------------------------------------------------------------------


class ClusterRouter(ServingWindow):
    """Streams one arrival process across a fleet of nodes.

    Build one per cluster simulation: it owns the routing policy, the
    node states, the node-level hazard timeline and the fleet-level
    drain barrier.  ``t=0`` node events apply synchronously at
    construction (mirroring the fabric hazard engine); later events run
    as an ordinary process in the shared environment.

    ``health`` is the study's resilience section when it models the
    signal path (``None``: omniscient); the router reads its
    ``signal_staleness_s``, ``probe_interval_s`` and ``probe_misses``.
    """

    def __init__(self, nodes: list[ClusterNode], policy: RoutingPolicy,
                 node_events: tuple[NodeHazardEvent, ...] = (),
                 reroute_on_fail: bool = True,
                 health: ResilienceSpec | None = None):
        if not nodes:
            raise ConfigurationError("a cluster needs at least one node")
        super().__init__(nodes[0].sim.env)
        for node in nodes:
            if node.sim.env is not self.env:
                raise ConfigurationError(
                    f"{node.name} lives in a different Environment; "
                    "all cluster nodes must share one"
                )
        self.health = health
        self._probe_based = (
            health is not None and health.probe_interval_s is not None
        )
        validate_node_timeline(node_events, len(nodes),
                               allow_total_outage=self._probe_based)
        self.nodes = nodes
        self.policy = policy
        self.node_events = node_events
        self.reroute_on_fail = reroute_on_fail
        self.records: list[NodeHazardRecord] = []
        # Telemetry hook (attached post-construction by the study
        # layer): routing decisions land as instants on a shared
        # ``router`` track; ``None`` keeps the classic path untouched.
        self.obs_trace = None
        self.requests_routed = 0
        self.requests_rerouted = 0
        self._closed = 0
        self._open_incidents: dict[int, dict] = {}
        self._incidents: list[IncidentRecord] = []
        for node in nodes:
            node.scheduler.on_request_closed = self._request_closed
        if health is not None and health.signal_staleness_s > 0.0:
            for node in nodes:
                node.sampled_outstanding = 0
                node.sampled_queue_length = 0
            self.env.process(self._sample_signals())
        if self._probe_based:
            for node in nodes:
                self.env.process(self._probe_node(node))
        pending = []
        for event in node_events:
            if event.at_s <= 0.0:
                self._apply(event)
            else:
                pending.append(event)
        if pending:
            self.env.process(self._run_events(pending))

    # -- routing ------------------------------------------------------------------

    def routable_nodes(self) -> list[ClusterNode]:
        """Nodes the router *believes* accept new requests, index order.

        Omniscient mode: exactly the ``up`` nodes.  Probe mode: every
        non-ejected, non-draining node — a freshly failed node keeps
        receiving until the probes catch up (drains are control-plane
        operations the router always knows instantly).
        """
        if self._probe_based:
            return [
                node for node in self.nodes
                if not node.ejected and node.state != "draining"
            ]
        return [node for node in self.nodes if node.state == "up"]

    def _choose(self, model: str | None,
                exclude: tuple[int, ...] = ()) -> ClusterNode:
        candidates = self.routable_nodes()
        if exclude:
            # Hedged attempts want a *different* node; fall back to the
            # full routable set when exclusion would empty it.
            filtered = [
                node for node in candidates if node.index not in exclude
            ]
            candidates = filtered or candidates
        if not candidates:
            if self._probe_based:
                # Everyone is ejected: the router must still park the
                # request somewhere — queue it on a non-draining node
                # and let repairs (or retries/hedges) rescue it.
                candidates = [
                    node for node in self.nodes
                    if node.state != "draining"
                ] or self.nodes
            else:
                # The timeline validator forbids event sequences that
                # kill every node, so this is an internal invariant
                # violation.
                raise SimulationError(
                    f"no routable node at t={self.env.now}s"
                )
        name = (
            model if model is not None
            else self.nodes[0].scheduler.model_name
        )
        return self.policy.choose(candidates, name)

    def submit(self, done=None, model: str | None = None,
               arrival_s: float | None = None,
               exclude: tuple[int, ...] = ()):
        """Route one request to a node and enqueue it there.

        The fleet-level twin of
        :meth:`~repro.serving.scheduler.RequestScheduler.submit`
        (same duck-typed surface, so the resilience lifecycle drives
        either).  ``exclude`` biases placement away from the named node
        indices — hedged attempts use it to land on a different node.
        """
        node = self._choose(model, exclude)
        handle = node.scheduler.submit(
            done=done, model=model, arrival_s=arrival_s
        )
        handle.node = node.index
        node.routed += 1
        self.requests_routed += 1
        if self.obs_trace is not None and self.obs_trace.sampled(
            handle.request_id
        ):
            self.obs_trace.instant(
                "router", "route",
                args={"node": node.index, "request": handle.request_id},
            )
        return handle

    def cancel(self, handle) -> bool:
        """Withdraw a queued request wherever it currently waits.

        True when some node's scheduler still held it undispatched;
        the routed-request count rolls back so the fleet drain barrier
        never waits on a request nobody will run.
        """
        for node in self.nodes:
            if node.scheduler.cancel(handle):
                self.requests_routed -= 1
                return True
        return False

    def _reroute(self, handle, from_node: ClusterNode) -> None:
        """Re-enqueue an evicted request, preserving its arrival time."""
        node = self._choose(handle.model, exclude=(from_node.index,))
        new_handle = node.scheduler.submit(
            done=handle.done, model=handle.model,
            arrival_s=handle.submit_s,
        )
        new_handle.node = node.index
        handle.node = node.index
        node.routed += 1
        from_node.rerouted_away += 1
        self.requests_rerouted += 1
        if self.obs_trace is not None:
            self.obs_trace.instant(
                "router", "reroute",
                args={"from": from_node.index, "to": node.index},
            )

    # -- modeled signal path (health checking) ------------------------------------

    def _sample_signals(self):
        """Copy live queue signals into the sampled view on a period."""
        staleness = self.health.signal_staleness_s
        while True:
            for node in self.nodes:
                node.sampled_outstanding = node.scheduler.outstanding
                node.sampled_queue_length = node.scheduler.queue_length
            yield self.env.timeout(staleness)

    def _probe_node(self, node: ClusterNode):
        """Periodic liveness probe: eject after K misses, reinstate on
        the first success after repair."""
        misses_needed = self.health.probe_misses
        while True:
            yield self.env.timeout(self.health.probe_interval_s)
            if node.state == "failed":
                node.misses += 1
                if node.misses >= misses_needed and not node.ejected:
                    self._eject(node)
            else:
                node.misses = 0
                if node.ejected:
                    node.ejected = False

    def _eject(self, node: ClusterNode) -> None:
        """Probes confirmed the failure: withdraw the node from routing
        and move its stranded queue to nodes still believed healthy."""
        node.ejected = True
        incident = self._open_incidents.get(node.index)
        if incident is not None and incident["detected_s"] is None:
            incident["detected_s"] = self.env.now
        rerouted = 0
        if self.reroute_on_fail:
            survivors = [
                peer for peer in self.routable_nodes()
                if peer.index != node.index
            ]
            if survivors:
                evicted = node.scheduler.evict_queued()
                for handle in evicted:
                    self._reroute(handle, node)
                rerouted = len(evicted)
        self.records.append(NodeHazardRecord(
            kind="node-eject", node=node.index, at_s=self.env.now,
            rerouted=rerouted,
        ))
        if self.obs_trace is not None:
            self.obs_trace.instant(
                "router", "eject",
                args={"node": node.index, "rerouted": rerouted},
            )

    # -- incidents ----------------------------------------------------------------

    def _open_incident(self, node: ClusterNode) -> None:
        if node.index in self._open_incidents:
            return
        self._open_incidents[node.index] = {
            "start_s": self.env.now,
            # Omniscient routing detects instantly; probe mode leaves
            # detection to the ejection path.
            "detected_s": None if self._probe_based else self.env.now,
        }

    def _close_incident(self, node: ClusterNode) -> None:
        incident = self._open_incidents.pop(node.index, None)
        if incident is None:
            return
        self._incidents.append(IncidentRecord(
            node=node.index,
            start_s=incident["start_s"],
            detected_s=incident["detected_s"],
            end_s=self.env.now,
        ))

    def incidents(self) -> tuple[IncidentRecord, ...]:
        """Every incident so far, resolved first, unresolved still open."""
        open_records = tuple(
            IncidentRecord(
                node=index,
                start_s=incident["start_s"],
                detected_s=incident["detected_s"],
            )
            for index, incident in sorted(self._open_incidents.items())
        )
        return (
            tuple(sorted(self._incidents, key=lambda i: (i.start_s, i.node)))
            + open_records
        )

    # -- node hazards -------------------------------------------------------------

    def _apply(self, event: NodeHazardEvent) -> None:
        for index in event_nodes(event):
            node = self.nodes[index]
            rerouted = 0
            if isinstance(event, (NodeFail, RackFail)):
                node.state = "failed"
                self._open_incident(node)
                if self._probe_based:
                    # The router does not know yet; the node's scheduler
                    # pauses (a dead node dispatches nothing) and its
                    # queue strands until probes trigger the ejection.
                    node.scheduler.pause()
                elif self.reroute_on_fail:
                    evicted = node.scheduler.evict_queued()
                    for handle in evicted:
                        self._reroute(handle, node)
                    rerouted = len(evicted)
            elif isinstance(event, NodeDrain):
                node.state = "draining"
            else:  # NodeRepair / RackRepair
                node.state = "up"
                if self._probe_based:
                    node.scheduler.resume()
                self._close_incident(node)
            self.records.append(NodeHazardRecord(
                kind=event.kind, node=index, at_s=self.env.now,
                rerouted=rerouted,
            ))
            if self.obs_trace is not None:
                self.obs_trace.instant(
                    "router", event.kind, args={"node": index}
                )

    def _run_events(self, pending: list[NodeHazardEvent]):
        for event in pending:
            delay = event.at_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._apply(event)

    # -- fleet drain barrier ------------------------------------------------------

    def _request_closed(self, handle) -> None:
        self._closed += 1
        self._check_drained()

    def _drain_counts(self) -> tuple[int, int]:
        """Fleet-level tally: a routed request counts once it closes on
        *any* node, so requests re-enqueued after a mid-drain node
        failure are still waited on."""
        return self._closed, self.requests_routed

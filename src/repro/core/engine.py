"""Discrete-event inference engine.

Executes mapped DNN workloads over an interposer fabric, layer by
layer, with the dataflow of Section V:

1. weights for the next layer prefetch while the current layer runs,
2. input activations are read from the memory chiplet (multicast to
   every chiplet hosting the layer),
3. each chiplet computes its work share, streaming: compute finishes no
   earlier than its inputs and no earlier than its pure compute time,
4. outputs are written back to memory; the next layer starts when all
   writes land and its weights are present.

Execution is **request-scoped**: a :class:`RequestExecution` drives one
(batched) inference as a chain of kernel callbacks — no process, no
barrier events — so any number of requests can be in flight
concurrently over one shared fabric, which is what the serving layer
(:mod:`repro.serving`) does.  The classic single-inference
:class:`InferenceEngine` is the trivial one-request case.

Each execution records per-layer timings and the lane-operation counts
the energy model needs into an :class:`ExecutionTrace`; concurrent
requests may share one trace (operation counters simply accumulate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import PlatformConfig
from ..errors import SimulationError
from ..interposer.base import InterposerFabric
from ..mapping.mapper import Allocation, LayerMapping, ModelMapping
from ..mapping.residency import WeightResidency, fetch_layer_weights
from ..sim.core import Environment, Event
from ..sim.resources import ChannelStat, Resource
from .metrics import LayerTiming


@dataclass
class ExecutionTrace:
    """Mutable accounting collected during a run.

    One trace may be shared by many concurrent request executions: the
    operation counters accumulate across requests (that is what the
    compute-energy model integrates) and ``layer_timings`` interleaves
    in completion order.
    """

    layer_timings: list[LayerTiming] = field(default_factory=list)
    lane_ops_by_kind: dict[str, int] = field(default_factory=dict)
    vector_ops_by_kind: dict[str, int] = field(default_factory=dict)
    channel_stats: tuple[ChannelStat, ...] = ()
    """End-of-run utilization snapshot of every fabric channel (filled
    by the platform once the simulation completes)."""

    @property
    def total_lane_ops(self) -> int:
        return sum(self.lane_ops_by_kind.values())

    @property
    def total_vector_ops(self) -> int:
        return sum(self.vector_ops_by_kind.values())

    def record_channel_stats(self, fabric: InterposerFabric) -> None:
        """Snapshot the fabric's channel utilization into the trace."""
        self.channel_stats = fabric.channel_stats()


class ComputeOccupancy:
    """Per-chiplet MAC-array occupancy shared by concurrent requests.

    A single inference owns every chiplet it maps to, so the one-shot
    path needs no compute arbitration — but overlapping requests must
    serialize on each chiplet's MAC array.  One unit-capacity
    :class:`Resource` per chiplet (created lazily) models that: a
    chiplet works on one request's layer share at a time, and compute
    queueing emerges alongside the fabric's bandwidth contention.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._resources: dict[str, Resource] = {}
        self.mac_fraction = 1.0

    def set_mac_fraction(self, fraction: float) -> None:
        """Scale every chiplet's sustainable MAC rate (compute hazard).

        ``fraction`` is the remaining throughput share in ``(0, 1]``;
        compute time for batches dispatched while it is below 1.0
        stretches by ``1/fraction``.  The serving layer drives this
        from ``chiplet-mac-degrade`` hazard events.
        """
        if not 0.0 < fraction <= 1.0:
            raise SimulationError(
                f"MAC fraction must be in (0, 1], got {fraction}"
            )
        self.mac_fraction = fraction

    def resource(self, chiplet_id: str) -> Resource:
        """The chiplet's occupancy semaphore (lazily created)."""
        resource = self._resources.get(chiplet_id)
        if resource is None:
            resource = Resource(self.env, capacity=1)
            self._resources[chiplet_id] = resource
        return resource

    def utilization(self, chiplet_id: str) -> float:
        """Busy fraction of one chiplet (0.0 if it never computed)."""
        resource = self._resources.get(chiplet_id)
        return resource.utilization() if resource is not None else 0.0

    def mean_utilization(self) -> float:
        """Average busy fraction across chiplets that ever computed."""
        if not self._resources:
            return 0.0
        return sum(
            resource.utilization() for resource in self._resources.values()
        ) / len(self._resources)


class _Share:
    """One chiplet's work share of the current layer, as a callback chain.

    MAC grant -> compute timeout -> input arrival -> output write; each
    step is the callback of the one before, and the last one ticks the
    execution's layer countdown.
    """

    __slots__ = ("execution", "alloc", "occupancy", "compute_s")

    def __init__(self, execution: "RequestExecution", alloc: Allocation,
                 occupancy: Resource | None, compute_s: float):
        self.execution = execution
        self.alloc = alloc
        self.occupancy = occupancy
        self.compute_s = compute_s

    def granted(self) -> None:
        self.execution.env.timeout(self.compute_s).callbacks = self.computed

    def computed(self, _event: Event) -> None:
        # Streaming: compute completes when both its own duration has
        # elapsed and the input stream has fully arrived.
        input_done = self.execution._input_done
        if input_done._processed:
            self.arrived(input_done)
        else:
            input_done._add_callback(self.arrived)

    def arrived(self, _event: Event) -> None:
        execution = self.execution
        alloc = self.alloc
        if self.occupancy is not None:
            self.occupancy.release()
        now = execution.env.now
        if now > execution._compute_done_s:
            execution._compute_done_s = now
        batch_size = execution.batch_size
        trace = execution.trace
        kind = alloc.kind
        trace.lane_ops_by_kind[kind] = (
            trace.lane_ops_by_kind.get(kind, 0) + alloc.lane_ops * batch_size
        )
        trace.vector_ops_by_kind[kind] = (
            trace.vector_ops_by_kind.get(kind, 0)
            + alloc.vector_ops * batch_size
        )
        if alloc.output_bits > 0:
            execution.fabric.write(
                alloc.chiplet_id, alloc.output_bits * batch_size
            )._add_callback(execution._share_done)
        else:
            execution._share_done()


class RequestExecution:
    """One in-flight (batched) inference request over a shared fabric.

    Re-entrant by construction: every piece of per-inference state lives
    on the instance, so any number of executions can run concurrently in
    a single :class:`Environment` over one :class:`InterposerFabric` —
    contention between them emerges from the fabric's shared channels.

    The execution is a callback state machine with no process of its
    own: a layer starts once its weights are present, runs one
    :class:`_Share` per allocation, and ends when a countdown of those
    shares reaches zero; the event :meth:`start` returns fires after
    the last layer.

    ``residency`` (optional) makes weights **model-resident**: the first
    request for a model fetches each layer's weights once and every
    overlapping or later request waits on (or skips past) that same
    fetch instead of re-streaming them.  Without a residency store the
    execution fetches weights itself — the classic cold-fabric
    single-inference behaviour.
    """

    def __init__(
        self,
        env: Environment,
        config: PlatformConfig,
        fabric: InterposerFabric,
        mapping: ModelMapping,
        trace: ExecutionTrace,
        mac_rate_hz: float | None = None,
        batch_size: int = 1,
        residency: WeightResidency | None = None,
        compute: ComputeOccupancy | None = None,
        model_name: str = "",
        record_timings: bool = True,
        obs: "object | None" = None,
        obs_track: str = "",
    ):
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        self.env = env
        self.config = config
        self.fabric = fabric
        self.mapping = mapping
        self.trace = trace
        self.mac_rate_hz = mac_rate_hz or config.mac_rate_hz
        self.batch_size = batch_size
        self.residency = residency
        self.compute = compute
        self.model_name = model_name
        self.record_timings = record_timings
        # Telemetry: per-layer spans land on ``obs_track`` of the span
        # recorder when one is attached (sampled request under an armed
        # telemetry section); ``None`` costs one comparison per layer.
        self.obs = obs
        self.obs_track = obs_track
        # Run state: the current layer, the weight barrier of the layer
        # opening next, the current input read, the shares still
        # running and the current layer's timeline marks.
        self._layers = mapping.layers
        self._index = 0
        self._weights: Event | None = None
        self._input_done: Event | None = None
        self._pending = 0
        self._start_s = 0.0
        self._compute_done_s = 0.0
        self._done: Event | None = None

    def start(self) -> Event:
        """Launch the execution; the returned event fires on completion."""
        done = self._done = Event(self.env)
        layers = self._layers
        if not layers:
            return done.succeed()
        self._weights = self._fetch_weights(layers[0])
        self._await_weights()
        return done

    # -- internals ------------------------------------------------------------------

    def _fetch_weights(self, layer_mapping: LayerMapping) -> Event:
        """Weight-transfer barrier for one layer.

        Resident mode delegates to the residency store (fetch once per
        model, share the barrier); otherwise the execution fetches the
        layer's weights itself.
        """
        if self.residency is not None:
            return self.residency.acquire(
                self.model_name, layer_mapping, self.fabric
            )
        return fetch_layer_weights(self.fabric, layer_mapping)

    def _await_weights(self) -> None:
        """Open the current layer: wait for its weights, then run it."""
        self._start_s = self.env.now
        if self.obs is not None:
            self.obs.begin(
                self.obs_track,
                f"weights:{self._layers[self._index].layer.name}",
            )
        ready = self._weights
        if ready._processed:
            self._run_layer(ready)
        else:
            ready._add_callback(self._run_layer)

    def _run_layer(self, _event: Event) -> None:
        if self.obs is not None:
            self.obs.end(self.obs_track)
        index = self._index
        layers = self._layers
        layer_mapping = layers[index]
        # Prefetch the next layer's weights concurrently.
        if index + 1 < len(layers):
            self._weights = self._fetch_weights(layers[index + 1])

        # Input activations: one multicast read to all host chiplets.
        # Layer-major batching: the whole batch's activations stream
        # while the layer's weights stay resident (fetched once).
        chiplet_ids = layer_mapping.chiplet_ids
        self._input_done = self.fabric.read(
            chiplet_ids[0],
            layer_mapping.layer.input_bits * self.batch_size,
            multicast=chiplet_ids,
        )
        self._compute_done_s = 0.0
        allocations = layer_mapping.allocations
        self._pending = len(allocations)
        compute = self.compute
        for alloc in allocations:
            compute_s = (
                alloc.vector_ops * self.batch_size
                / (alloc.n_macs * self.mac_rate_hz)
            )
            if compute is None:
                _Share(self, alloc, None, compute_s).granted()
                continue
            if compute.mac_fraction < 1.0:
                # Compute-side hazard: the MAC arrays sustain only a
                # fraction of nominal throughput while degraded.
                compute_s /= compute.mac_fraction
            # Concurrent-request mode: the chiplet's MAC array works on
            # one request's layer share at a time.  The occupancy spans
            # the streaming window (max of input arrival and compute),
            # the same interval the one-request timeline attributes to
            # the chiplet.
            occupancy = compute.resource(alloc.chiplet_id)
            share = _Share(self, alloc, occupancy, compute_s)
            occupancy.acquire(share.granted)
        if self.obs is not None:
            self.obs.begin(
                self.obs_track,
                f"layer:{layer_mapping.layer.name}",
                args={"chiplets": len(allocations)},
            )

    def _share_done(self, _event: Event | None = None) -> None:
        """Count one share out; the last one closes the layer."""
        self._pending -= 1
        if self._pending:
            return
        if self.obs is not None:
            self.obs.end(self.obs_track)
        index = self._index
        if self.record_timings:
            layer_mapping = self._layers[index]
            self.trace.layer_timings.append(
                # A share's compute ends only once its input has
                # arrived, so the layer's two marks coincide.
                LayerTiming(
                    name=layer_mapping.layer.name,
                    start_s=self._start_s,
                    input_ready_s=self._compute_done_s,
                    compute_done_s=self._compute_done_s,
                    end_s=self.env.now,
                    chiplets=layer_mapping.chiplet_ids,
                    vector_ops=layer_mapping.total_vector_ops,
                )
            )
        if index + 1 == len(self._layers):
            self._done.succeed()
            return
        self._index = index + 1
        self._await_weights()


class InferenceEngine:
    """Drives one inference through the fabric: the one-request case.

    Thin wrapper over :class:`RequestExecution` kept for the classic
    single-inference experiments: one execution with no residency
    store and no compute arbitration, run until it completes.
    """

    def __init__(
        self,
        env: Environment,
        config: PlatformConfig,
        fabric: InterposerFabric,
        mac_rate_hz: float | None = None,
        batch_size: int = 1,
    ):
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        self.env = env
        self.config = config
        self.fabric = fabric
        self.mac_rate_hz = mac_rate_hz or config.mac_rate_hz
        self.batch_size = batch_size
        self.trace = ExecutionTrace()

    # -- public API --------------------------------------------------------------

    def run(self, mapping: ModelMapping, time_limit_s: float = 100.0) -> float:
        """Execute the mapped workload; returns the completion time (s).

        ``time_limit_s`` is a simulated-time hang guard (perpetual
        controller processes keep the event queue alive forever).
        """
        execution = RequestExecution(
            self.env, self.config, self.fabric, mapping, self.trace,
            mac_rate_hz=self.mac_rate_hz, batch_size=self.batch_size,
        )
        done = execution.start()
        self.env.run_until_event(done, limit=time_limit_s)
        return self.env.now

"""Request admission, dispatch ordering and dynamic batching.

The scheduler closes the loop between an arrival process
(:mod:`repro.sim.traffic`) and the re-entrant execution path
(:class:`~repro.core.engine.RequestExecution`): requests queue as they
arrive, a dispatcher groups them according to the study's scheduler
section (:class:`~repro.studies.spec.SchedulerSpec`), and each group
executes as one batched inference over the platform's **shared**
fabric — weights stay resident per model
(:class:`~repro.mapping.residency.WeightResidency`), activations stream
per request, and contention between overlapping requests emerges from
the fabric's channels.

Several models can be served from one fabric: register extra tenants
with :meth:`RequestScheduler.add_model` and tag submissions with a
model name.  Batches never mix models (one batched inference is one
model), and per-model latency SLOs assign every request a deadline at
submission.

Five policies (:data:`~repro.studies.spec.SCHEDULER_POLICIES`):

* ``fifo``      — every request dispatches alone, in arrival order;
  ``max_inflight`` caps concurrent executions (admission control).
* ``max-batch`` — the dispatcher opens a batch when an execution slot
  is free, then gathers up to ``max_batch`` same-model requests or
  until ``batch_timeout_s`` elapses since the batch opened, whichever
  is first — classic dynamic batching with a latency bound.
* ``edf``       — earliest-deadline-first: single-request dispatch
  ordered by assigned deadline (no-SLO requests go last, FIFO among
  themselves).
* ``priority``  — single-request dispatch ordered by the submitting
  model's priority (higher first), FIFO within a priority level.  An
  optional ``starvation_age_s`` guard promotes the oldest queued
  request ahead of the priority order once it has waited that long.
* ``continuous`` — continuous batching for autoregressive (sequence)
  requests: each admitted sequence prefills alone, then joins the
  model's *running decode batch*; sequences join and leave the batch
  at decode-step boundaries, and the decode mapping is re-derived per
  batch width (``max_batch`` caps the width).  Single-shot requests
  under this policy dispatch alone, like ``fifo``.

A *sequence* request (``output_tokens > 0`` at submission) runs as one
prefill pass over its prompt followed by dependent decode steps; its
KV cache reserves residency capacity for the whole generation at
admission (:class:`~repro.mapping.residency.KVCacheResidency`) and is
released at completion.

Any policy can additionally set ``shed_expired``: requests whose
deadline has already passed when they are selected for dispatch are
shed — they complete immediately as dropped (the closed-loop client
moves on) and count as SLO violations instead of occupying the fabric.
Per-model admission ``quota``\\ s cap outstanding requests per tenant:
submissions over quota are shed immediately and counted per model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..core.accelerator import PlatformSimulation
from ..core.engine import ComputeOccupancy, ExecutionTrace, RequestExecution
from ..dnn.workload import decode_workload, widened_workload
from ..errors import ConfigurationError, UnknownNameError
from ..mapping.mapper import ModelMapping
from ..mapping.residency import KVCacheResidency, WeightResidency
from ..sim.core import Event
from ..sim.resources import Resource
from ..studies.spec import SchedulerSpec
from .metrics import RequestRecord
from .window import ServingWindow

@dataclass
class RequestHandle:
    """Public handle for one submitted request.

    Returned by :meth:`RequestScheduler.submit`: carries the submit
    time, the model the request targets, the deadline assigned from the
    model's SLO (``None`` when the model has none) and the optional
    completion event the submitter may wait on.  ``node`` is the
    cluster node index the router placed the request on (``None`` on a
    single-node scheduler); ``dropped`` flips when the scheduler sheds
    the request, so a waiter on ``done`` can tell shed from served;
    ``record`` is the closing :class:`RequestRecord` once one exists.
    """

    request_id: int
    model: str
    submit_s: float
    deadline_s: float | None = None
    done: Event | None = field(default=None)
    node: int | None = None
    dropped: bool = False
    record: RequestRecord | None = None
    prompt_tokens: int = 0
    output_tokens: int = 0
    tokens_done: int = 0
    dispatch_s: float | None = None
    first_token_s: float | None = None
    token_times: list[float] = field(default_factory=list)

    @property
    def is_sequence(self) -> bool:
        """Whether this request runs as prefill + decode steps."""
        return self.output_tokens > 0

    @property
    def arrival_s(self) -> float:
        """Alias: submission is arrival, in scheduler terms."""
        return self.submit_s

    def remaining_s(self, now: float) -> float:
        """Time left until the deadline, clamped at zero.

        Backdated arrivals (a request rerouted after a node failure
        keeps its original ``arrival_s``) can place the deadline in the
        past, so the raw difference may be negative — and a negative
        value handed to a timer would crash the kernel's backwards-time
        guard.  ``inf`` when the request has no deadline.
        """
        if self.deadline_s is None:
            return float("inf")
        return max(0.0, self.deadline_s - now)


@dataclass(frozen=True)
class _ModelEntry:
    """One served model: its mapping and service-level parameters."""

    name: str
    mapping: ModelMapping
    slo_s: float | None = None
    priority: int = 0
    quota: int | None = None


class RequestScheduler(ServingWindow):
    """Streams requests from an arrival process through a platform.

    Build one per serving simulation: it owns the queue, the dispatcher
    process, the admission semaphore, the per-request records (for
    latency aggregation) and the shared :class:`ExecutionTrace` that
    accumulates operation counts (for the energy ledger).  ``policy``
    is the validated scheduler section; the default is plain ``fifo``.
    """

    def __init__(
        self,
        sim: PlatformSimulation,
        mapping: ModelMapping,
        model_name: str,
        policy: SchedulerSpec = SchedulerSpec(),
        residency: WeightResidency | None = None,
        trace: ExecutionTrace | None = None,
        slo_s: float | None = None,
        priority: int = 0,
        quota: int | None = None,
    ):
        super().__init__(sim.env)
        self.sim = sim
        self.mapping = mapping
        self.model_name = model_name
        self.policy = policy
        self.residency = (
            residency if residency is not None
            else WeightResidency(sim.env)
        )
        self.trace = trace or ExecutionTrace()
        self.compute = ComputeOccupancy(sim.env)
        self._models: dict[str, _ModelEntry] = {}
        self._register(model_name, mapping, slo_s, priority, quota)

        self._queue: deque[RequestHandle] = deque()
        self._arrival_signal: Event | None = None
        self._admission = Resource(sim.env,
                                   capacity=self.policy.max_inflight)
        self.records: list[RequestRecord] = []
        self.requests_injected = 0
        self.requests_completed = 0
        self.requests_shed = 0
        self.requests_evicted = 0
        self.requests_cancelled = 0
        self.batches_dispatched = 0
        self.starvation_promotions = 0
        self.quota_denied: dict[str, int] = {}
        self._outstanding: dict[str, int] = {}
        self.kv: KVCacheResidency | None = None
        self.decode_remaps = 0
        self._decode_workloads: dict[str, object] = {}
        self._decode_mappings: dict[tuple[str, int], ModelMapping] = {}
        self._pools: dict[str, list[RequestHandle]] = {}
        self._pool_running: set[str] = set()
        self._has_sequences = False
        self.on_request_closed: Callable[[RequestHandle], None] | None = None
        # Telemetry hooks, attached post-construction by the study
        # layer: a span recorder and a metrics registry, or ``None`` on
        # the untelemetered path — every instrumentation site below
        # guards on a single attribute comparison, so the classic hot
        # path stays untouched.
        self.obs_trace = None
        self.obs_metrics = None
        self.obs_prefix = ""
        """Track-name prefix (``node3/`` on fleets) keeping per-request
        tracks distinct when several schedulers share one recorder."""
        self._next_id = 0
        self._paused = False
        self._resume_signal: Event | None = None
        self.env.process(self._dispatch_loop())

    # -- served models ------------------------------------------------------------

    def _register(self, name: str, mapping: ModelMapping,
                  slo_s: float | None, priority: int,
                  quota: int | None = None) -> None:
        if name in self._models:
            raise ConfigurationError(f"model {name!r} is already served")
        if slo_s is not None and slo_s <= 0:
            raise ConfigurationError(
                f"SLO must be positive, got {slo_s} for {name!r}"
            )
        if quota is not None and quota < 1:
            raise ConfigurationError(
                f"admission quota must be >= 1, got {quota} for {name!r}"
            )
        self._models[name] = _ModelEntry(
            name=name, mapping=mapping, slo_s=slo_s, priority=priority,
            quota=quota,
        )

    def add_model(self, name: str, mapping: ModelMapping,
                  slo_s: float | None = None, priority: int = 0,
                  quota: int | None = None) -> None:
        """Register another tenant model to serve from the same fabric."""
        self._register(name, mapping, slo_s, priority, quota)

    @property
    def served_models(self) -> tuple[str, ...]:
        """Names of every registered tenant, registration order."""
        return tuple(self._models)

    def slos(self) -> dict[str, float | None]:
        """Per-model latency SLOs (None where unset)."""
        return {name: entry.slo_s for name, entry in self._models.items()}

    # -- queue plumbing -----------------------------------------------------------

    @property
    def queue_length(self) -> int:
        """Requests currently waiting for dispatch."""
        return len(self._queue)

    @property
    def outstanding(self) -> int:
        """Accepted requests not yet completed (queued + in flight)."""
        return (
            self.requests_injected
            - self.requests_completed
            - self.requests_shed
        )

    def submit(self, done: Event | None = None,
               model: str | None = None,
               arrival_s: float | None = None,
               prompt_tokens: int = 0,
               output_tokens: int = 0) -> RequestHandle:
        """Enqueue one request arriving now; returns its public handle.

        ``model`` defaults to the primary model the scheduler was built
        with; the handle's deadline is assigned from the model's SLO.
        ``arrival_s`` backdates the arrival (and therefore the deadline
        base): the cluster router uses it when re-enqueueing a request
        evicted from a failed node, so the user-visible latency and SLO
        clock keep running from the original submission.

        ``output_tokens > 0`` makes this a *sequence* request: one
        prefill pass over ``prompt_tokens`` followed by decode steps
        until ``output_tokens`` have been generated.  The target model
        must have attention layers (a KV cache to keep).
        """
        name = self.model_name if model is None else model
        try:
            entry = self._models[name]
        except KeyError:
            raise UnknownNameError(
                "served model", name, tuple(self._models)
            ) from None
        if output_tokens > 0:
            if entry.mapping.workload.kv_bits_per_token <= 0:
                raise ConfigurationError(
                    f"model {name!r} has no attention layers; sequence "
                    "requests need a transformer model"
                )
            if prompt_tokens < 1:
                raise ConfigurationError(
                    f"sequence requests need >= 1 prompt token, got "
                    f"{prompt_tokens}"
                )
            self._has_sequences = True
        elif prompt_tokens:
            raise ConfigurationError(
                "prompt_tokens without output_tokens: single-shot "
                "requests carry no sequence lengths"
            )
        now = self.env.now if arrival_s is None else arrival_s
        request = RequestHandle(
            request_id=self._next_id, model=name, submit_s=now,
            deadline_s=None if entry.slo_s is None else now + entry.slo_s,
            done=done, prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
        )
        self._next_id += 1
        self.requests_injected += 1
        if self.obs_trace is not None and self.obs_trace.sampled(
            request.request_id
        ):
            self.obs_trace.note_sampled()
        denied = (
            entry.quota is not None
            and self._outstanding.get(name, 0) >= entry.quota
        )
        self._outstanding[name] = self._outstanding.get(name, 0) + 1
        if denied:
            # Over the tenant's admission quota: shed at submit time.
            # (_shed rolls the outstanding count back via _note_closed.)
            self.quota_denied[name] = self.quota_denied.get(name, 0) + 1
            self._shed(request)
            return request
        self._queue.append(request)
        self._signal_arrival()
        return request

    def _signal_arrival(self) -> None:
        signal = self._arrival_signal
        if signal is not None and not signal.triggered:
            signal.succeed()

    def _note_closed(self, request: RequestHandle) -> None:
        """Drop a queued-or-running request from its model's quota count."""
        count = self._outstanding.get(request.model, 0)
        if count > 0:
            self._outstanding[request.model] = count - 1

    def cancel(self, handle: RequestHandle) -> bool:
        """Withdraw one still-queued request (lifecycle cancellation).

        Matches by handle identity *or* by shared completion event —
        after a failed node's queue is rerouted the caller's handle is
        stale, but the re-submitted copy carries the same ``done``
        event.  Returns ``False`` when the request already dispatched
        (in-flight work cannot be recalled) or was shed; the injected
        counter is rolled back exactly like :meth:`evict_queued` so the
        drain invariant keeps holding.
        """
        for index, request in enumerate(self._queue):
            if request is handle or (
                handle.done is not None and request.done is handle.done
            ):
                del self._queue[index]
                self.requests_injected -= 1
                self.requests_cancelled += 1
                self._note_closed(request)
                self._check_drained()
                return True
        return False

    def pause(self) -> None:
        """Stop dispatching (a failed node under health-checked routing).

        Queued requests stay queued and in-flight batches finish;
        nothing new dispatches until :meth:`resume`.  The omniscient
        legacy path never pauses, so its behavior is untouched.
        """
        self._paused = True

    def resume(self) -> None:
        """Resume dispatching after a :meth:`pause` (node repair)."""
        if not self._paused:
            return
        self._paused = False
        signal = self._resume_signal
        if signal is not None and not signal.triggered:
            signal.succeed()

    def _wait_resume(self) -> Event:
        event = self.env.event()
        self._resume_signal = event
        return event

    def evict_queued(self) -> list[RequestHandle]:
        """Withdraw every request still waiting for dispatch.

        Returns the evicted handles in queue order so a caller (the
        cluster router, when this scheduler's node fails) can re-enqueue
        them elsewhere.  In-flight batches are unaffected; the injected
        counter is rolled back so the drain invariant
        ``injected == completed + shed + outstanding`` keeps holding.
        """
        evicted = list(self._queue)
        self._queue.clear()
        self.requests_injected -= len(evicted)
        self.requests_evicted += len(evicted)
        for request in evicted:
            self._note_closed(request)
        self._check_drained()
        return evicted

    def _wait_arrival(self) -> Event:
        event = self.env.event()
        self._arrival_signal = event
        return event

    # -- telemetry -------------------------------------------------------------------

    def _obs_track(self, request: RequestHandle) -> str | None:
        """The request's trace track when sampled, else ``None``."""
        trace = self.obs_trace
        if trace is None or not trace.sampled(request.request_id):
            return None
        return f"{self.obs_prefix}req:{request.request_id:06d}"

    # -- dispatcher ------------------------------------------------------------------

    def _select_index(self) -> int:
        """Queue index the policy dispatches next (queue non-empty)."""
        queue = self._queue
        if self.policy.policy == "edf":
            return min(
                range(len(queue)),
                key=lambda i: (
                    float("inf") if queue[i].deadline_s is None
                    else queue[i].deadline_s,
                    i,
                ),
            )
        if self.policy.policy == "priority":
            # Starvation guard: the queue is in arrival order, so index
            # 0 is the oldest waiter — once it has aged past the
            # threshold it dispatches ahead of higher-priority arrivals.
            age = self.policy.starvation_age_s
            if age is not None and self.env.now - queue[0].submit_s > age:
                self.starvation_promotions += 1
                if self.obs_trace is not None:
                    self.obs_trace.instant(
                        "scheduler", "starvation-promotion",
                        args={"request": queue[0].request_id},
                    )
                return 0
            return min(
                range(len(queue)),
                key=lambda i: (-self._models[queue[i].model].priority, i),
            )
        return 0  # fifo / max-batch / continuous: arrival order

    def _expired(self, request: RequestHandle) -> bool:
        """Whether dispatching ``request`` now should shed it instead."""
        return (
            self.policy.shed_expired
            and request.deadline_s is not None
            and self.env.now > request.deadline_s
        )

    def _next_dispatch(self) -> RequestHandle | None:
        """Pop the next live request, shedding expired ones if asked."""
        while self._queue:
            index = self._select_index()
            request = self._queue[index]
            del self._queue[index]
            if self._expired(request):
                self._shed(request)
                continue
            return request
        return None

    def _pop_match(self, model: str,
                   want_sequence: bool = False) -> RequestHandle | None:
        """Pop the oldest queued request for ``model`` (batch filling).

        Batches never mix sequence and single-shot requests — the two
        take different execution paths — so candidates must match the
        batch head's kind as well as its model.
        """
        queue = self._queue
        if len(self._models) == 1 and not self._has_sequences:
            return queue.popleft() if queue else None
        for index, request in enumerate(queue):
            if request.model == model and request.is_sequence == want_sequence:
                del queue[index]
                return request
        return None

    def _dispatch_loop(self):
        policy = self.policy
        while True:
            while self._paused:
                yield self._wait_resume()
            while not self._queue:
                yield self._wait_arrival()
                if self._paused:
                    break
            if self._paused or not self._queue:
                continue
            # Back-pressure: only open a batch once an execution slot is
            # free, so under load batches fill instead of fragmenting.
            yield self._admission.request()
            if self._paused:
                self._admission.release()
                continue
            head = self._next_dispatch()
            if head is None:
                # Everything queued was shed; give the slot back.
                self._admission.release()
                continue
            self.batches_dispatched += 1
            sequence = head.is_sequence
            if sequence and policy.policy == "continuous":
                # Each sequence holds its admission slot for its whole
                # lifetime; prefilled sequences join the model's running
                # decode batch.
                self.env.process(self._serve_sequence(head))
                continue
            batch = [head]
            if policy.policy == "max-batch" and policy.max_batch > 1:
                deadline = self.env.now + policy.batch_timeout_s
                while len(batch) < policy.max_batch:
                    candidate = self._pop_match(head.model, sequence)
                    if candidate is not None:
                        if self._expired(candidate):
                            self._shed(candidate)
                        else:
                            batch.append(candidate)
                        continue
                    remaining = deadline - self.env.now
                    if remaining <= 0:
                        break
                    yield self.env.any_of([
                        self._wait_arrival(),
                        self.env.timeout(remaining),
                    ])
            self.env.process(
                self._execute_sequence_batch(batch) if sequence
                else self._execute(batch)
            )

    def _shed(self, request: RequestHandle) -> None:
        """Drop an expired request without executing it."""
        now = self.env.now
        record = RequestRecord(
            request_id=request.request_id,
            model=request.model,
            arrival_s=request.submit_s,
            dispatch_s=now,
            finish_s=now,
            batch_size=0,
            deadline_s=request.deadline_s,
            dropped=True,
        )
        self.records.append(record)
        track = self._obs_track(request)
        if track is not None:
            self.obs_trace.add(track, "queue-wait", request.submit_s, now)
            self.obs_trace.instant(track, "shed")
        request.dropped = True
        request.record = record
        if request.done is not None:
            request.done.succeed()
        self.requests_shed += 1
        self._note_closed(request)
        if self.on_request_closed is not None:
            self.on_request_closed(request)
        self._check_drained()

    def _execute(self, batch: list[RequestHandle]):
        """Run one dispatched batch as a single batched inference."""
        entry = self._models[batch[0].model]
        fabric = self.sim.fabric
        dispatch_s = self.env.now
        for _ in batch:
            fabric.request_started()
        obs = self.obs_trace
        head_track = None
        if obs is not None:
            for request in batch:
                track = self._obs_track(request)
                if track is not None:
                    obs.add(track, "queue-wait", request.submit_s,
                            dispatch_s)
            head_track = self._obs_track(batch[0])
            if head_track is not None:
                obs.begin(head_track, "execute",
                          args={"batch": len(batch), "model": entry.name})
        execution = RequestExecution(
            self.env, self.sim.platform.config, fabric, entry.mapping,
            self.trace, mac_rate_hz=self.sim.mac_rate_hz,
            batch_size=len(batch), residency=self.residency,
            compute=self.compute, model_name=entry.name,
            record_timings=False,
            obs=obs if head_track is not None else None,
            obs_track=head_track or "",
        )
        yield execution.start()
        self._admission.release()
        finish_s = self.env.now
        if obs is not None:
            if head_track is not None:
                obs.end(head_track)
            # Non-head batch members share the execution timeline; each
            # sampled one gets a complete span (no nested layer detail).
            for request in batch[1:]:
                track = self._obs_track(request)
                if track is not None:
                    obs.add(track, "execute", dispatch_s, finish_s,
                            args={"batch": len(batch)})
        metrics = self.obs_metrics
        if metrics is not None:
            metrics.observe("batch_size", len(batch))
            for request in batch:
                metrics.observe("request_latency_s",
                                finish_s - request.submit_s)
        for request in batch:
            fabric.request_finished()
            record = RequestRecord(
                request_id=request.request_id,
                model=request.model,
                arrival_s=request.submit_s,
                dispatch_s=dispatch_s,
                finish_s=finish_s,
                batch_size=len(batch),
                deadline_s=request.deadline_s,
            )
            self.records.append(record)
            request.record = record
            if request.done is not None:
                request.done.succeed()
            self._note_closed(request)
            if self.on_request_closed is not None:
                self.on_request_closed(request)
        self.requests_completed += len(batch)
        self._check_drained()

    # -- sequence execution: prefill + decode steps -----------------------------------

    def _kv_store(self) -> KVCacheResidency:
        """The KV-cache store, attached to the weight pool on first use."""
        if self.kv is None:
            self.kv = (
                self.residency.kv
                if self.residency.kv is not None
                else KVCacheResidency(self.residency)
            )
        return self.kv

    def _decode_mapping(self, entry: _ModelEntry, width: int) -> ModelMapping:
        """Decode-step mapping for a batch of ``width`` sequences.

        The remapping hook of continuous batching: the per-token decode
        workload is scaled to the running batch width and remapped, so
        chiplet allocation tracks the width; mappings are memoised per
        (model, width) and ``decode_remaps`` counts the distinct
        remappings a run needed.
        """
        key = (entry.name, width)
        mapping = self._decode_mappings.get(key)
        if mapping is None:
            base = self._decode_workloads.get(entry.name)
            if base is None:
                base = decode_workload(entry.mapping.workload)
                self._decode_workloads[entry.name] = base
            mapping = self.sim.map_workload(widened_workload(base, width))
            self._decode_mappings[key] = mapping
            self.decode_remaps += 1
        return mapping

    def _run_step(self, mapping: ModelMapping, entry: _ModelEntry,
                  batch_size: int = 1,
                  obs_track: str | None = None) -> Event:
        """One execution over a decode-shaped mapping (prefill or step)."""
        execution = RequestExecution(
            self.env, self.sim.platform.config, self.sim.fabric, mapping,
            self.trace, mac_rate_hz=self.sim.mac_rate_hz,
            batch_size=batch_size, residency=self.residency,
            compute=self.compute, model_name=entry.name,
            record_timings=False,
            obs=self.obs_trace if obs_track is not None else None,
            obs_track=obs_track or "",
        )
        return execution.start()

    def _admit_kv(self, request: RequestHandle, entry: _ModelEntry):
        """Reserve the sequence's KV cache, waiting out refusals."""
        kv = self._kv_store()
        bits = entry.mapping.workload.kv_bits_per_token
        total_tokens = request.prompt_tokens + request.output_tokens
        track = self._obs_track(request)
        if track is not None:
            self.obs_trace.begin(track, "kv-admit",
                                 args={"tokens": total_tokens})
        while not kv.admit(request.request_id, total_tokens, bits):
            yield kv.wait_release()
        if track is not None:
            self.obs_trace.end(track)

    def _prefill(self, request: RequestHandle, entry: _ModelEntry):
        """Prefill one sequence: one pass, batched over prompt tokens."""
        request.dispatch_s = self.env.now
        track = self._obs_track(request)
        if track is not None:
            self.obs_trace.begin(
                track, "prefill",
                args={"prompt_tokens": request.prompt_tokens},
            )
        yield self._run_step(
            self._decode_mapping(entry, 1), entry,
            batch_size=max(1, request.prompt_tokens),
            obs_track=track,
        )
        if track is not None:
            self.obs_trace.end(track)
        now = self.env.now
        request.first_token_s = now
        request.tokens_done = 1
        request.token_times.append(now)
        self._kv_store().grow(
            request.request_id, request.prompt_tokens + 1,
            entry.mapping.workload.kv_bits_per_token,
        )

    def _close_sequence(self, request: RequestHandle,
                        release_slot: bool) -> None:
        """Complete one sequence: record, KV release, drain accounting."""
        self._kv_store().release(request.request_id)
        track = self._obs_track(request)
        if track is not None and request.first_token_s is not None:
            self.obs_trace.add(
                track, "decode", request.first_token_s, self.env.now,
                args={"tokens": request.tokens_done},
            )
        metrics = self.obs_metrics
        if metrics is not None:
            metrics.observe("request_latency_s",
                            self.env.now - request.submit_s)
        times = request.token_times
        record = RequestRecord(
            request_id=request.request_id,
            model=request.model,
            arrival_s=request.submit_s,
            dispatch_s=(
                request.dispatch_s if request.dispatch_s is not None
                else request.submit_s
            ),
            finish_s=self.env.now,
            batch_size=1,
            deadline_s=request.deadline_s,
            prompt_tokens=request.prompt_tokens,
            output_tokens=request.tokens_done,
            first_token_s=request.first_token_s,
            token_gaps=tuple(
                later - earlier for earlier, later in zip(times, times[1:])
            ),
        )
        self.records.append(record)
        request.record = record
        self.sim.fabric.request_finished()
        if release_slot:
            self._admission.release()
        if request.done is not None:
            request.done.succeed()
        self._note_closed(request)
        if self.on_request_closed is not None:
            self.on_request_closed(request)
        self.requests_completed += 1
        self._check_drained()

    def _serve_sequence(self, request: RequestHandle):
        """Continuous batching: prefill alone, then join the decode pool."""
        entry = self._models[request.model]
        track = self._obs_track(request)
        if track is not None:
            self.obs_trace.add(track, "queue-wait", request.submit_s,
                               self.env.now)
        yield from self._admit_kv(request, entry)
        self.sim.fabric.request_started()
        yield from self._prefill(request, entry)
        if request.tokens_done >= request.output_tokens:
            self._close_sequence(request, release_slot=True)
            return
        pool = self._pools.setdefault(request.model, [])
        pool.append(request)
        if request.model not in self._pool_running:
            self._pool_running.add(request.model)
            self.env.process(self._decode_pool(request.model))

    def _decode_pool(self, model: str):
        """The running decode batch of one model (continuous policy).

        Lives while the pool has members: every iteration executes one
        decode step at the current batch width (joins since the last
        step widen it; finished sequences leave and release their KV
        reservation and admission slot at the step boundary).
        """
        entry = self._models[model]
        pool = self._pools[model]
        width_cap = max(1, self.policy.max_batch)
        kv = self._kv_store()
        bits = entry.mapping.workload.kv_bits_per_token
        while pool:
            members = pool[:width_cap]
            width = len(members)
            mapping = self._decode_mapping(entry, width)
            step_begin_s = self.env.now
            yield self._run_step(mapping, entry)
            if self.obs_trace is not None:
                self.obs_trace.add(
                    f"{self.obs_prefix}decode-pool:{model}", "decode-step",
                    step_begin_s, self.env.now, args={"width": width},
                )
            if self.obs_metrics is not None:
                self.obs_metrics.observe("decode_width", width)
            # Batched step completion: one pass accounts every member's
            # token and closes finishers in members order (preserving
            # admission-slot grant order), then the pool prefix is
            # rebuilt once — joiners landed behind it during the step.
            now = self.env.now
            survivors = []
            for member in members:
                member.tokens_done += 1
                member.token_times.append(now)
                kv.grow(member.request_id, 1, bits)
                if member.tokens_done >= member.output_tokens:
                    self._close_sequence(member, release_slot=True)
                else:
                    survivors.append(member)
            if len(survivors) != width:
                pool[:width] = survivors
        self._pool_running.discard(model)

    def _execute_sequence_batch(self, batch: list[RequestHandle]):
        """Sequence batch under a non-continuous policy: the whole batch
        prefills together and decodes in lockstep — members leave as
        they finish, but nothing joins a running batch."""
        entry = self._models[batch[0].model]
        kv = self._kv_store()
        bits = entry.mapping.workload.kv_bits_per_token
        admitted: list[RequestHandle] = []
        deferred: list[RequestHandle] = []
        own_bits = 0.0
        for request in batch:
            total_tokens = request.prompt_tokens + request.output_tokens
            while True:
                if kv.admit(request.request_id, total_tokens, bits):
                    admitted.append(request)
                    own_bits += float(total_tokens * bits)
                    break
                if kv.reserved_bits - own_bits <= 0:
                    # Only this batch's own members hold KV: waiting
                    # would deadlock.  Run with what fits; the rest
                    # re-queue for a later dispatch.
                    deferred.append(request)
                    break
                yield kv.wait_release()
        if deferred:
            self._queue.extendleft(reversed(deferred))
            self._signal_arrival()
        dispatch_s = self.env.now
        for request in admitted:
            self.sim.fabric.request_started()
            request.dispatch_s = dispatch_s
        obs = self.obs_trace
        if obs is not None:
            for request in admitted:
                track = self._obs_track(request)
                if track is not None:
                    obs.add(track, "queue-wait", request.submit_s,
                            dispatch_s)
        total_prompt = sum(
            max(1, request.prompt_tokens) for request in admitted
        )
        yield self._run_step(
            self._decode_mapping(entry, 1), entry, batch_size=total_prompt
        )
        now = self.env.now
        if obs is not None:
            for request in admitted:
                track = self._obs_track(request)
                if track is not None:
                    obs.add(track, "prefill", dispatch_s, now,
                            args={"batch": len(admitted)})
        active: list[RequestHandle] = []
        for request in admitted:
            request.first_token_s = now
            request.tokens_done = 1
            request.token_times.append(now)
            kv.grow(request.request_id, request.prompt_tokens + 1, bits)
            if request.tokens_done >= request.output_tokens:
                self._close_sequence(request, release_slot=False)
            else:
                active.append(request)
        while active:
            mapping = self._decode_mapping(entry, len(active))
            yield self._run_step(mapping, entry)
            now = self.env.now
            survivors = []
            for member in active:
                member.tokens_done += 1
                member.token_times.append(now)
                kv.grow(member.request_id, 1, bits)
                if member.tokens_done >= member.output_tokens:
                    self._close_sequence(member, release_slot=False)
                else:
                    survivors.append(member)
            active = survivors
        self._admission.release()

    def _drain_counts(self) -> tuple[int, int]:
        """Node tally: a request closes once it completes or is shed."""
        return (self.requests_completed + self.requests_shed,
                self.requests_injected)

    # -- teardown --------------------------------------------------------------------

    def detach(self) -> None:
        """Cut the links that close a finished cell into reference
        cycles outside the kernel: the router's close hook, the metrics
        registry (whose gauges read this scheduler) and the weight
        pool's back-link to its KV store.  Call it once the cell's
        result is read; records, counters and ``kv`` stay readable."""
        self.on_request_closed = None
        self.obs_metrics = None
        self.residency.kv = None

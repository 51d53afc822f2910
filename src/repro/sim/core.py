"""Discrete-event simulation kernel.

A small process-based kernel in the SimPy style: generator coroutines
yield :class:`Event` objects and are resumed when those events fire.
Both interposer network models run on this kernel so that contention
(queueing at gateways, mesh links, memory ports) emerges from explicit
resource sharing instead of closed-form approximations.

Design choices:

* Time is a ``float`` in seconds.
* Events fire in (time, insertion-order) order — deterministic replays.
* No interrupts/preemption: network messages never abort mid-flight.

Hot-path notes (this kernel executes tens of millions of events per
experiment matrix, so it is tuned):

* every kernel object declares ``__slots__`` — no per-instance dicts;
* zero-delay schedules (``succeed``, process bootstraps/resumes,
  zero-length timeouts) bypass the heap entirely: they land in a FIFO
  deque that the run loops drain *in sequence order* relative to
  same-time heap entries, so ordering is exactly the seed kernel's
  (time, insertion-order) contract;
* a :class:`Process` never allocates bootstrap/resume ``Event`` objects:
  one reusable :class:`_Resume` per process carries the pending value;
* perpetual or one-shot machinery that only waits on time queues
  *itself* (:class:`Entry`): a bandwidth channel per hold, a photonic
  controller per epoch, a PCMC switch per capacity increase — no
  process, generator or timeout.

Lifecycle: whoever builds an :class:`Environment` closes it once the
results are read (``with Environment() as env:``).  A process that
returns drops its generator and its references to itself;
:meth:`Environment.close` does the same for every process still
suspended and empties both queues.  So a finished simulation is freed
by reference counting alone, with no call into the cyclic garbage
collector on any run path.  ``now`` and ``_sequence`` stay readable
after the close.  Closing a generator raises ``GeneratorExit`` at its
``yield``; so that closing runs no simulation code, no process
generator may wrap a ``yield`` in a ``try`` or ``with`` block (a rule
the kernel tests check on every module under ``src/``).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import SimulationError

_INFINITY = float("inf")
_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A one-shot occurrence that processes can wait on.

    ``callbacks`` is stored adaptively: ``None`` while no waiter is
    attached, the bare callable for exactly one waiter (the overwhelming
    majority of events), and a list only once a second waiter arrives.
    It is ``None`` again once the event has fired — events are one-shot,
    so nothing may attach to a processed event.  Always attach through
    :meth:`_add_callback`.
    """

    __slots__ = ("env", "callbacks", "_triggered", "_processed", "_value")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Any = None
        self._triggered = False
        self._processed = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def value(self) -> Any:
        """The value the event fired with (valid once triggered)."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now with an optional value."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self._triggered = True
        env = self.env
        env._sequence += 1
        env._immediate.append((env._sequence, self))
        return self

    def succeed_after(self, delay: float, value: Any = None) -> "Event":
        """Trigger the event to fire ``delay`` seconds from now.

        One kernel insertion where a timeout whose callback calls
        :meth:`succeed` costs two; the event counts as triggered at
        once.  A zero delay queues it exactly like :meth:`succeed`.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        # Written so that NaN fails too: it compares false to anything.
        if not delay >= 0:
            raise SimulationError(f"invalid delay {delay!r}")
        self._value = value
        self._triggered = True
        env = self.env
        seq = env._sequence = env._sequence + 1
        if delay == 0.0:
            env._immediate.append((seq, self))
        else:
            _heappush(env._queue, (env._now + delay, seq, self))
        return self

    def _fire(self) -> None:
        """Run callbacks; called by the environment at the scheduled time."""
        self._processed = True
        callbacks = self.callbacks
        if callbacks is not None:
            self.callbacks = None
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach a waiter (internal; the event must not have fired yet)."""
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = callback
        elif type(callbacks) is list:
            callbacks.append(callback)
        else:
            self.callbacks = [callbacks, callback]


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Written so that NaN fails too: it compares false to anything.
        if not delay >= 0:
            raise SimulationError(f"invalid timeout delay {delay!r}")
        self.env = env
        self.callbacks = None
        self._triggered = True
        self._processed = False
        self._value = value
        seq = env._sequence = env._sequence + 1
        if delay == 0.0:
            env._immediate.append((seq, self))
        else:
            _heappush(env._queue, (env._now + delay, seq, self))


_timeout_new = Timeout.__new__


class Entry:
    """An object that queues *itself* as a kernel entry.

    The run loops touch a queued entry in two ways: they call
    ``_fire()`` on one popped from the immediate queue, or from the heap
    while the immediate queue is not empty; otherwise they set
    ``_processed``, clear ``callbacks`` and call ``callbacks(entry)``.
    An entry stores its next action, a plain function of the entry,
    in ``callbacks`` before it queues itself, and ``_fire`` runs that
    action, so both paths do the same.  A plain function rather than a
    bound method keeps the entry free of a reference cycle to itself.
    """

    __slots__ = ("callbacks", "_processed")

    def _fire(self) -> None:
        callbacks = self.callbacks
        self.callbacks = None
        callbacks(self)


class _Resume:
    """Reusable scheduler token that resumes a suspended process.

    A process is suspended on at most one target at a time, so a single
    token per process can carry every bootstrap/already-fired resume —
    the seed kernel allocated a throwaway :class:`Event` for each.  It
    exposes ``_value`` so :meth:`Process._step` can treat it like the
    fired event it stands in for.
    """

    __slots__ = ("process", "_value")

    def __init__(self, process: "Process"):
        self.process = process
        self._value: Any = None

    def _fire(self) -> None:
        self.process._step(self)


class Process(Event):
    """A running generator coroutine; itself an event that fires on return.

    The generator yields events; each yielded event resumes the generator
    with the event's value when it fires.  When the generator returns, the
    process event triggers with the return value.

    The environment lists every live process until it returns, so that
    :meth:`Environment.close` can reach the suspended ones.  A process
    that returns leaves that list and drops its generator, its resume
    token and its bound step, the two references back to itself; its
    event half (value, flags, waiters) stays.
    """

    __slots__ = ("_generator", "_resume", "_step_callback")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any]):
        super().__init__(env)
        self._generator = generator
        self._resume = _Resume(self)
        self._step_callback = self._step  # bind once, reuse per yield
        env._processes[self] = None
        # Bootstrap: resume the generator at time `now`.
        env._sequence += 1
        env._immediate.append((env._sequence, self._resume))

    def _step(self, event: "Event | _Resume") -> None:
        """Advance the generator with the fired event's value."""
        try:
            target = self._generator.send(event._value)
        except StopIteration as stop:
            del self.env._processes[self]
            self._generator = self._resume = self._step_callback = None
            if not self._triggered:
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Events"
            )
        if target._processed:
            # Already fired: resume at the current time, in order.
            resume = self._resume
            resume._value = target._value
            env = self.env
            env._sequence += 1
            env._immediate.append((env._sequence, resume))
        elif target.callbacks is None:
            target.callbacks = self._step_callback
        else:
            target._add_callback(self._step_callback)


class AllOf(Event):
    """Fires when every child event has fired (a barrier).

    The value is the list of child values in the original order.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        for event in self._events:
            if event._processed:
                self._on_child(event)
            else:
                event._add_callback(self._on_child)

    def _on_child(self, _: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self._triggered:
            self.succeed([event._value for event in self._events])


class AnyOf(Event):
    """Fires when the first of several child events fires (a race).

    The value is the winning child's value.  Children that fire later
    are simply ignored — events are one-shot, so no cancellation is
    needed.  A losing child keeps its callback, so never race a wait
    that takes something when it fires: a ``Resource.request`` that
    loses still holds its slot once granted, and nothing releases it.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        children = list(events)
        if not children:
            raise SimulationError("any_of needs at least one event")
        for event in children:
            if event._processed:
                self.succeed(event._value)
                return
        for event in children:
            event._add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if not self._triggered:
            self.succeed(event._value)


class Environment:
    """Event queue and simulated clock.

    Two scheduling structures share one sequence counter:

    * ``_queue`` — a heap of ``(fire_time, sequence, event)`` for delayed
      events;
    * ``_immediate`` — a FIFO of ``(sequence, event)`` for events firing
      at the *current* time (``succeed``, process resumes, zero delays).

    Every immediate entry fires at ``_now`` by construction: the run
    loops never advance the clock while ``_immediate`` is non-empty, and
    a heap entry is only popped ahead of an immediate one when it fires
    at the same time with a smaller sequence number.  Interleaving by
    sequence keeps the merged order identical to a single heap.

    ``_processes`` lists the live processes in start order (a dict used
    as an ordered set) for :meth:`close`.
    """

    __slots__ = ("_now", "_queue", "_immediate", "_sequence", "_processes",
                 "_closed")

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, int, Any]] = []
        self._immediate: deque[tuple[int, Any]] = deque()
        self._sequence = 0
        self._processes: dict[Process, None] = {}
        self._closed = False

    @property
    def now(self) -> float:
        """Current simulated time (s)."""
        return self._now

    # NOTE: there is deliberately no generic _schedule() helper — the
    # scheduling sites inline the immediate-vs-heap dispatch because the
    # call overhead is measurable at event rates.  They are: succeed,
    # succeed_after, Timeout and timeout() here; the channel hold
    # (BandwidthChannel._hold in sim/resources.py, plus its copy inlined
    # in BandwidthChannel._complete for the channel's own next hold);
    # and the self-queuing entries of the photonic control plane: a
    # controller's bootstrap and once-per-epoch push
    # (interposer/photonic/controllers.py, _EpochController) and a PCMC
    # switch's immediate entry and its landing one switching time later
    # (interposer/photonic/fabric.py, _PcmcSwitch).  A chunk hop is one
    # entry's callback: _complete moves the chunk on itself.  New
    # scheduling paths must follow the same pattern: bump _sequence,
    # then append to _immediate for zero delay or heap-push
    # (fire_time, seq, event) otherwise.  A queued entry needs only what
    # the run loops touch: ``_fire()`` for the immediate path and for a
    # heap entry popped while the immediate queue is not empty, and
    # ``_processed`` and ``callbacks`` for the heap path.  So ``_fire``
    # must do what ``callbacks`` does (see :class:`Entry`; a channel is
    # its own entry and re-arms ``callbacks`` for every hold).

    # -- factories ------------------------------------------------------------

    def event(self) -> Event:
        """An untriggered event; fire it later with ``succeed``."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        # Builds the Timeout inline (no __init__ frame): this factory is
        # the single hottest allocation site in every simulation.
        if not delay >= 0:
            raise SimulationError(f"invalid timeout delay {delay!r}")
        event = _timeout_new(Timeout)
        event.env = self
        event.callbacks = None
        event._triggered = True
        event._processed = False
        event._value = value
        seq = self._sequence = self._sequence + 1
        if delay == 0.0:
            self._immediate.append((seq, event))
        else:
            _heappush(self._queue, (self._now + delay, seq, event))
        return event

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a process from a generator coroutine."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Barrier event over several events."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Race event: fires with the first child to fire."""
        return AnyOf(self, events)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Tear the simulation down so that reference counting frees it.

        Empties both queues, then closes every live process in start
        order: its generator is closed (``GeneratorExit`` at the
        ``yield``, which runs no simulation code; see the module notes)
        and it drops its generator, resume token, bound step and
        waiters (an unfired ``AllOf`` child points back at its
        barrier).  ``now`` and ``_sequence`` stay readable; running a
        closed environment raises :class:`SimulationError`.  Closing
        twice does nothing.  Never call it from inside a run.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.clear()
        self._immediate.clear()
        for process in self._processes:
            process._generator.close()
            process._generator = process._resume = None
            process._step_callback = process.callbacks = None
        self._processes.clear()

    def __enter__(self) -> "Environment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ---------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the simulation time when execution stopped.

        Clamp semantics: the clock never moves backwards and always ends
        at ``until`` when one is given —

        * ``until`` in the past (``until < now``) raises
          :class:`SimulationError` instead of rewinding the clock;
        * events at exactly ``until`` still fire (the bound is inclusive);
        * if the queue drains early, or holds only later events, ``_now``
          idle-advances to ``until`` so back-to-back ``run(until=...)``
          calls tile the timeline without gaps.
        """
        if self._closed:
            raise SimulationError("cannot run a closed environment")
        now = self._now
        if until is not None and until < now:
            raise SimulationError(
                f"cannot run to {until}: time is already {now}"
            )
        queue = self._queue
        immediate = self._immediate
        pop = _heappop
        bound = _INFINITY if until is None else until
        while True:
            if immediate:
                # Fire same-time heap entries first when they were
                # scheduled earlier (lower sequence number).
                if queue and queue[0][0] == now and (
                    queue[0][1] < immediate[0][0]
                ):
                    event = pop(queue)[2]
                else:
                    event = immediate.popleft()[1]
                event._fire()
                continue
            if not queue:
                break
            fire_time = queue[0][0]
            if fire_time > bound:
                self._now = until
                return until
            if fire_time < now:
                raise SimulationError(
                    f"time went backwards: {fire_time} < {now}"
                )
            event = pop(queue)[2]
            self._now = now = fire_time
            # Inlined Event._fire — no kernel class overrides it, and
            # the call overhead is measurable at this loop's rate.
            event._processed = True
            callbacks = event.callbacks
            if callbacks is not None:
                event.callbacks = None
                if type(callbacks) is list:
                    for callback in callbacks:
                        callback(event)
                else:
                    callbacks(event)
        if until is not None and until > now:
            self._now = now = until
        return now

    def run_until_event(self, event: Event, limit: Optional[float] = None
                        ) -> float:
        """Execute events until ``event`` has been processed.

        Needed when perpetual processes (epoch controllers) keep the queue
        non-empty forever.  ``limit`` bounds simulated time as a hang
        guard; exceeding it raises :class:`SimulationError`.  The same
        backwards-time guard as :meth:`run` applies: a queue entry firing
        before the current time raises instead of rewinding the clock.
        """
        if self._closed:
            raise SimulationError("cannot run a closed environment")
        queue = self._queue
        immediate = self._immediate
        pop = _heappop
        now = self._now
        bound = _INFINITY if limit is None else limit
        while not event._processed:
            if immediate:
                if queue and queue[0][0] == now and (
                    queue[0][1] < immediate[0][0]
                ):
                    next_event = pop(queue)[2]
                else:
                    next_event = immediate.popleft()[1]
                next_event._fire()
                continue
            if not queue:
                raise SimulationError(
                    "event queue drained before the awaited event fired"
                )
            if queue[0][0] > bound:
                # Checked before popping: the over-limit event stays
                # queued, so a caller that retries with a larger limit
                # still sees it (same peek-first discipline as run()).
                raise SimulationError(
                    f"simulation exceeded time limit {limit} s"
                )
            fire_time, _, next_event = pop(queue)
            if fire_time < now:
                raise SimulationError(
                    f"time went backwards: {fire_time} < {now}"
                )
            self._now = now = fire_time
            next_event._processed = True
            callbacks = next_event.callbacks
            if callbacks is not None:
                next_event.callbacks = None
                if type(callbacks) is list:
                    for callback in callbacks:
                        callback(next_event)
                else:
                    callbacks(next_event)
        return now

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if self._immediate:
            return self._now
        if not self._queue:
            return _INFINITY
        return self._queue[0][0]

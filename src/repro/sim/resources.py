"""Shared-resource primitives for the simulation kernel.

* :class:`Resource` — counted semaphore with FIFO queueing; models
  routers, gateway front-ends, memory ports.
* :class:`BandwidthChannel` — a serial transmission medium: each transfer
  occupies the channel for ``bits / bandwidth`` seconds, FIFO.  Models a
  waveguide (with its wavelength comb aggregated into one bandwidth
  figure) or an electrical link.  Bandwidth may be changed at runtime —
  that is exactly what the reconfiguration controllers do — and in-flight
  transfers are unaffected (they were admitted at the old rate).
* :class:`Transfer` — a payload's completion event, joining its legs.
* :class:`ChunkChain` — a one-chunk payload crossing its route as one
  object; :class:`ChunkRelay` — one store-and-forward stage of a
  multi-chunk payload.  :func:`send_payload` picks between them by
  chunk count and :func:`relay_payload` carries a payload along routes
  of channels.  Every interposer fabric moves its chunks this way: a
  chunk costs one kernel event per channel it crosses, and a hop
  allocates nothing.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Sequence

from ..errors import SimulationError
from .core import Environment, Event

_INFINITY = float("inf")
_heappush = heapq.heappush


@dataclass(frozen=True)
class ChannelStat:
    """Utilization snapshot of one :class:`Resource` or
    :class:`BandwidthChannel`, taken at the end of a run.

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


class Resource:
    """A counted resource with FIFO queueing.

    A waiter is a callable: :meth:`acquire` calls it the moment the
    slot is taken — at once when one is free, otherwise from the
    :meth:`release` that hands a slot over.  :meth:`request` is the
    event form for processes, and both kinds share one FIFO.
    """

    __slots__ = ("env", "capacity", "_in_use", "_waiting", "_busy_since",
                 "_busy_time")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Callable[[], Any]] = deque()
        # Busy-time integration for utilization reporting.
        self._busy_since: float | None = None
        self._busy_time = 0.0

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of waiters queued for a slot."""
        return len(self._waiting)

    def acquire(self, fn: Callable[[], Any]) -> None:
        """Take a slot, then call ``fn()`` holding it."""
        if self._in_use < self.capacity:
            self._grant(fn)
        else:
            self._waiting.append(fn)

    def request(self) -> Event:
        """Acquire a slot; the returned event fires when granted."""
        event = Event(self.env)
        self.acquire(event.succeed)
        return event

    def _grant(self, fn: Callable[[], Any]) -> None:
        if self._in_use == 0:
            self._busy_since = self.env.now
        self._in_use += 1
        fn()

    def release(self) -> None:
        """Release one held slot; grants the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self._busy_time += self.env.now - self._busy_since
            self._busy_since = None
        if self._waiting:
            self._grant(self._waiting.popleft())

    def busy_time(self) -> float:
        """Total time the resource had at least one holder (s)."""
        total = self._busy_time
        if self._busy_since is not None:
            total += self.env.now - self._busy_since
        return total

    def utilization(self) -> float:
        """Fraction of elapsed time the resource was busy."""
        if self.env.now == 0.0:
            return 0.0
        return self.busy_time() / self.env.now

    def stats(self, name: str = "resource") -> ChannelStat:
        """Snapshot utilization for trace export."""
        return ChannelStat(
            name=name,
            utilization=self.utilization(),
            busy_time_s=self.busy_time(),
            queue_length=self.queue_length,
        )


class BandwidthChannel:
    """A serial channel: transfers occupy it for ``bits / bandwidth``.

    The channel is callback-driven rather than process-driven.  A
    transfer is a *waiter*: any object with a ``chunk`` attribute (its
    bits) and a ``cleared()`` method.  :meth:`carry` queues it FIFO
    behind every earlier waiter; once granted, the channel holds for the
    serialization time (computed at the grant, so queued transfers pick
    up rate changes and in-flight ones do not), then calls
    ``waiter.cleared()``.  :meth:`request_transfer` is the same for a
    plain ``(bits, fn)`` pair.

    This is the hottest path of every fabric simulation.  A channel
    holds at most one transfer at a time, so it is its own kernel
    entry: a hold is one kernel insertion of the channel itself, with
    no :class:`~repro.sim.core.Timeout`, coroutine frame or per-chunk
    resource event.
    """

    __slots__ = ("env", "name", "_bandwidth_bps", "_waiting", "_active",
                 "_busy_since", "_busy_time", "callbacks", "_processed",
                 "bits_transferred", "transfer_count")

    def __init__(self, env: Environment, bandwidth_bps: float,
                 name: str = "channel"):
        # Written so that NaN fails too: it compares false to anything.
        if not bandwidth_bps > 0:
            raise SimulationError(
                f"channel {name!r} bandwidth must be positive"
            )
        self.env = env
        self.name = name
        self._bandwidth_bps = bandwidth_bps
        self._waiting: Deque[Any] = deque()
        self._active: Any = None
        self._busy_since: float | None = None
        self._busy_time = 0.0
        # The kernel-entry fields: the run loop marks the entry processed
        # and clears ``callbacks`` before calling ``callbacks(entry)``,
        # so every hold re-arms it with the plain function — no bound
        # method, so the channel holds no reference cycle to itself.
        self.callbacks: Any = None
        self._processed = False
        self.bits_transferred = 0.0
        self.transfer_count = 0

    @property
    def bandwidth_bps(self) -> float:
        """Current channel bandwidth (b/s)."""
        return self._bandwidth_bps

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Reconfigure the channel rate (controllers call this per epoch)."""
        if not bandwidth_bps > 0:
            raise SimulationError(
                f"channel {self.name!r} bandwidth must be positive"
            )
        self._bandwidth_bps = bandwidth_bps

    def serialization_time(self, bits: float) -> float:
        """Time to clock ``bits`` onto the channel at the current rate (s)."""
        if bits < 0:
            raise SimulationError("cannot transfer negative bits")
        return bits / self._bandwidth_bps

    def request_transfer(self, bits: float, fn: Callable[[], Any]) -> None:
        """Queue one transfer; ``fn()`` runs when it completes.

        Grants immediately on an idle channel, otherwise queues FIFO
        behind every earlier transfer.
        """
        # Written so that NaN fails too: it compares false to anything.
        if not bits >= 0:
            raise SimulationError(f"cannot transfer {bits!r} bits")
        self.carry(_Callback(bits, fn))

    def carry(self, waiter: Any) -> None:
        """Queue ``waiter.chunk`` bits; ``waiter.cleared()`` runs once
        they have crossed.  The caller vouches for the bit count."""
        if self._active is not None:
            self._waiting.append(waiter)
            return
        self._busy_since = self.env._now
        self._hold(waiter)

    def _hold(self, waiter: Any) -> None:
        # A scheduling site of its own (see the note in sim/core.py):
        # bump the sequence, then queue the channel itself.  The hold
        # time is locked in here, at the grant.
        self._active = waiter
        self.callbacks = _complete_hold
        env = self.env
        seq = env._sequence = env._sequence + 1
        delay = waiter.chunk / self._bandwidth_bps
        if delay == 0.0:
            env._immediate.append((seq, self))
        else:
            _heappush(env._queue, (env._now + delay, seq, self))

    def _fire(self) -> None:
        """Kernel entry point for a zero-length hold (immediate queue)."""
        self._complete()

    def _complete(self) -> None:
        waiter = self._active
        self.bits_transferred += waiter.chunk
        self.transfer_count += 1
        if self._waiting:
            self._hold(self._waiting.popleft())
        else:
            self._active = None
            self._busy_time += self.env._now - self._busy_since
            self._busy_since = None
        waiter.cleared()

    def busy_time(self) -> float:
        """Total time the channel carried a transfer (s)."""
        total = self._busy_time
        if self._busy_since is not None:
            total += self.env.now - self._busy_since
        return total

    def utilization(self) -> float:
        """Fraction of simulated time the channel carried a transfer."""
        if self.env.now == 0.0:
            return 0.0
        return self.busy_time() / self.env.now

    @property
    def queue_length(self) -> int:
        """Transfers currently waiting for the channel."""
        return len(self._waiting)

    def stats(self) -> ChannelStat:
        """Snapshot utilization/traffic counters for trace export."""
        return ChannelStat(
            name=self.name,
            utilization=self.utilization(),
            busy_time_s=self.busy_time(),
            bits_transferred=self.bits_transferred,
            transfer_count=self.transfer_count,
            queue_length=self.queue_length,
        )


_complete_hold = BandwidthChannel._complete


class _Callback:
    """The waiter behind :meth:`BandwidthChannel.request_transfer`."""

    __slots__ = ("chunk", "fn")

    def __init__(self, chunk: float, fn: Callable[[], Any]):
        self.chunk = chunk
        self.fn = fn

    def cleared(self) -> None:
        self.fn()


class Transfer(Event):
    """A payload in flight; fires once every leg has delivered it.

    A leg is one route, or one destination after a fan-out.  When the
    last of ``pending`` legs arrives the event fires ``tail_s`` later
    (propagation, conversion), or at once for a zero tail.
    """

    __slots__ = ("pending", "tail_s")

    def __init__(self, env: Environment, pending: int, tail_s: float):
        self.env = env
        self.callbacks = None
        self._triggered = False
        self._processed = False
        self._value = None
        self.pending = pending
        self.tail_s = tail_s

    def leg_done(self, tail_s: float | None) -> None:
        """One leg has cleared its last channel; it arrives now, or
        after a ``tail_s`` timeout of its own."""
        if tail_s is None:
            self.pending -= 1
            if self.pending == 0:
                self.succeed_after(self.tail_s)
        else:
            self.env.timeout(tail_s).callbacks = self._tail_passed

    def _tail_passed(self, _event: Event) -> None:
        self.leg_done(None)


class ChunkChain:
    """A one-chunk payload crossing its route as one object.

    ``route`` holds the channels in order.  ``keys``, when given, holds
    one epoch-monitor key (or ``None``) per channel.  As the chunk clears
    a channel it is recorded under that channel's key, then requests the
    next channel.  After the last channel it either fans out over
    ``branches``, one ``(route, keys)`` leg per destination in order (this
    object goes on as the first leg), or reports to ``transfer`` with
    ``tail_s``.
    """

    __slots__ = ("chunk", "route", "keys", "monitor", "stage", "transfer",
                 "tail_s", "branches")

    def __init__(self, chunk: float, route: Sequence[BandwidthChannel],
                 keys, monitor, transfer: Transfer,
                 tail_s: float | None, branches):
        self.chunk = chunk
        self.route = route
        self.keys = keys
        self.monitor = monitor
        self.stage = 0
        self.transfer = transfer
        self.tail_s = tail_s
        self.branches = branches

    def cleared(self) -> None:
        stage = self.stage
        keys = self.keys
        if keys is not None:
            key = keys[stage]
            if key is not None:
                self.monitor.record(key, self.chunk)
        stage += 1
        route = self.route
        if stage < len(route):
            self.stage = stage
            route[stage].carry(self)
            return
        branches = self.branches
        if branches is None:
            self.transfer.leg_done(self.tail_s)
            return
        self.branches = None
        for index, (route, keys) in enumerate(branches):
            if index:
                leg = ChunkChain(self.chunk, route, keys, self.monitor,
                                 self.transfer, self.tail_s, None)
            else:
                leg = self
                self.route = route
                self.keys = keys
                self.stage = 0
            route[0].carry(leg)


class ChunkRelay:
    """One store-and-forward stage of a multi-chunk payload.

    The payload is ``n`` chunks of ``chunk_bits``, the last one
    ``last`` bits.  Chunks handed to the stage cross ``channel`` one at
    a time; the stage counts them rather than queueing them.  As each
    clears, the stage requests its next chunk if one is waiting, records
    the finished one under ``key`` (when given), and feeds it to every
    ``downstream`` stage in order.  A stage with no downstream reports
    to ``transfer`` with ``tail_s`` after its last chunk.  With one
    chunk in flight per stage, concurrent messages interleave
    chunk-by-chunk in strict channel FIFO.
    """

    __slots__ = ("chunk", "channel", "key", "monitor", "downstream",
                 "transfer", "tail_s", "n", "chunk_bits", "last",
                 "received", "sent")

    def __init__(self, channel: BandwidthChannel, key, monitor,
                 downstream: tuple, transfer: Transfer,
                 tail_s: float | None, n: int, chunk_bits: float,
                 last: float):
        self.chunk = chunk_bits
        self.channel = channel
        self.key = key
        self.monitor = monitor
        self.downstream = downstream
        self.transfer = transfer
        self.tail_s = tail_s
        self.n = n
        self.chunk_bits = chunk_bits
        self.last = last
        self.received = 0
        self.sent = 0

    def feed(self, count: int = 1) -> None:
        """``count`` more chunks reach the stage."""
        idle = self.received == self.sent
        self.received += count
        if idle:
            self.chunk = (self.chunk_bits if self.sent < self.n - 1
                          else self.last)
            self.channel.carry(self)

    def cleared(self) -> None:
        chunk = self.chunk
        sent = self.sent = self.sent + 1
        # Re-request before delivering: the channel has already granted
        # its next waiter, so this queues fairly behind other messages.
        if sent < self.received:
            self.chunk = self.chunk_bits if sent < self.n - 1 else self.last
            self.channel.carry(self)
        if self.key is not None:
            self.monitor.record(self.key, chunk)
        if self.downstream:
            for stage in self.downstream:
                stage.feed()
        elif sent == self.n:
            self.transfer.leg_done(self.tail_s)


def check_payload(bits: float) -> None:
    """Reject a payload no transfer can carry: negative, NaN or
    infinite.  Fabrics call it before any counter moves."""
    # Written so that NaN fails too: it compares false to anything.
    if not 0.0 <= bits < _INFINITY:
        raise SimulationError(
            f"payload must be a finite, non-negative bit count, got {bits!r}"
        )


def send_payload(transfer: Transfer, bits: float, chunk_bits: float,
                 route: Sequence[BandwidthChannel], keys=None, monitor=None,
                 tail_s: float | None = None, branches=None) -> None:
    """Start ``bits`` (positive, checked) along ``route``.

    One chunk crosses as a :class:`ChunkChain`; a larger payload as
    ``chunk_bits`` chunks through one :class:`ChunkRelay` per channel.
    ``keys``, ``tail_s`` and ``branches`` are as for :class:`ChunkChain`.
    """
    if bits <= chunk_bits:
        route[0].carry(ChunkChain(bits, route, keys, monitor, transfer,
                                  tail_s, branches))
        return
    full, last = divmod(bits, chunk_bits)
    n = int(full)
    if last > 0:
        n += 1
    else:
        last = chunk_bits
    downstream = ()
    if branches is not None:
        downstream = tuple(
            _relays(leg, leg_keys, monitor, (), transfer, tail_s, n,
                    chunk_bits, last)
            for leg, leg_keys in branches
        )
    _relays(route, keys, monitor, downstream, transfer, tail_s, n,
            chunk_bits, last).feed(n)


def _relays(route, keys, monitor, downstream: tuple, transfer: Transfer,
            tail_s: float | None, n: int, chunk_bits: float,
            last: float) -> ChunkRelay:
    """The first of one :class:`ChunkRelay` per channel of ``route``,
    the last of them feeding ``downstream``."""
    for index in range(len(route) - 1, -1, -1):
        key = None if keys is None else keys[index]
        relay = ChunkRelay(route[index], key, monitor, downstream, transfer,
                           tail_s, n, chunk_bits, last)
        downstream = (relay,)
    return relay


def relay_payload(
    env: Environment, bits: float, chunk_bits: float,
    routes: Sequence[tuple[Sequence[BandwidthChannel], float | None]],
) -> Event:
    """Carry one payload store-and-forward along every route at once.

    Each route is ``(channels, tail_s)``.  The payload (checked by the
    caller with :func:`check_payload`) crosses the channels in order,
    as one :class:`ChunkChain` when it fits one ``chunk_bits`` chunk and
    through one :class:`ChunkRelay` per channel otherwise; once the last
    channel has carried every chunk, the route waits ``tail_s`` more
    (propagation, conversion) unless it is ``None``.  The returned event
    fires when every route has finished — at once, with no tail, for an
    empty payload.  A lone route's tail fires the event itself.
    """
    single = len(routes) == 1
    if single:
        tail_s = routes[0][1]
        done = Transfer(env, 1, 0.0 if tail_s is None else tail_s)
    else:
        done = Transfer(env, len(routes), 0.0)
    if bits == 0:
        done.succeed()
        return done
    for channels, tail_s in routes:
        send_payload(done, bits, chunk_bits, channels,
                     tail_s=None if single else tail_s)
    return done

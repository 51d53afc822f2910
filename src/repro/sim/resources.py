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

A chunk hop is one kernel callback, :meth:`BandwidthChannel._complete`.
It keeps one per-chunk order: the channel's accounting, the grant to
its next waiter, the stage's re-request of its next chunk, the epoch
monitor's record, delivery downstream in destination order, then the
leg's completion.  Chains and relays hold no hop logic of their own.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Sequence

from ..errors import SimulationError
from ..records import ChannelStat
from .core import Environment, Event

_INFINITY = float("inf")
_heappush = heapq.heappush


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
    transfer is a *waiter*: a :class:`ChunkChain`, a :class:`ChunkRelay`
    or any object with a ``chunk`` attribute (its bits) and a
    ``cleared()`` method.  :meth:`carry` queues it FIFO behind every
    earlier waiter; once granted, the channel holds for the
    serialization time (computed at the grant, so queued transfers pick
    up rate changes and in-flight ones do not), then moves a chain or
    relay on to its next stage itself (:meth:`_complete`) and calls
    ``cleared()`` on any other waiter.  :meth:`request_transfer` is the
    same for a plain ``(bits, fn)`` pair.

    This is the hottest path of every fabric simulation.  A channel
    holds at most one transfer at a time, so it is its own kernel
    entry: a hold is one kernel insertion of the channel itself, with
    no :class:`~repro.sim.core.Timeout`, coroutine frame or per-chunk
    resource event, and a hop is that entry's one callback.
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
        """Queue ``waiter.chunk`` bits.  The first request only: a
        payload entering its route, a fan-out leg or
        :meth:`request_transfer`; every later hop requests its channel
        inside :meth:`_complete`.  The caller vouches for the bit
        count."""
        if self._active is not None:
            self._waiting.append(waiter)
            return
        self._busy_since = self.env._now
        self._hold(waiter)

    def _hold(self, waiter: Any) -> None:
        # A scheduling site of its own (see the note in sim/core.py;
        # _complete inlines one copy): bump the sequence, then queue
        # the channel itself.  The hold time is locked in here, at the
        # grant.
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
        """The end of a hold: one chunk hop, start to finish.

        In order: the channel's accounting; the grant to its next
        waiter, or, when none waits, to the relay that just crossed if
        it has another chunk; then the finished waiter moves on inline.
        A :class:`ChunkChain` records its chunk, then requests its next
        channel, fans out or ends its leg; a :class:`ChunkRelay` (which
        re-requested this channel first, behind any waiter already
        queued) records and feeds each downstream stage in order,
        holding an idle channel directly.  Any other waiter gets
        ``waiter.cleared()``.
        """
        waiter = self._active
        chunk = waiter.chunk
        self.bits_transferred += chunk
        self.transfer_count += 1
        env = self.env
        now = env._now
        waiting = self._waiting
        if waiting:
            granted = waiting.popleft()
        else:
            granted = None
            self._busy_time += now - self._busy_since
        kind = type(waiter)
        if kind is ChunkRelay:
            # A relay crosses only its own channel, which is this one.
            sent = waiter.sent = waiter.sent + 1
            if sent < waiter.received:
                waiter.chunk = (waiter.chunk_bits if sent < waiter.n - 1
                                else waiter.last)
                if granted is None:
                    granted = waiter
                    self._busy_since = now
                else:
                    waiting.append(waiter)
        if granted is None:
            self._active = None
            self._busy_since = None
        else:
            # ``_hold`` inlined: the one hold of this channel per hop.
            self._active = granted
            self.callbacks = _complete_hold
            seq = env._sequence = env._sequence + 1
            delay = granted.chunk / self._bandwidth_bps
            if delay == 0.0:
                env._immediate.append((seq, self))
            else:
                _heappush(env._queue, (now + delay, seq, self))
        if kind is ChunkRelay:
            key = waiter.key
            if key is not None:
                # ``check_payload`` vouched for the bits at the fabric's
                # door, so this is ``monitor.record`` without its check.
                current = waiter.monitor._current
                current[key] = current.get(key, 0.0) + chunk
            downstream = waiter.downstream
            if downstream:
                for stage in downstream:
                    received = stage.received
                    stage.received = received + 1
                    if received == stage.sent:
                        stage.chunk = (stage.chunk_bits
                                       if received < stage.n - 1
                                       else stage.last)
                        channel = stage.channel
                        if channel._active is None:
                            channel._busy_since = now
                            channel._hold(stage)
                        else:
                            channel._waiting.append(stage)
            elif sent == waiter.n:
                waiter.transfer.leg_done(waiter.tail_s)
        elif kind is ChunkChain:
            stage = waiter.stage
            keys = waiter.keys
            if keys is not None:
                key = keys[stage]
                if key is not None:
                    current = waiter.monitor._current
                    current[key] = current.get(key, 0.0) + chunk
            stage += 1
            route = waiter.route
            if stage < len(route):
                waiter.stage = stage
                channel = route[stage]
                if channel._active is None:
                    channel._busy_since = now
                    channel._hold(waiter)
                else:
                    channel._waiting.append(waiter)
            elif waiter.branches is None:
                waiter.transfer.leg_done(waiter.tail_s)
            else:
                # The fan-out: one leg per destination, in order, this
                # chain going on as the first.
                branches = waiter.branches
                waiter.branches = None
                for index, (route, keys) in enumerate(branches):
                    if index:
                        leg = ChunkChain(chunk, route, keys, waiter.monitor,
                                         waiter.transfer, waiter.tail_s,
                                         None)
                    else:
                        leg = waiter
                        waiter.route = route
                        waiter.keys = keys
                        waiter.stage = 0
                    route[0].carry(leg)
        else:
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
    ``tail_s``.  The channel's completion does each of these steps; a
    chain is state only.
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
    chunk-by-chunk in strict channel FIFO.  The channel's completion
    does each of these steps; :meth:`feed` is only the first request.
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

    def feed(self, count: int) -> None:
        """The first request: ``count`` chunks reach the idle stage."""
        self.received = count
        self.chunk = self.chunk_bits if self.n > 1 else self.last
        self.channel.carry(self)


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
    if len(routes) == 1:
        (channels, tail_s), = routes
        done = Transfer(env, 1, 0.0 if tail_s is None else tail_s)
        if bits == 0:
            done.succeed()
        else:
            send_payload(done, bits, chunk_bits, channels)
        return done
    done = Transfer(env, len(routes), 0.0)
    if bits == 0:
        done.succeed()
        return done
    for channels, tail_s in routes:
        send_payload(done, bits, chunk_bits, channels, tail_s=tail_s)
    return done

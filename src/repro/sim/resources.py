"""Shared-resource primitives for the simulation kernel.

* :class:`Resource` — counted semaphore with FIFO queueing; models
  routers, gateway front-ends, memory ports.
* :class:`BandwidthChannel` — a serial transmission medium: each transfer
  occupies the channel for ``bits / bandwidth`` seconds, FIFO.  Models a
  waveguide (with its wavelength comb aggregated into one bandwidth
  figure) or an electrical link.  Bandwidth may be changed at runtime —
  that is exactly what the reconfiguration controllers do — and in-flight
  transfers are unaffected (they were admitted at the old rate).
* :class:`ChunkRelay` — one store-and-forward pipeline stage over a
  channel, driven by callbacks; :func:`relay_payload` chains relays
  along routes of channels.  Every interposer fabric moves its chunks
  this way: a chunk costs one kernel event per channel it crosses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Sequence

from ..errors import SimulationError
from .core import Environment, Event


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

    The channel is callback-driven rather than process-driven: a
    transfer is ``(bits, fn)`` — the channel holds for the
    serialization time (computed when the transfer is *granted*, so
    queued transfers pick up rate changes and in-flight ones do not),
    then invokes ``fn``.  FIFO among all transfers.  This is the
    hottest path of every fabric simulation: one heap event per chunk,
    no coroutine frame, no per-chunk resource events.  Fabrics drive it
    through :class:`ChunkRelay` stages.
    """

    __slots__ = ("env", "name", "_bandwidth_bps", "_waiting", "_busy",
                 "_busy_since", "_busy_time", "_active_bits", "_active_fn",
                 "_complete_cb", "bits_transferred", "transfer_count")

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
        self._waiting: Deque[tuple[float, Any]] = deque()
        self._busy = False
        self._busy_since: float | None = None
        self._busy_time = 0.0
        self._active_bits = 0.0
        self._active_fn: Any = None
        self._complete_cb = self._complete  # bind once, reuse per chunk
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

    def request_transfer(self, bits: float, fn) -> None:
        """Queue one transfer; ``fn()`` runs when it completes.

        Grants immediately on an idle channel, otherwise queues FIFO
        behind every earlier transfer.
        """
        if bits < 0:
            raise SimulationError("cannot transfer negative bits")
        if self._busy:
            self._waiting.append((bits, fn))
            return
        self._busy = True
        self._busy_since = self.env.now
        self._start(bits, fn)

    def _start(self, bits: float, fn) -> None:
        # Hold time is locked in at grant time: later rate changes only
        # affect transfers still waiting.
        self._active_bits = bits
        self._active_fn = fn
        timeout = self.env.timeout(bits / self._bandwidth_bps)
        timeout.callbacks = self._complete_cb

    def _complete(self, _event: Event) -> None:
        bits = self._active_bits
        fn = self._active_fn
        self.bits_transferred += bits
        self.transfer_count += 1
        if self._waiting:
            next_bits, next_fn = self._waiting.popleft()
            self._start(next_bits, next_fn)
        else:
            self._busy = False
            self._busy_time += self.env.now - self._busy_since
            self._busy_since = None
            self._active_fn = None
        fn()

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


class ChunkRelay:
    """One pipeline stage: chunks through a channel, handed downstream.

    Chunks fed to the stage cross ``channel`` one at a time, in feed
    order.  As each completes, the stage requests its next queued chunk,
    records the finished one against ``monitor`` under ``key`` (when a
    key is given), hands it to ``deliver`` (when set), and calls
    ``on_complete()`` after the last of ``remaining`` chunks.  With one
    chunk in flight at a time, the private queue never occupies the
    channel, and concurrent messages interleave chunk-by-chunk in strict
    channel FIFO.  A chunk costs one kernel event: the channel's hold
    timeout.
    """

    __slots__ = ("channel", "monitor", "key", "deliver", "remaining",
                 "on_complete", "_queue", "_busy", "_current", "_advance_cb")

    def __init__(self, channel: BandwidthChannel, monitor, key, deliver,
                 remaining: int, on_complete):
        self.channel = channel
        self.monitor = monitor
        self.key = key
        self.deliver = deliver
        self.remaining = remaining
        self.on_complete = on_complete
        self._queue: deque = deque()
        self._busy = False
        self._current = 0.0
        self._advance_cb = self._advance  # bind once, reuse per chunk

    def feed(self, chunk: float) -> None:
        if self._busy:
            self._queue.append(chunk)
            return
        self._busy = True
        self._current = chunk
        self.channel.request_transfer(chunk, self._advance_cb)

    def _advance(self) -> None:
        chunk = self._current
        # Re-request before delivering: the channel has already granted
        # its next waiter, so this queues fairly behind other messages.
        if self._queue:
            nxt = self._queue.popleft()
            self._current = nxt
            self.channel.request_transfer(nxt, self._advance_cb)
        else:
            self._busy = False
        if self.key is not None:
            self.monitor.record(self.key, chunk)
        if self.deliver is not None:
            self.deliver(chunk)
        self.remaining -= 1
        if self.remaining == 0 and self.on_complete is not None:
            self.on_complete()


def split_chunks(bits: float, chunk_bits: float) -> list[float]:
    """Split a payload into ``chunk_bits`` chunks, the last one partial."""
    if bits <= 0:
        return []
    full, remainder = divmod(bits, chunk_bits)
    chunks = [chunk_bits] * int(full)
    if remainder > 0:
        chunks.append(remainder)
    return chunks


def relay_payload(
    env: Environment, bits: float, chunk_bits: float,
    routes: Sequence[tuple[Sequence[BandwidthChannel], float | None]],
) -> Event:
    """Carry one payload store-and-forward along every route at once.

    Each route is ``(channels, tail_s)``.  The payload, split into
    ``chunk_bits`` chunks, crosses the channels in order through one
    :class:`ChunkRelay` per channel; once the last channel has carried
    every chunk, the route waits ``tail_s`` more (propagation,
    conversion) unless it is ``None``.  The returned event fires when
    every route has finished — at once, with no tail, for an empty
    payload.  A lone route's tail fires the event itself.
    """
    done = Event(env)
    chunks = split_chunks(bits, chunk_bits)
    if not chunks:
        done.succeed()
        return done
    n = len(chunks)
    if len(routes) == 1:
        arrived = done.succeed

        def after(tail_s):
            return lambda: done.succeed_after(tail_s)
    else:
        pending = [len(routes)]

        def arrived():
            pending[0] -= 1
            if pending[0] == 0:
                done.succeed()

        def fire(_event: Event) -> None:
            arrived()

        def after(tail_s):
            def drained():
                env.timeout(tail_s).callbacks = fire
            return drained

    for channels, tail_s in routes:
        drained = arrived if tail_s is None else after(tail_s)
        stage = ChunkRelay(channels[-1], None, None, None, n, drained)
        for channel in reversed(channels[:-1]):
            stage = ChunkRelay(channel, None, None, stage.feed, n, None)
        for chunk in chunks:
            stage.feed(chunk)
    return done

"""The one-callback chunk hop against a reference copy of the per-call hop.

A channel's completion moves its chunk on to the next stage itself.
Before that, every hop was a chain of calls: the channel's completion
called ``waiter.cleared()``, a chain or relay then recorded its chunk
through ``monitor.record`` and requested the next channel through
``carry`` and ``_hold``, and a relay ``feed``-ed each downstream stage.
The reference classes below are that per-call hop, kept as the oracle.
Both run random transfer programs on the same kernel, and every
transfer must fire at the same instant and in the same order, every
channel must count the same bits, transfers and busy time, the epoch
monitor must hold the same history and the kernel must make the same
insertions.
"""

from __future__ import annotations

import heapq
from collections import deque

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.core import Environment
from repro.sim.resources import BandwidthChannel, Transfer, send_payload
from repro.sim.stats import EpochTrafficMonitor

CHUNK_BITS = 1000.0
EPOCH_S = 2.5e-6
HORIZON_S = 60e-6
KEYS = ("a", "b", "c")


# ---------------------------------------------------------------------------
# The reference: the per-call hop.
# ---------------------------------------------------------------------------


class RefChannel:
    """A serial channel whose completion calls ``waiter.cleared()``."""

    def __init__(self, env: Environment, bandwidth_bps: float):
        self.env = env
        self._bandwidth_bps = bandwidth_bps
        self._waiting = deque()
        self._active = None
        self._busy_since = None
        self._busy_time = 0.0
        self.callbacks = None
        self._processed = False
        self.bits_transferred = 0.0
        self.transfer_count = 0

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        self._bandwidth_bps = bandwidth_bps

    def carry(self, waiter) -> None:
        if self._active is not None:
            self._waiting.append(waiter)
            return
        self._busy_since = self.env._now
        self._hold(waiter)

    def _hold(self, waiter) -> None:
        self._active = waiter
        self.callbacks = _ref_complete
        env = self.env
        seq = env._sequence = env._sequence + 1
        delay = waiter.chunk / self._bandwidth_bps
        if delay == 0.0:
            env._immediate.append((seq, self))
        else:
            heapq.heappush(env._queue, (env._now + delay, seq, self))

    def _fire(self) -> None:
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
        total = self._busy_time
        if self._busy_since is not None:
            total += self.env.now - self._busy_since
        return total


_ref_complete = RefChannel._complete


class RefChain:
    """A one-chunk payload: records, then requests its next channel."""

    def __init__(self, chunk, route, keys, monitor, transfer, tail_s,
                 branches):
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
        if self.keys is not None and self.keys[stage] is not None:
            self.monitor.record(self.keys[stage], self.chunk)
        stage += 1
        if stage < len(self.route):
            self.stage = stage
            self.route[stage].carry(self)
            return
        branches = self.branches
        if branches is None:
            self.transfer.leg_done(self.tail_s)
            return
        self.branches = None
        for index, (route, keys) in enumerate(branches):
            if index:
                leg = RefChain(self.chunk, route, keys, self.monitor,
                               self.transfer, self.tail_s, None)
            else:
                leg = self
                self.route, self.keys, self.stage = route, keys, 0
            route[0].carry(leg)


class RefRelay:
    """One stage of a multi-chunk payload: re-requests its channel,
    records, then feeds each downstream stage."""

    def __init__(self, channel, key, monitor, downstream, transfer, tail_s,
                 n, chunk_bits, last):
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
        idle = self.received == self.sent
        self.received += count
        if idle:
            self.chunk = (self.chunk_bits if self.sent < self.n - 1
                          else self.last)
            self.channel.carry(self)

    def cleared(self) -> None:
        chunk = self.chunk
        sent = self.sent = self.sent + 1
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


def ref_send_payload(transfer, bits, chunk_bits, route, keys=None,
                     monitor=None, tail_s=None, branches=None) -> None:
    if bits <= chunk_bits:
        route[0].carry(RefChain(bits, route, keys, monitor, transfer,
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
            _ref_relays(leg, leg_keys, monitor, (), transfer, tail_s, n,
                        chunk_bits, last)
            for leg, leg_keys in branches
        )
    _ref_relays(route, keys, monitor, downstream, transfer, tail_s, n,
                chunk_bits, last).feed(n)


def _ref_relays(route, keys, monitor, downstream, transfer, tail_s, n,
                chunk_bits, last):
    for index in range(len(route) - 1, -1, -1):
        key = None if keys is None else keys[index]
        relay = RefRelay(route[index], key, monitor, downstream, transfer,
                         tail_s, n, chunk_bits, last)
        downstream = (relay,)
    return relay


# ---------------------------------------------------------------------------
# Random transfer programs.
# ---------------------------------------------------------------------------

BANDWIDTHS = (2e8, 5e8, 1e9, 2e9)
INSTANTS = (0.0, 1e-6, 2e-6, 5e-6)


@st.composite
def legs(draw, n_channels: int, max_stages: int):
    """One route: channel indexes and, optionally, a monitor key each."""
    stages = draw(st.lists(st.integers(0, n_channels - 1), min_size=1,
                           max_size=max_stages))
    keys = None
    if draw(st.booleans()):
        keys = tuple(draw(st.sampled_from((None,) + KEYS)) for _ in stages)
    return tuple(stages), keys


@st.composite
def payloads(draw, n_channels: int):
    chunks = draw(st.one_of(
        st.floats(0.3, 5.5, allow_nan=False),
        st.sampled_from((1.0, 2.0, 3.0, 4.0, 5.0)),
    ))
    route, keys = draw(legs(n_channels, 4))
    branches = None
    if draw(st.booleans()):
        branches = tuple(draw(st.lists(legs(n_channels, 2), min_size=2,
                                       max_size=3)))
    return {
        "at_s": draw(st.sampled_from(INSTANTS)),
        "bits": chunks * CHUNK_BITS,
        "route": route,
        "keys": keys,
        "branches": branches,
        "tail_s": draw(st.sampled_from((0.0, 1e-7))),
        "leg_tail_s": draw(st.sampled_from((None, 1e-7))),
    }


@st.composite
def programs(draw):
    n_channels = draw(st.integers(2, 6))
    return {
        "bandwidths": tuple(draw(st.sampled_from(BANDWIDTHS))
                            for _ in range(n_channels)),
        "payloads": draw(st.lists(payloads(n_channels), min_size=1,
                                  max_size=12)),
        "rate_changes": draw(st.lists(
            st.tuples(st.sampled_from(INSTANTS + (3e-6, 7.5e-6)),
                      st.integers(0, n_channels - 1),
                      st.sampled_from(BANDWIDTHS)),
            max_size=3,
        )),
    }


def replay(program: dict, channel_cls, send) -> dict:
    """Run ``program`` through ``channel_cls`` channels and ``send``;
    return everything the two hops must agree on."""
    env = Environment()
    channels = [channel_cls(env, bandwidth)
                for bandwidth in program["bandwidths"]]
    monitor = EpochTrafficMonitor(env, EPOCH_S)
    fired: list[tuple[int, float]] = []

    def epochs():
        while env.now < HORIZON_S:
            yield env.timeout(EPOCH_S)
            monitor.close_epoch()

    env.process(epochs())

    def start(index: int, payload: dict) -> None:
        branches = payload["branches"]
        legs_out = 1 if branches is None else len(branches)
        done = Transfer(env, legs_out, payload["tail_s"])
        done.callbacks = lambda _event: fired.append((index, env.now))
        send(
            done, payload["bits"], CHUNK_BITS,
            [channels[stage] for stage in payload["route"]],
            payload["keys"], monitor, payload["leg_tail_s"],
            None if branches is None else tuple(
                ([channels[stage] for stage in route], keys)
                for route, keys in branches
            ),
        )

    for index, payload in enumerate(program["payloads"]):
        env.timeout(payload["at_s"]).callbacks = (
            lambda _event, index=index, payload=payload:
                start(index, payload)
        )
    for at_s, channel, bandwidth in program["rate_changes"]:
        env.timeout(at_s).callbacks = (
            lambda _event, channel=channels[channel], bandwidth=bandwidth:
                channel.set_bandwidth(bandwidth)
        )
    env.run()
    return {
        "fired": fired,
        "channels": [
            (channel.bits_transferred, channel.transfer_count,
             channel.busy_time())
            for channel in channels
        ],
        "history": [list(epoch.items())
                    for epoch in monitor.history + [monitor._current]],
        "sequence": env._sequence,
    }


class TestHopMatchesThePerCallReference:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(programs())
    def test_random_programs_replay_alike(self, program):
        production = replay(program, BandwidthChannel, send_payload)
        reference = replay(program, RefChannel, ref_send_payload)
        assert len(production["fired"]) == len(program["payloads"])
        assert production == reference

    def test_a_contended_relay_queues_behind_the_granted_waiter(self):
        """Three payloads tied at one instant on one shared channel: the
        relay's re-request must queue behind the waiter the channel just
        granted, and downstream delivery must follow both."""
        program = {
            "bandwidths": (1e9, 1e9, 2e9),
            "payloads": [
                {"at_s": 0.0, "bits": 3 * CHUNK_BITS, "route": (0, 1),
                 "keys": ("a", "b"), "branches": None, "tail_s": 0.0,
                 "leg_tail_s": None},
                {"at_s": 0.0, "bits": 2.5 * CHUNK_BITS, "route": (0, 0, 2),
                 "keys": None, "branches": (((1,), None), ((2,), ("c",))),
                 "tail_s": 1e-7, "leg_tail_s": None},
                {"at_s": 0.0, "bits": 0.5 * CHUNK_BITS, "route": (0, 2),
                 "keys": ("a", None), "branches": None, "tail_s": 0.0,
                 "leg_tail_s": 1e-7},
            ],
            "rate_changes": [(1e-6, 0, 5e8)],
        }
        production = replay(program, BandwidthChannel, send_payload)
        assert production == replay(program, RefChannel, ref_send_payload)
        assert len(production["fired"]) == 3

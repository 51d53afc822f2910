"""One transfer contract for every interposer fabric.

The monolithic NoC, the electrical mesh, the AWGR interposer and the
silicon-photonic interposer all move payloads as chunks relayed
store-and-forward through FIFO bandwidth channels.  These tests pin the
behaviour they share: payload checks, pipeline timing, the kernel cost
of a chunk, conservation under overlapping traffic, and transfers that
leave no cyclic garbage behind.
"""

import gc
import math
import random

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.core.crosslight import MonolithicFabric
from repro.errors import SimulationError
from repro.interposer.electrical.mesh import ElectricalMeshFabric
from repro.interposer.photonic.awgr import AWGRInterposerFabric
from repro.interposer.photonic.fabric import PhotonicInterposerFabric
from repro.interposer.topology import build_floorplan
from repro.sim.core import Environment

FLOORPLAN = build_floorplan(DEFAULT_PLATFORM)
CHIPLETS = tuple(site.chiplet_id for site in FLOORPLAN.compute_sites)
FABRICS = (MonolithicFabric, ElectricalMeshFabric, AWGRInterposerFabric,
           PhotonicInterposerFabric)


def make(fabric_cls, env):
    if fabric_cls is MonolithicFabric:
        return MonolithicFabric(env, DEFAULT_PLATFORM)
    return fabric_cls(env, DEFAULT_PLATFORM, FLOORPLAN)


def stages(fabric, kind, chiplet):
    """(channels in pipeline order, tail seconds) of a lone transfer."""
    if isinstance(fabric, MonolithicFabric):
        if kind == "read_weights":
            return [fabric.dram_channel], 0.0
        return [fabric.noc_channel], 0.0
    reading = kind != "write"
    if isinstance(fabric, ElectricalMeshFabric):
        hops = FLOORPLAN.manhattan_hops("mem-0", chiplet)
        tail = fabric._per_hop_latency_s() * max(1, hops)
        if reading:
            return ([fabric.hbm_channel]
                    + fabric._xy_route("mem-0", chiplet), tail)
        return fabric._xy_route(chiplet, "mem-0") + [fabric.hbm_channel], tail
    if isinstance(fabric, AWGRInterposerFabric):
        if reading:
            return ([fabric.hbm_channel, fabric._channel("mem-0", chiplet)],
                    fabric._transfer_tail_s)
        return ([fabric._channel(chiplet, "mem-0"), fabric.hbm_channel],
                fabric._transfer_tail_s)
    if reading:
        return ([fabric.hbm_channel, fabric.memory_write_channel,
                 fabric.chiplet_read_channels[chiplet]],
                fabric._transfer_tail_s)
    return ([fabric.chiplet_write_channels[chiplet], fabric.hbm_channel],
            fabric._transfer_tail_s)


def transfer(fabric, kind, chiplet, bits, multicast=None):
    if kind == "read":
        return fabric.read(chiplet, bits, multicast=multicast)
    return getattr(fabric, kind)(chiplet, bits)


def multicast_stages(fabric, chiplets):
    """(channels every destination shares, then per destination its own
    channels and the tail it waits before counting as arrived) of a lone
    multicast read."""
    if isinstance(fabric, MonolithicFabric):
        return [fabric.noc_channel], [([], 0.0)]  # one on-die stream
    if isinstance(fabric, PhotonicInterposerFabric):
        return ([fabric.hbm_channel, fabric.memory_write_channel],
                [([fabric.chiplet_read_channels[chiplet]],
                  fabric._transfer_tail_s) for chiplet in chiplets])
    return [], [stages(fabric, "read", chiplet) for chiplet in chiplets]


def store_and_forward_end(channels, chunks, free_at=None, start_s=0.0):
    """When the last of ``chunks`` (all ready at ``start_s``) clears the
    last of ``channels``.  A chunk starts on a channel at the later of
    its arrival and that channel's previous finish; ``free_at`` carries
    each channel's last finish across calls."""
    free_at = {} if free_at is None else free_at
    end_s = start_s
    for chunk in chunks:
        at_s = start_s
        for channel in channels:
            at_s = (max(at_s, free_at.get(channel, 0.0))
                    + chunk / channel.bandwidth_bps)
            free_at[channel] = at_s
        end_s = at_s
    return end_s


def counters(fabric):
    """Every payload counter a fabric keeps."""
    return {name: getattr(fabric, name)
            for name in ("bits_read", "bits_written", "hop_bits", "mm_bits",
                         "weight_bits_moved") if hasattr(fabric, name)}


@pytest.mark.parametrize("fabric_cls", FABRICS)
class TestTransferContract:
    @pytest.mark.parametrize("kind", ("read", "write", "read_weights"))
    def test_empty_payload_fires_now(self, fabric_cls, kind):
        env = Environment()
        fabric = make(fabric_cls, env)
        env.run(until=1e-6)
        done = transfer(fabric, kind, "3x3 conv-2", 0.0)
        assert done.triggered
        env.run()
        assert done.processed
        assert env.now == 1e-6

    @pytest.mark.parametrize("kind", ("read", "write", "read_weights"))
    @pytest.mark.parametrize("n_chunks", (1, 2, 2.5, 4))
    def test_four_chunks_finish_at_store_and_forward_time(self, fabric_cls,
                                                          kind, n_chunks):
        """One-chunk chains and multi-chunk relays keep one timing rule."""
        env = Environment()
        fabric = make(fabric_cls, env)
        channels, tail = stages(fabric, kind, "3x3 conv-2")
        chunks = [fabric.chunk_bits] * int(n_chunks)
        if n_chunks % 1:
            chunks.append(fabric.chunk_bits * (n_chunks % 1))
        done = transfer(fabric, kind, "3x3 conv-2",
                        n_chunks * fabric.chunk_bits)
        env.run_until_event(done)
        expected = store_and_forward_end(channels, chunks) + tail
        assert env.now == pytest.approx(expected, rel=1e-12)

    def test_one_chunk_multicast_ends_at_slowest_destination(self,
                                                             fabric_cls):
        env = Environment()
        fabric = make(fabric_cls, env)
        group = ("3x3 conv-2", "dense100-0", "5x5 conv-1")
        bits = fabric.chunk_bits / 3
        shared, legs = multicast_stages(fabric, group)
        free_at = {}
        shared_end = store_and_forward_end(shared, [bits], free_at)
        expected = max(
            store_and_forward_end(channels, [bits], free_at, shared_end)
            + tail
            for channels, tail in legs
        )
        done = fabric.read(group[0], bits, multicast=group)
        env.run_until_event(done)
        assert env.now == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ("read", "write", "read_weights"))
    @pytest.mark.parametrize("bits", (-1.0, math.nan, math.inf))
    def test_bad_payload_raises_before_any_counter_moves(self, fabric_cls,
                                                         kind, bits):
        env = Environment()
        fabric = make(fabric_cls, env)
        before = counters(fabric)
        with pytest.raises(SimulationError, match="payload"):
            transfer(fabric, kind, "3x3 conv-2", bits)
        assert counters(fabric) == before
        assert env._sequence == 0
        assert all(channel.transfer_count == 0 and channel.queue_length == 0
                   for channel in fabric.iter_channels())

    def test_one_chunk_read_kernel_cost(self, fabric_cls):
        """One kernel event per channel crossed, plus one for the tail
        (which fires the completion itself) or, with no tail, for the
        completion: no process per chunk."""
        budget = {MonolithicFabric: 2, ElectricalMeshFabric: 6,
                  AWGRInterposerFabric: 3, PhotonicInterposerFabric: 4}
        env = Environment()
        fabric = make(fabric_cls, env)
        done = fabric.read("3x3 conv-2", fabric.chunk_bits / 2)
        env.run()
        assert done.processed
        assert env._sequence <= budget[fabric_cls]

    def test_overlapping_traffic_conserves_and_never_speeds_up(self,
                                                               fabric_cls):
        rng = random.Random(20)
        instants = [index * 2e-6 for index in range(12)]
        operations = []
        for _ in range(50):
            kind = rng.choice(("read", "multicast", "write",
                               "read_weights"))
            chiplet = rng.choice(CHIPLETS)
            group = None
            if kind == "multicast":
                group = tuple(rng.sample(CHIPLETS, 3))
                kind, chiplet = "read", group[0]
            bits = rng.choice((1e4, 2.5e5, 6e5, 1.3e6))
            operations.append(
                (rng.choice(instants), kind, chiplet, bits, group)
            )

        alone_s = []
        alone_bits: dict[str, float] = {}
        for _, kind, chiplet, bits, group in operations:
            env = Environment()
            fabric = make(fabric_cls, env)
            done = transfer(fabric, kind, chiplet, bits, group)
            env.run_until_event(done)
            alone_s.append(env.now)
            for channel in fabric.iter_channels():
                alone_bits[channel.name] = (
                    alone_bits.get(channel.name, 0.0)
                    + channel.bits_transferred
                )

        env = Environment()
        fabric = make(fabric_cls, env)
        finished = [[] for _ in operations]

        def client(index, at_s, kind, chiplet, bits, group):
            yield env.timeout(at_s)
            yield transfer(fabric, kind, chiplet, bits, group)
            finished[index].append(env.now - at_s)

        for index, operation in enumerate(operations):
            env.process(client(index, *operation))
        env.run()

        assert all(len(times) == 1 for times in finished)
        for (elapsed,), alone in zip(finished, alone_s):
            assert elapsed >= alone * (1 - 1e-12)
        together = {channel.name: channel
                    for channel in fabric.iter_channels()}
        assert set(together) == set(alone_bits)
        for name, channel in together.items():
            assert channel.bits_transferred == pytest.approx(
                alone_bits[name], rel=1e-12
            )
            assert channel.busy_time() == pytest.approx(
                channel.bits_transferred / channel.bandwidth_bps, rel=1e-9
            )

    def test_transfers_leave_no_cyclic_garbage(self, fabric_cls):
        """A finished transfer is freed by reference counting alone."""
        env = Environment()
        fabric = make(fabric_cls, env)
        pair = ("3x3 conv-2", "dense100-0")
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(200):
                fabric.write(pair[0], fabric.chunk_bits / 2)
                fabric.read(pair[0], fabric.chunk_bits / 2, multicast=pair)
                fabric.read(pair[1], 4 * fabric.chunk_bits)
                env.run()
            garbage = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
        assert garbage == 0
        assert fabric.bits_written > 0

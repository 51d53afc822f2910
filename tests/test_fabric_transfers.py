"""One transfer contract for every interposer fabric.

The monolithic NoC, the electrical mesh, the AWGR interposer and the
silicon-photonic interposer all move payloads as chunks relayed
store-and-forward through FIFO bandwidth channels.  These tests pin the
behaviour they share: empty payloads, pipeline timing, the kernel cost
of a chunk, and conservation under overlapping traffic.
"""

import random

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.core.crosslight import MonolithicFabric
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


def issue(fabric, kind, chiplet, bits, multicast=None):
    if kind == "read":
        return fabric.read(chiplet, bits, multicast=multicast)
    return getattr(fabric, kind)(chiplet, bits)


@pytest.mark.parametrize("fabric_cls", FABRICS)
class TestTransferContract:
    @pytest.mark.parametrize("kind", ("read", "write", "read_weights"))
    def test_empty_payload_fires_now(self, fabric_cls, kind):
        env = Environment()
        fabric = make(fabric_cls, env)
        env.run(until=1e-6)
        done = issue(fabric, kind, "3x3 conv-2", 0.0)
        assert done.triggered
        env.run()
        assert done.processed
        assert env.now == 1e-6

    @pytest.mark.parametrize("kind", ("read", "write", "read_weights"))
    def test_four_chunks_finish_at_store_and_forward_time(self, fabric_cls,
                                                          kind):
        env = Environment()
        fabric = make(fabric_cls, env)
        channels, tail = stages(fabric, kind, "3x3 conv-2")
        chunk_times = [fabric.chunk_bits / channel.bandwidth_bps
                       for channel in channels]
        done = issue(fabric, kind, "3x3 conv-2", 4 * fabric.chunk_bits)
        env.run_until_event(done)
        expected = sum(chunk_times) + 3 * max(chunk_times) + tail
        assert env.now == pytest.approx(expected, rel=1e-12)

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
            done = issue(fabric, kind, chiplet, bits, group)
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
            yield issue(fabric, kind, chiplet, bits, group)
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

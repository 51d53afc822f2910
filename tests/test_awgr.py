"""AWGR interposer fabric and platform variant."""

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.core.awgr import CrossLight25DAWGR
from repro.core.siph import CrossLight25DSiPh
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.interposer.photonic.awgr import (
    AWGRInterposerFabric,
    awgr_link_budget,
)
from repro.interposer.topology import build_floorplan
from repro.sim.core import Environment


def make_awgr():
    env = Environment()
    floorplan = build_floorplan(DEFAULT_PLATFORM)
    fabric = AWGRInterposerFabric(env, DEFAULT_PLATFORM, floorplan)
    return env, fabric


class TestFabric:
    def test_wavelength_slice(self):
        _, fabric = make_awgr()
        # 64 wavelengths over 9 ports -> 7 per ordered pair.
        assert fabric.n_ports == 9
        assert fabric.wavelengths_per_pair == 7

    def test_pair_channel_bandwidth(self):
        _, fabric = make_awgr()
        channel = fabric._channel("mem-0", "3x3 conv-0")
        assert channel.bandwidth_bps == pytest.approx(7 * 12e9)

    def test_read_completes(self):
        env, fabric = make_awgr()
        done = fabric.read("3x3 conv-0", 1e6)
        env.run()
        assert done.processed
        assert fabric.bits_read == 1e6

    def test_write_completes(self):
        env, fabric = make_awgr()
        done = fabric.write("5x5 conv-0", 1e6)
        env.run()
        assert done.processed

    def test_multicast_is_parallel_not_shared(self):
        """Per-pair channels replicate traffic but run concurrently."""
        group = ("3x3 conv-0", "3x3 conv-1", "3x3 conv-2")
        env1, fabric1 = make_awgr()
        fabric1.read(group[0], 5e6)
        t_one = env1.run()
        env2, fabric2 = make_awgr()
        fabric2.read(group[0], 5e6, multicast=group)
        t_three = env2.run()
        assert fabric2.bits_read == pytest.approx(15e6)
        # Dedicated slices: three destinations barely slower than one
        # (HBM stage is shared, pair channels are not).
        assert t_three < 2.0 * t_one

    def test_reads_to_distinct_destinations_do_not_contend(self):
        env, fabric = make_awgr()
        fabric.read("3x3 conv-0", 10e6)
        fabric.read("3x3 conv-1", 10e6)
        total = env.run()
        single_pair_time = 10e6 / (7 * 12e9)
        # Far less than serial (2x) execution on one shared channel.
        assert total < 1.6 * single_pair_time

    def test_slower_than_resipi_per_destination(self):
        """The hub-pattern disadvantage: one destination gets only its
        slice, while the ReSiPI fabric can focus full gateways."""
        from repro.interposer.photonic.fabric import (
            PhotonicInterposerFabric,
        )

        env1, awgr = make_awgr()
        awgr.read("3x3 conv-0", 100e6)
        t_awgr = env1.run()

        env2 = Environment()
        floorplan = build_floorplan(DEFAULT_PLATFORM)
        resipi = PhotonicInterposerFabric(env2, DEFAULT_PLATFORM, floorplan)
        resipi.read("3x3 conv-0", 100e6)
        t_resipi = env2.run()
        assert t_awgr > 3.0 * t_resipi

    def test_energy_report_always_on(self):
        env, fabric = make_awgr()
        fabric.read("7x7 conv-0", 1e6)
        env.run()
        report = fabric.energy_report()
        assert report.static_energy_j > 0
        assert report.dynamic_energy_j > 0
        assert "ring_trimming" in report.breakdown_j

    def test_link_budget_contains_awgr_loss(self, floorplan):
        budget = awgr_link_budget(DEFAULT_PLATFORM, floorplan)
        assert budget.breakdown()["awgr"] == 3.0
        assert budget.total_loss_db > 5.0


class TestPlatform:
    @pytest.fixture(scope="class")
    def results(self):
        workload = extract_workload(zoo.build("MobileNetV2"))
        return {
            "awgr": CrossLight25DAWGR().run_workload(workload),
            "resipi": CrossLight25DSiPh().run_workload(workload),
        }

    def test_runs_and_reports(self, results):
        awgr = results["awgr"]
        assert awgr.platform == "2.5D-CrossLight-AWGR"
        assert awgr.latency_s > 0
        assert awgr.total_energy_j > 0

    def test_hub_traffic_favors_resipi(self, results):
        assert results["resipi"].latency_s < results["awgr"].latency_s

    def test_no_reconfigurations_on_passive_awgr(self, results):
        assert results["awgr"].reconfigurations == 0

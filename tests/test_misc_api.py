"""Small API contracts not covered elsewhere."""

import pytest

from repro import __version__
from repro.core.metrics import EnergyBreakdown, InferenceResult
from repro.dnn.layers import Conv2D, LayerStats
from repro.interposer.base import NetworkEnergyReport
from repro.photonics.modulation import SCHEMES, ModulationScheme
from repro.sim.core import Environment
from repro.sim.resources import BandwidthChannel


class TestPackage:
    def test_version(self):
        assert __version__ == "1.0.0"

    def test_top_level_exports(self):
        import repro

        assert hasattr(repro, "CrossLight25DSiPh")
        assert hasattr(repro, "PlatformConfig")


class TestNetworkEnergyReport:
    def test_totals(self):
        report = NetworkEnergyReport(
            elapsed_s=2.0, static_energy_j=4.0, dynamic_energy_j=2.0
        )
        assert report.total_energy_j == 6.0
        assert report.average_power_w == pytest.approx(3.0)

    def test_zero_elapsed(self):
        report = NetworkEnergyReport(
            elapsed_s=0.0, static_energy_j=0.0, dynamic_energy_j=0.0
        )
        assert report.average_power_w == 0.0


class TestFabricBaseDefaults:
    def test_read_weights_delegates_to_read(self):
        from repro.interposer.base import InterposerFabric

        calls = []

        class Probe(InterposerFabric):
            def read(self, dst, bits, multicast=None):
                calls.append(("read", dst, bits))
                return Environment().event()

            def write(self, src, bits):
                return Environment().event()

            def energy_report(self):
                return NetworkEnergyReport(0.0, 0.0, 0.0)

        probe = Probe(Environment())
        probe.read_weights("c0", 128.0)
        assert calls == [("read", "c0", 128.0)]

    def test_total_bits_moved(self):
        from repro.interposer.base import InterposerFabric

        class Probe(InterposerFabric):
            def read(self, dst, bits, multicast=None):
                raise NotImplementedError

            def write(self, src, bits):
                raise NotImplementedError

            def energy_report(self):
                raise NotImplementedError

        probe = Probe(Environment())
        probe.bits_read = 10.0
        probe.bits_written = 5.0
        assert probe.total_bits_moved == 15.0


class TestResultFormatting:
    def _result(self):
        return InferenceResult(
            platform="TestPlat", model="TestModel", latency_s=1e-3,
            energy=EnergyBreakdown(1e-3, 1e-3, 1e-3, 1e-3, 1e-3),
            traffic_bits=1e6, layer_timeline=(),
        )

    def test_summary_row_fields(self):
        row = self._result().summary_row()
        assert "TestPlat" in row
        assert "TestModel" in row
        assert "ms" in row and "nJ/b" in row

    def test_derived_metrics(self):
        result = self._result()
        assert result.total_energy_j == pytest.approx(5e-3)
        assert result.average_power_w == pytest.approx(5.0)
        assert result.energy_per_bit_j == pytest.approx(5e-9)

    def test_zero_latency_guards(self):
        result = InferenceResult(
            platform="p", model="m", latency_s=0.0,
            energy=EnergyBreakdown(0, 0, 0, 0, 0),
            traffic_bits=0.0, layer_timeline=(),
        )
        assert result.average_power_w == 0.0
        assert result.energy_per_bit_j == 0.0
        assert result.throughput_inferences_per_s == 0.0


class TestMiscContracts:
    def test_modulation_registry(self):
        assert set(SCHEMES) == {
            ModulationScheme.OOK, ModulationScheme.PAM4,
        }

    def test_layer_repr(self):
        conv = Conv2D(4, 3, name="stem")
        assert "Conv2D" in repr(conv)
        assert "stem" in repr(conv)

    def test_layer_stats_elements(self):
        stats = LayerStats(
            name="x", kind="Conv2D", input_shapes=((4, 4, 2),),
            output_shape=(4, 4, 8), params=10, macs=100,
        )
        assert stats.input_elements == 32
        assert stats.output_elements == 128

    def test_channel_queue_length(self):
        env = Environment()
        channel = BandwidthChannel(env, 1.0)
        channel.request_transfer(10.0, lambda: None)
        channel.request_transfer(10.0, lambda: None)
        env.run(until=1.0)
        assert channel.queue_length >= 1

"""Platform models end-to-end: the three accelerators on real workloads."""

import pytest

from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.core.crosslight import MonolithicCrossLight, monolithic_mapping
from repro.core.elec import CrossLight25DElec
from repro.core.siph import CrossLight25DSiPh
from repro.dnn import zoo
from repro.dnn.quantization import QuantizationConfig
from repro.dnn.workload import extract_workload
from repro.errors import ConfigurationError
from repro.experiments.runner import PLATFORM_ORDER
from repro.studies.registry import PLATFORMS


class TestResultSanity:
    @pytest.mark.parametrize(
        "platform",
        ["CrossLight", "2.5D-CrossLight-Elec", "2.5D-CrossLight-SiPh"],
    )
    def test_positive_metrics(self, runner, platform):
        result = runner.run(platform, "LeNet5")
        assert result.latency_s > 0
        assert result.total_energy_j > 0
        assert result.average_power_w > 0
        assert result.energy_per_bit_j > 0
        assert result.traffic_bits > 0

    def test_timeline_covers_all_layers(self, lenet_results):
        for result in lenet_results.values():
            assert len(result.layer_timeline) == 5
            names = [t.name for t in result.layer_timeline]
            assert names == ["c1", "c3", "c5", "f6", "output"]

    def test_timeline_monotonic(self, lenet_results):
        for result in lenet_results.values():
            previous_end = 0.0
            for timing in result.layer_timeline:
                assert timing.start_s >= previous_end - 1e-12
                assert timing.end_s >= timing.start_s
                previous_end = timing.end_s

    def test_last_layer_ends_at_latency(self, lenet_results):
        for result in lenet_results.values():
            assert result.layer_timeline[-1].end_s == pytest.approx(
                result.latency_s, rel=1e-6
            )

    def test_energy_breakdown_sums(self, lenet_results):
        for result in lenet_results.values():
            e = result.energy
            assert e.total_j == pytest.approx(
                e.network_static_j + e.network_dynamic_j
                + e.compute_static_j + e.compute_dynamic_j
                + e.logic_static_j
            )

    def test_platform_names(self, lenet_results):
        assert set(lenet_results) == {
            "CrossLight", "2.5D-CrossLight-Elec", "2.5D-CrossLight-SiPh",
        }

    def test_siph_reconfigures_on_real_traffic(self, runner):
        result = runner.run("2.5D-CrossLight-SiPh", "MobileNetV2")
        assert result.reconfigurations > 0

    def test_all_platforms_registry(self):
        assert set(PLATFORM_ORDER) == {
            "CrossLight", "2.5D-CrossLight-Elec", "2.5D-CrossLight-SiPh",
        }
        for name in PLATFORM_ORDER:
            assert PLATFORMS.get(name)(DEFAULT_PLATFORM, "resipi").name == name


class TestPaperShapes:
    """Relative claims of Section VI, at per-model granularity."""

    @pytest.mark.parametrize(
        "model", ["MobileNetV2", "ResNet50", "DenseNet121", "VGG16"]
    )
    def test_siph_fastest_on_large_models(self, runner, model):
        siph = runner.run("2.5D-CrossLight-SiPh", model)
        mono = runner.run("CrossLight", model)
        elec = runner.run("2.5D-CrossLight-Elec", model)
        assert siph.latency_s < mono.latency_s < elec.latency_s

    def test_lenet_siph_loses_epb_edge(self, runner):
        siph = runner.run("2.5D-CrossLight-SiPh", "LeNet5")
        mono = runner.run("CrossLight", "LeNet5")
        assert siph.energy_per_bit_j >= 0.8 * mono.energy_per_bit_j

    @pytest.mark.parametrize(
        "model", ["LeNet5", "ResNet50", "VGG16"]
    )
    def test_elec_lowest_power(self, runner, model):
        elec = runner.run("2.5D-CrossLight-Elec", model)
        siph = runner.run("2.5D-CrossLight-SiPh", model)
        assert elec.average_power_w < siph.average_power_w

    def test_resipi_power_scales_with_model_size(self, runner):
        small = runner.run("2.5D-CrossLight-SiPh", "LeNet5")
        large = runner.run("2.5D-CrossLight-SiPh", "VGG16")
        assert small.average_power_w < large.average_power_w


class TestConfigurationVariants:
    def test_fewer_wavelengths_slower_reads(self):
        workload = extract_workload(zoo.build("MobileNetV2"))
        narrow = CrossLight25DSiPh(
            DEFAULT_PLATFORM.with_wavelengths(8)
        ).run_workload(workload)
        wide = CrossLight25DSiPh(
            DEFAULT_PLATFORM.with_wavelengths(64)
        ).run_workload(workload)
        assert narrow.latency_s >= wide.latency_s

    def test_static_controller_runs(self):
        workload = extract_workload(zoo.build("LeNet5"))
        result = CrossLight25DSiPh(controller="static").run_workload(workload)
        assert result.reconfigurations == 0

    def test_prowaves_controller_runs(self):
        workload = extract_workload(zoo.build("LeNet5"))
        result = CrossLight25DSiPh(controller="prowaves").run_workload(
            workload
        )
        assert result.latency_s > 0

    def test_unknown_controller_rejected(self):
        with pytest.raises(ConfigurationError):
            CrossLight25DSiPh(controller="oracle")

    def test_quantization_reduces_latency_on_comm_bound_platform(self):
        model = zoo.build("MobileNetV2")
        platform = CrossLight25DElec()
        full = platform.run_model(model, QuantizationConfig())
        slim = platform.run_model(
            model, QuantizationConfig(weight_bits=4, activation_bits=4)
        )
        assert slim.latency_s < full.latency_s

    def test_run_model_equals_run_workload(self):
        model = zoo.build("LeNet5")
        platform = MonolithicCrossLight()
        via_model = platform.run_model(model)
        via_workload = platform.run_workload(extract_workload(model))
        assert via_model.latency_s == pytest.approx(via_workload.latency_s)


class TestMonolithicMapping:
    def test_single_allocation_per_layer(self):
        workload = extract_workload(zoo.build("LeNet5"))
        mapping = monolithic_mapping(workload, DEFAULT_PLATFORM)
        for layer_mapping in mapping:
            assert len(layer_mapping.allocations) == 1
            alloc = layer_mapping.allocations[0]
            assert alloc.chiplet_id == "mono-0"
            assert alloc.n_macs == DEFAULT_PLATFORM.mono_n_vdp_units
            assert alloc.vector_length == DEFAULT_PLATFORM.mono_vector_length

    def test_full_traffic_on_single_die(self):
        workload = extract_workload(zoo.build("LeNet5"))
        mapping = monolithic_mapping(workload, DEFAULT_PLATFORM)
        for layer_mapping, layer in zip(mapping, workload):
            assert layer_mapping.allocations[0].weight_bits == (
                layer.weight_bits
            )

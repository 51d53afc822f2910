"""Batched inference semantics and the quantisation study."""

import pytest

from repro.core.crosslight import MonolithicCrossLight
from repro.core.siph import CrossLight25DSiPh
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.experiments.quantization_study import (
    quantization_schemes,
    quantization_study,
    render_quantization_study,
)


@pytest.fixture(scope="module")
def mobilenet_workload():
    return extract_workload(zoo.build("MobileNetV2"))


class TestBatching:
    def test_batch_one_is_default(self, mobilenet_workload):
        platform = CrossLight25DSiPh()
        explicit = platform.run_workload(mobilenet_workload, batch_size=1)
        implicit = platform.run_workload(mobilenet_workload)
        assert explicit.latency_s == pytest.approx(implicit.latency_s)
        assert implicit.batch_size == 1

    def test_invalid_batch_rejected(self, mobilenet_workload):
        with pytest.raises(ValueError):
            CrossLight25DSiPh().run_workload(mobilenet_workload,
                                             batch_size=0)

    def test_batch_amortises_per_image_latency(self, mobilenet_workload):
        platform = CrossLight25DSiPh()
        single = platform.run_workload(mobilenet_workload, batch_size=1)
        batched = platform.run_workload(mobilenet_workload, batch_size=8)
        assert batched.latency_per_inference_s <= (
            single.latency_per_inference_s * 1.001
        )
        assert batched.throughput_inferences_per_s >= (
            single.throughput_inferences_per_s * 0.999
        )

    def test_batch_total_latency_sublinear(self, mobilenet_workload):
        """Weights are fetched once: 8 images cost < 8x one image."""
        platform = MonolithicCrossLight()
        single = platform.run_workload(mobilenet_workload, batch_size=1)
        batched = platform.run_workload(mobilenet_workload, batch_size=8)
        assert batched.latency_s < 8 * single.latency_s

    def test_traffic_scales_with_batch(self, mobilenet_workload):
        platform = CrossLight25DSiPh()
        single = platform.run_workload(mobilenet_workload, batch_size=1)
        batched = platform.run_workload(mobilenet_workload, batch_size=4)
        assert batched.traffic_bits == pytest.approx(
            4 * single.traffic_bits
        )

    def test_trace_ops_scale_with_batch(self, mobilenet_workload):
        platform = MonolithicCrossLight()
        single = platform.run_workload(mobilenet_workload, batch_size=1)
        batched = platform.run_workload(mobilenet_workload, batch_size=3)
        # Compute energy triples with the batch.
        assert batched.energy.compute_dynamic_j == pytest.approx(
            3 * single.energy.compute_dynamic_j, rel=1e-6
        )


class TestQuantizationStudy:
    @pytest.fixture(scope="class")
    def points(self):
        return quantization_study("LeNet5")

    def test_four_schemes(self, points):
        assert len(points) == 4
        schemes = {point.scheme for point in points}
        assert "uniform-8b" in schemes
        assert "binary (LightBulb-style)" in schemes

    def test_traffic_monotone_in_precision(self, points):
        by_scheme = {p.scheme: p.traffic_bits for p in points}
        assert by_scheme["binary (LightBulb-style)"] < by_scheme[
            "uniform-4b"
        ] < by_scheme["heterogeneous-8/4b"] < by_scheme["uniform-8b"]

    def test_energy_improves_with_lower_precision(self, points):
        by_scheme = {p.scheme: p.result.total_energy_j for p in points}
        assert by_scheme["binary (LightBulb-style)"] < by_scheme[
            "uniform-8b"
        ]

    def test_render(self, points):
        text = render_quantization_study(points)
        assert "uniform-8b" in text
        assert "traffic(Mb)" in text

    def test_schemes_factory(self):
        schemes = quantization_schemes(10)
        assert schemes["uniform-4b"].weight_bits == 4
        assert schemes["binary (LightBulb-style)"].activation_bits == 1
        hetero = schemes["heterogeneous-8/4b"]
        assert hetero.weight_bits_for(0) == 8
        assert hetero.weight_bits_for(9) == 4

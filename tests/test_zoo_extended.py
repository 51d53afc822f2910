"""Extended model zoo (beyond Table 2)."""

import pytest

from repro.dnn import zoo
from repro.dnn.workload import extract_workload


class TestExtendedZoo:
    @pytest.mark.parametrize("name", list(zoo.EXTENDED_BUILDERS))
    def test_published_parameter_counts(self, name):
        model = zoo.build(name)
        assert model.total_params == zoo.EXTENDED_PARAMS[name]

    def test_resnet_family_depth_ordering(self):
        params = [
            zoo.build(name).total_params
            for name in ("ResNet50", "ResNet101", "ResNet152")
        ]
        assert params == sorted(params)

    def test_densenet_family_depth_ordering(self):
        params = [
            zoo.build(name).total_params
            for name in ("DenseNet121", "DenseNet169", "DenseNet201")
        ]
        assert params == sorted(params)

    def test_vgg19_has_16_conv_3_fc(self):
        model = zoo.build("VGG19")
        assert model.conv_layer_count == 16
        assert model.fc_layer_count == 3

    def test_resnet101_conv_census(self):
        # 1 stem + 33 blocks x 3 + 4 projections = 104.
        assert zoo.build("ResNet101").conv_layer_count == 104

    def test_classifier_heads(self):
        for name in zoo.EXTENDED_BUILDERS:
            assert zoo.build(name).output_shape == (1000,)

    def test_extended_models_run_through_workload_extraction(self):
        workload = extract_workload(zoo.build("ResNet101"))
        assert workload.total_macs == zoo.build("ResNet101").total_macs
        assert len(workload) == 105  # 104 conv + 1 fc

    def test_extended_model_simulates(self, runner):
        """An extended model runs end-to-end on the SiPh platform."""
        from repro.core.siph import CrossLight25DSiPh

        workload = extract_workload(zoo.build("DenseNet169"))
        result = CrossLight25DSiPh().run_workload(workload)
        assert result.latency_s > 0
        # Deeper than DenseNet121 -> slower than its sibling.
        sibling = runner.run("2.5D-CrossLight-SiPh", "DenseNet121")
        assert result.latency_s > sibling.latency_s

"""Model graphs and the Table 2 zoo — the paper's exact model census."""

import pytest

from repro.dnn import zoo
from repro.dnn.layers import Activation, Conv2D, Dense, Flatten
from repro.dnn.model import Model
from repro.errors import ShapeError


class TestModelGraph:
    def test_sequential_build(self):
        model = Model("tiny", input_shape=(8, 8, 3))
        x = model.apply(Conv2D(4, 3, name="c1"), model.input)
        assert model.output_shape == (8, 8, 4)
        x = model.apply(Flatten(name="flat"), x)
        model.apply(Dense(10, name="fc"), x)
        assert model.output_shape == (10,)

    def test_duplicate_names_rejected(self):
        model = Model("dup", input_shape=(8, 8, 3))
        model.apply(Conv2D(4, 3, name="c"), model.input)
        with pytest.raises(ShapeError):
            model.apply(Conv2D(4, 3, name="c"), model.output)

    def test_layer_must_have_parents(self):
        model = Model("np", input_shape=(8, 8, 3))
        with pytest.raises(ShapeError):
            model.apply(Conv2D(4, 3, name="c"))

    def test_total_params_sum(self):
        model = Model("sum", input_shape=(8, 8, 3))
        x = model.apply(Conv2D(4, 3, name="c"), model.input)
        x = model.apply(Flatten(name="f"), x)
        model.apply(Dense(2, name="d"), x)
        expected = (3 * 3 * 3 * 4 + 4) + (8 * 8 * 4 * 2 + 2)
        assert model.total_params == expected

    def test_layer_stats_order_and_content(self):
        model = Model("stats", input_shape=(8, 8, 3))
        x = model.apply(Conv2D(4, 3, name="c"), model.input)
        model.apply(Activation("relu", name="r"), x)
        stats = model.layer_stats()
        assert [s.name for s in stats] == ["c", "r"]
        assert stats[0].params > 0
        assert stats[1].params == 0
        assert stats[0].output_elements == 8 * 8 * 4

    def test_compute_nodes_filters(self):
        model = Model("cn", input_shape=(8, 8, 3))
        x = model.apply(Conv2D(4, 3, name="c"), model.input)
        x = model.apply(Activation("relu", name="r"), x)
        x = model.apply(Flatten(name="f"), x)
        model.apply(Dense(2, name="d"), x)
        names = [node.name for node in model.compute_nodes()]
        assert names == ["c", "d"]

    def test_summary_contains_totals(self):
        model = Model("s", input_shape=(8, 8, 3))
        model.apply(Conv2D(4, 3, name="c"), model.input)
        text = model.summary()
        assert "total" in text
        assert f"{model.total_params:,}" in text


class TestTable2:
    """The headline fidelity targets: exact Table 2 reproduction."""

    @pytest.mark.parametrize("name", list(zoo.MODEL_BUILDERS))
    def test_exact_parameter_count(self, name):
        model = zoo.build(name)
        assert model.total_params == zoo.TABLE2_PARAMS[name]

    @pytest.mark.parametrize("name", list(zoo.MODEL_BUILDERS))
    def test_layer_census(self, name):
        model = zoo.build(name)
        conv, fc = zoo.TABLE2_LAYERS[name]
        assert model.conv_layer_count == conv
        assert model.fc_layer_count == fc

    def test_all_models_builds_in_order(self):
        names = [model.name for model in zoo.all_models()]
        assert names == list(zoo.MODEL_BUILDERS)

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            zoo.build("AlexNet")


class TestZooInternals:
    def test_lenet5_output_shape(self):
        model = zoo.build("LeNet5")
        assert model.output_shape == (10,)

    def test_lenet5_c5_reduces_to_1x1(self):
        model = zoo.build("LeNet5")
        shapes = {n.name: n.output_shape for n in model.nodes}
        assert shapes["c5"] == (1, 1, 120)

    def test_resnet50_final_feature_map(self):
        model = zoo.build("ResNet50")
        shapes = {n.name: n.output_shape for n in model.nodes}
        assert shapes["avg_pool"] == (2048,)
        assert shapes["stage5_block3_out"] == (7, 7, 2048)

    def test_resnet50_macs_around_3_86g(self):
        model = zoo.build("ResNet50")
        assert model.total_macs == pytest.approx(3.86e9, rel=0.01)

    def test_vgg16_macs_around_15_5g(self):
        model = zoo.build("VGG16")
        assert model.total_macs == pytest.approx(15.47e9, rel=0.01)

    def test_mobilenetv2_macs_around_300m(self):
        model = zoo.build("MobileNetV2")
        assert model.total_macs == pytest.approx(300e6, rel=0.05)

    def test_densenet121_growth_structure(self):
        model = zoo.build("DenseNet121")
        shapes = {n.name: n.output_shape for n in model.nodes}
        # After block 1 (6 layers x growth 32 on 64 stem channels).
        assert shapes["block1_layer6_concat"][2] == 64 + 6 * 32
        assert shapes["avg_pool"] == (1024,)

    def test_mobilenetv2_feature_head(self):
        model = zoo.build("MobileNetV2")
        shapes = {n.name: n.output_shape for n in model.nodes}
        assert shapes["conv_last"] == (7, 7, 1280)

    def test_classifier_sizes(self):
        for name in ("ResNet50", "DenseNet121", "VGG16", "MobileNetV2"):
            assert zoo.build(name).output_shape == (1000,)

"""Model zoo: the five DNNs of the paper's Table 2, plus the extended
and transformer zoos.

Each builder returns a :class:`repro.dnn.model.Model` whose layer census
and total parameter count match Table 2 exactly (verified in
``tests/test_zoo_table2.py``).

The package names every model statically (:data:`MODEL_HOMES`), so
naming a model — in a spec, on the command line or through the
``MODELS`` registry — loads no model module, and building one loads its
own module only.  The builder tables re-export lazily (PEP 562).
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Callable

from ... import _lazy_package

if TYPE_CHECKING:
    from ..model import Model

TABLE2_MODELS = ("LeNet5", "ResNet50", "DenseNet121", "VGG16", "MobileNetV2")
"""The Table 2 models, in Table 2 order."""

EXTENDED_MODELS = ("ResNet101", "ResNet152", "DenseNet169", "DenseNet201",
                   "VGG19")
"""The extended zoo (:mod:`repro.dnn.zoo.extended`)."""

TRANSFORMER_MODELS = ("TransformerTiny", "TransformerSmall",
                      "TransformerBase")
"""The transformer zoo (:mod:`repro.dnn.zoo.transformer`); membership
marks a model as a sequence (autoregressive) workload for spec
validation."""

MODEL_HOMES = {
    "LeNet5": "repro.dnn.zoo.lenet5:lenet5",
    "ResNet50": "repro.dnn.zoo.resnet50:resnet50",
    "DenseNet121": "repro.dnn.zoo.densenet121:densenet121",
    "VGG16": "repro.dnn.zoo.vgg16:vgg16",
    "MobileNetV2": "repro.dnn.zoo.mobilenetv2:mobilenetv2",
    "ResNet101": "repro.dnn.zoo.extended:resnet101",
    "ResNet152": "repro.dnn.zoo.extended:resnet152",
    "DenseNet169": "repro.dnn.zoo.extended:densenet169",
    "DenseNet201": "repro.dnn.zoo.extended:densenet201",
    "VGG19": "repro.dnn.zoo.extended:vgg19",
    "TransformerTiny": "repro.dnn.zoo.transformer:transformer_tiny",
    "TransformerSmall": "repro.dnn.zoo.transformer:transformer_small",
    "TransformerBase": "repro.dnn.zoo.transformer:transformer_base",
}
"""Every zoo model's builder as ``"module:attribute"``, in table order
(Table 2, extended, transformer): the ``MODELS`` registry's entries."""

TABLE2_PARAMS = {
    "LeNet5": 62_006,
    "ResNet50": 25_636_712,
    "DenseNet121": 8_062_504,
    "VGG16": 138_357_544,
    "MobileNetV2": 3_538_984,
}
"""Parameter counts as printed in Table 2."""

TABLE2_LAYERS = {
    "LeNet5": (3, 2),
    "ResNet50": (53, 1),
    "DenseNet121": (120, 1),
    "VGG16": (13, 3),
    "MobileNetV2": (52, 1),
}
"""(CONV layers, FC layers) as printed in Table 2."""


def builder(name: str) -> Callable[[], Model]:
    """The builder of a zoo model, loading its module only."""
    module, _, attribute = MODEL_HOMES[name].partition(":")
    return getattr(import_module(module), attribute)


def build(name: str) -> Model:
    """Build a zoo model by name (Table 2, extended, or transformer)."""
    return builder(name)()


def all_models() -> list[Model]:
    """Build every Table 2 model, in Table 2 order."""
    return [build(name) for name in TABLE2_MODELS]


# The builders themselves are reached by name (``build``/``builder``):
# a package attribute named like its submodule (``lenet5``) would turn
# into that module once the import system loaded it.
__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".table2": ("MODEL_BUILDERS",),
    ".extended": ("EXTENDED_BUILDERS", "EXTENDED_PARAMS"),
    ".transformer": ("TRANSFORMER_BUILDERS", "TRANSFORMER_PARAMS"),
})
__all__ += [
    "EXTENDED_MODELS",
    "MODEL_HOMES",
    "TABLE2_LAYERS",
    "TABLE2_MODELS",
    "TABLE2_PARAMS",
    "TRANSFORMER_MODELS",
    "all_models",
    "build",
    "builder",
]

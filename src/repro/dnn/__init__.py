"""DNN workload substrate: layer algebra, model graphs, the Table 2 zoo,
quantisation, and inference-workload extraction."""

from .. import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".layers": (
        "Activation",
        "Add",
        "AveragePooling2D",
        "BatchNormalization",
        "Concatenate",
        "Conv2D",
        "Dense",
        "DepthwiseConv2D",
        "Flatten",
        "GlobalAveragePooling2D",
        "Input",
        "Layer",
        "LayerStats",
        "MaxPooling2D",
        "Shape",
        "ZeroPadding2D",
    ),
    ".model": ("Model", "Node"),
    ".quantization": ("QuantizationConfig",),
    ".workload": ("InferenceWorkload", "LayerWorkload", "extract_workload"),
})

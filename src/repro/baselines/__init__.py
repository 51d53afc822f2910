"""Analytic models of Table 3's literature comparison platforms."""

from .. import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".platforms": (
        "AMD_3970",
        "DEAP_CNN",
        "EDGE_TPU",
        "HOLYLIGHT",
        "INTEL_9282",
        "LITERATURE_PLATFORMS",
        "NULLHOP",
        "NVIDIA_P100",
        "BaselinePlatform",
    ),
})

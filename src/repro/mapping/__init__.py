"""Layer-to-chiplet mapping, MAC-unit tiling, and weight residency."""

from .. import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".mapper": ("Allocation", "KernelMatchMapper", "LayerMapping",
                "ModelMapping"),
    ".residency": ("WeightResidency",),
    ".tiling": ("TilingResult", "tile_layer"),
})

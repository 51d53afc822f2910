"""Interposer networks: floorplan, photonic fabric, electrical mesh."""

from .. import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".base": ("DEFAULT_CHUNK_BITS", "InterposerFabric", "NetworkEnergyReport"),
    ".topology": ("ChipletSite", "Floorplan", "build_floorplan"),
})

"""Electrical mesh interposer baseline."""

from ... import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".mesh": ("ElectricalMeshFabric",),
})

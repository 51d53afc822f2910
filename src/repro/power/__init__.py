"""Power and energy models: device parameter tables, compute-fabric power,
and energy-per-bit metrics."""

from .. import _lazy_package
from . import params

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".compute_power": ("MacPowerBreakdown", "mac_fabric_power",
                       "mac_unit_link_budget"),
})

__all__.insert(0, "params")

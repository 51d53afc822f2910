"""Silicon-photonic device library.

Analytical models of every photonic device the architecture uses
(Section II of the paper): waveguides, microring and microdisk
resonators, Mach-Zehnder interferometers, photodetectors, lasers,
fiber couplers, power splitters, phase-change-material couplers, WDM
grids, and an end-to-end link-budget solver.
"""

from .. import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".coupler": ("CouplerKind", "FiberCoupler", "PowerSplitter"),
    ".laser": ("LaserSource",),
    ".link_budget": ("DEFAULT_SYSTEM_MARGIN_DB", "LinkBudget", "LossElement"),
    ".microdisk": ("MicrodiskResonator",),
    ".microring": ("MicroringResonator", "TuningMechanism"),
    ".mzi": ("MachZehnderInterferometer",),
    ".modulation": (
        "OOK",
        "PAM4",
        "ModulationScheme",
        "ModulationSpec",
        "Pam4Tradeoff",
        "operating_point",
        "pam4_tradeoff",
        "required_q_factor",
    ),
    ".thermal": (
        "ThermalOperatingPoint",
        "thermal_operating_point",
        "thermal_runaway_limit_w",
    ),
    ".pcmc": ("PCMCoupler", "PCMCState", "coupling_length_ratio_for_fraction"),
    ".photodetector": ("Photodetector",),
    ".signal_integrity": (
        "SignalReport",
        "interposer_filter_ring",
        "interposer_grid",
        "link_signal_report",
        "max_wavelengths_for_ber",
    ),
    ".variations": (
        "TrimmingReport",
        "VariationModel",
        "platform_trimming_power_w",
        "trimming_report",
    ),
    ".waveguide": ("Waveguide",),
    ".wdm": ("WDMGrid", "max_channels_for_crosstalk"),
})

"""Silicon-photonic interposer network: fabric, link budgets, controllers."""

from ... import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".controllers": (
        "CONTROLLER_FACTORIES",
        "ProwavesController",
        "ReSiPIController",
        "StaticController",
    ),
    ".awgr": ("AWGRInterposerFabric", "awgr_link_budget"),
    ".faults": (
        "GatewayFail",
        "GatewayRepair",
        "HAZARD_FACTORIES",
        "HazardEngine",
        "HazardRecord",
        "HazardTimeline",
        "LaserDegradation",
        "RingDriftBurst",
    ),
    ".fabric": ("PHOTONIC_DYNAMIC_J_PER_BIT", "PhotonicInterposerFabric"),
    ".links": (
        "INTERPOSER_WAVEGUIDE_LOSS_DB_PER_CM",
        "swmr_read_budget",
        "swsr_write_budget",
        "worst_case_write_budget",
    ),
})

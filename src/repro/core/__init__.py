"""The paper's primary contribution: 2.5D chiplet photonic DNN
accelerator platforms and the monolithic baseline."""

from .. import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".accelerator": ("PlatformSimulation",),
    ".awgr": ("CrossLight25DAWGR",),
    ".crosslight": (
        "MonolithicCrossLight",
        "MonolithicFabric",
        "monolithic_mapping",
    ),
    ".elec": ("CrossLight25DElec",),
    ".siph": ("CrossLight25DSiPh",),
    ".analytic": (
        "AnalyticEstimate",
        "analytic_estimate",
        "compute_bound_fraction",
    ),
    ".accuracy": (
        "dot_product_snr",
        "min_dac_bits_for_effective_bits",
        "model_accuracy_report",
        "worst_layer",
    ),
    ".gantt": ("render_gantt", "utilization_summary"),
    ".engine": ("ExecutionTrace", "InferenceEngine"),
    ".mac_unit": ("MacUnitSpec", "PhotonicMacUnit"),
    ".metrics": ("EnergyBreakdown", "InferenceResult", "LayerTiming"),
})

"""Experiment drivers regenerating every table and figure of the paper."""

from .. import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".calibration": ("calibration_report", "shape_checks"),
    ".dse": (
        "controller_ablation",
        "mapping_ablation",
        "render_sweep",
        "sweep_gateways",
        "sweep_wavelengths",
    ),
    ".fig7": ("Fig7Series", "fig7_all", "fig7_series", "render_fig7"),
    ".export": (
        "result_to_dict",
        "results_to_csv",
        "results_to_json",
        "serving_result_to_dict",
        "study_results_to_csv",
        "study_results_to_json",
        "table3_to_csv",
    ),
    ".network_characterization": (
        "characterize",
        "characterize_all",
        "render_characterization",
    ),
    ".quantization_study": (
        "QuantizationPoint",
        "quantization_study",
        "render_quantization_study",
    ),
    ".roofline": (
        "PlatformRoofline",
        "operational_intensity",
        "platform_rooflines",
        "render_roofline",
        "roofline_analysis",
    ),
    ".reports": (
        "render_fault_windows",
        "render_sequence_summary",
        "render_serving_study",
        "render_slo_summary",
    ),
    ".runner": (
        "MODEL_NAMES",
        "PLATFORM_ORDER",
        "ExperimentRunner",
        "InferenceCell",
        "ResultCache",
        "build_platform",
        "cell_key",
        "config_digest",
        "parallel_map",
        "run_cached",
    ),
    ".sensitivity": (
        "SensitivityPoint",
        "render_sensitivity",
        "sensitivity_study",
    ),
    ".serving_cell": ("ServingCell",),
    ".serving_study": ("simulate_serving_cell",),
    ".table3": ("PAPER_TABLE3", "Table3", "build_table3", "render_table3"),
    ".tables": ("render_table1", "render_table2"),
})

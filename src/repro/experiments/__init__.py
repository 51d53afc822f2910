"""Experiment drivers regenerating every table and figure of the paper."""

from .calibration import calibration_report, shape_checks
from .dse import (
    controller_ablation,
    mapping_ablation,
    render_sweep,
    sweep_gateways,
    sweep_wavelengths,
)
from .fig7 import Fig7Series, fig7_all, fig7_series, render_fig7
from .export import (
    result_to_dict,
    results_to_csv,
    results_to_json,
    serving_result_to_dict,
    serving_results_to_csv,
    serving_results_to_json,
    table3_to_csv,
)
from .network_characterization import (
    characterize,
    characterize_all,
    render_characterization,
)
from .quantization_study import (
    QuantizationPoint,
    quantization_study,
    render_quantization_study,
)
from .roofline import (
    PlatformRoofline,
    operational_intensity,
    platform_rooflines,
    render_roofline,
    roofline_analysis,
)
from .runner import (
    MODEL_NAMES,
    PLATFORM_ORDER,
    ExperimentRunner,
    ResultCache,
    build_platform,
    cell_key,
    config_digest,
    parallel_map,
    run_cached,
)
from .sensitivity import (
    SensitivityPoint,
    render_sensitivity,
    sensitivity_study,
)
from .serving_study import (
    ServingCell,
    render_serving_study,
    render_slo_summary,
    simulate_serving_cell,
)
from .table3 import PAPER_TABLE3, Table3, build_table3, render_table3
from .tables import render_table1, render_table2

__all__ = [
    "calibration_report",
    "shape_checks",
    "controller_ablation",
    "mapping_ablation",
    "render_sweep",
    "sweep_gateways",
    "sweep_wavelengths",
    "Fig7Series",
    "fig7_all",
    "fig7_series",
    "render_fig7",
    "result_to_dict",
    "results_to_csv",
    "results_to_json",
    "table3_to_csv",
    "characterize",
    "characterize_all",
    "render_characterization",
    "PlatformRoofline",
    "operational_intensity",
    "platform_rooflines",
    "render_roofline",
    "roofline_analysis",
    "SensitivityPoint",
    "render_sensitivity",
    "sensitivity_study",
    "ServingCell",
    "render_serving_study",
    "render_slo_summary",
    "simulate_serving_cell",
    "serving_result_to_dict",
    "serving_results_to_csv",
    "serving_results_to_json",
    "QuantizationPoint",
    "quantization_study",
    "render_quantization_study",
    "MODEL_NAMES",
    "PLATFORM_ORDER",
    "ExperimentRunner",
    "ResultCache",
    "build_platform",
    "cell_key",
    "config_digest",
    "parallel_map",
    "run_cached",
    "PAPER_TABLE3",
    "Table3",
    "build_table3",
    "render_table3",
    "render_table1",
    "render_table2",
]

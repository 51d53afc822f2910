"""Quantisation study (extension, from the CrossLight follow-ups).

The paper's accelerator lineage includes heterogeneous quantisation [22]
(different weight bit-widths per layer) and fully/partially binarised
networks [24], [25].  This experiment measures how precision changes
interposer traffic, latency, power and energy-per-bit on the 2.5D
photonic platform — the deployment question those papers answer at the
device level.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..config import DEFAULT_PLATFORM, PlatformConfig
from ..core.metrics import InferenceResult
from ..dnn import zoo
from ..dnn.quantization import QuantizationConfig
from ..dnn.workload import extract_workload
from .runner import (
    CacheStats,
    InferenceCell,
    run_cached,
    simulate_inference_cell,
)


@dataclass(frozen=True)
class QuantizationPoint:
    """One precision configuration and its measured outcome."""

    scheme: str
    weight_bits_description: str
    traffic_bits: float
    result: InferenceResult


def quantization_schemes(n_layers: int) -> dict[str, QuantizationConfig]:
    """The precision ladder the study sweeps."""
    return {
        "uniform-8b": QuantizationConfig(),
        "heterogeneous-8/4b": QuantizationConfig.heterogeneous_front_heavy(
            n_layers
        ),
        "uniform-4b": QuantizationConfig(weight_bits=4, activation_bits=4),
        "binary (LightBulb-style)": QuantizationConfig.binary(),
    }


def quantization_study(
    model_name: str = "ResNet50",
    config: PlatformConfig | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    stats: CacheStats | None = None,
) -> list[QuantizationPoint]:
    """Run the precision ladder on the 2.5D SiPh platform.

    Each precision point is one :class:`InferenceCell` whose
    ``quantization`` field carries the scheme, so points fan out over
    worker processes and cache under keys that include it.
    """
    config = config or DEFAULT_PLATFORM
    model = zoo.build(model_name)
    schemes = quantization_schemes(len(model.compute_nodes()))
    cells = [
        InferenceCell("2.5D-CrossLight-SiPh", model_name, "resipi", config,
                      quantization=quant)
        for quant in schemes.values()
    ]
    results = run_cached(
        cells, simulate_inference_cell, jobs=jobs, cache_dir=cache_dir,
        stats=stats,
    )
    return [
        QuantizationPoint(
            scheme=scheme,
            weight_bits_description=(
                f"{quant.weight_bits}b weights / "
                f"{quant.activation_bits}b activations"
            ),
            # Cheap, and not part of the cached result.
            traffic_bits=extract_workload(model, quant).total_traffic_bits,
            result=result,
        )
        for (scheme, quant), result in zip(schemes.items(), results)
    ]


def render_quantization_study(points: list[QuantizationPoint]) -> str:
    """Text table of the study."""
    lines = [
        "Quantisation study (2.5D-CrossLight-SiPh)",
        f"{'scheme':<26}{'traffic(Mb)':>12}{'latency(ms)':>13}"
        f"{'power(W)':>10}{'energy(mJ)':>12}",
        "-" * 73,
    ]
    for point in points:
        result = point.result
        lines.append(
            f"{point.scheme:<26}{point.traffic_bits / 1e6:>12.1f}"
            f"{result.latency_s * 1e3:>13.4f}"
            f"{result.average_power_w:>10.2f}"
            f"{result.total_energy_j * 1e3:>12.3f}"
        )
    return "\n".join(lines)

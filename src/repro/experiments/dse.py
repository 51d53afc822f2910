"""Design-space exploration (Section VII, open challenge 3).

The paper's conclusions call for exploration of the number of
wavelengths, gateways per chiplet, and MACs per chiplet.  These sweeps
implement that study as declarative specs lowered through the study
compiler (:mod:`repro.studies`), plus an ablation of the interposer
reconfiguration policy (ReSiPI vs PROWAVES vs static).

Every spec sweep takes ``jobs``/``cache_dir``: design points are
independent inference cells, so they fan out over worker processes and
share the persistent result cache with every other inference path (see
:mod:`repro.experiments.runner`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..config import DEFAULT_PLATFORM, PlatformConfig
from ..core.metrics import InferenceResult
from ..dnn.workload import extract_workload
from ..studies.registry import MODELS
from .runner import CacheStats


def _study_api():
    """Late import of the study compiler.

    The compiler sits above the experiment layer (it imports this
    package's modules), so importing it at module scope would be a
    cycle whenever :mod:`repro.studies.compile` loads first.
    """
    from ..studies import builders, compile as study_compile

    return builders, study_compile.run_study


DEFAULT_WAVELENGTH_SWEEP = (8, 16, 32, 64, 128)
DEFAULT_GATEWAY_SWEEP = (1, 2, 4)

SIPH = "2.5D-CrossLight-SiPh"


@dataclass(frozen=True)
class SweepPoint:
    """One design point of a sweep."""

    label: str
    value: float
    result: InferenceResult

    @property
    def latency_ms(self) -> float:
        return self.result.latency_s * 1e3

    @property
    def power_w(self) -> float:
        return self.result.average_power_w

    @property
    def epb_nj(self) -> float:
        return self.result.energy_per_bit_j * 1e9


def sweep_wavelengths(
    model_name: str = "ResNet50",
    values: tuple[int, ...] = DEFAULT_WAVELENGTH_SWEEP,
    base_config: PlatformConfig | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    stats: CacheStats | None = None,
) -> list[SweepPoint]:
    """Latency/power/EPB of the SiPh platform vs wavelength count."""
    builders, run_study = _study_api()
    study = run_study(
        builders.wavelength_sweep_spec(model_name, values),
        jobs=jobs, cache_dir=cache_dir, base_config=base_config,
        stats=stats,
    )
    return [
        SweepPoint(label=f"{n_lambda} wavelengths", value=n_lambda,
                   result=point.results[0])
        for n_lambda, point in zip(values, study.points)
    ]


def sweep_gateways(
    model_name: str = "ResNet50",
    values: tuple[int, ...] = DEFAULT_GATEWAY_SWEEP,
    base_config: PlatformConfig | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    stats: CacheStats | None = None,
) -> list[SweepPoint]:
    """SiPh platform vs gateways per compute chiplet."""
    builders, run_study = _study_api()
    study = run_study(
        builders.gateway_sweep_spec(model_name, values),
        jobs=jobs, cache_dir=cache_dir, base_config=base_config,
        stats=stats,
    )
    return [
        SweepPoint(label=f"{gateways} gateways/chiplet", value=gateways,
                   result=point.results[0])
        for gateways, point in zip(values, study.points)
    ]


def mapping_ablation(
    model_names: tuple[str, ...] = ("ResNet50", "VGG16"),
    base_config: PlatformConfig | None = None,
) -> dict[tuple[str, str], InferenceResult]:
    """Spillover vs strict-kernel-match mapping on the SiPh platform.

    Quantifies how much of the 2.5D win depends on letting conv layers
    spill beyond their kernel-matched chiplets (DESIGN.md discusses why
    the paper's averages imply spillover).  Custom mappers are not part
    of the cache key scheme, so this study always simulates.
    """
    from ..core.siph import CrossLight25DSiPh
    from ..interposer.topology import build_floorplan
    from ..mapping.mapper import KernelMatchMapper

    base = base_config or DEFAULT_PLATFORM
    floorplan = build_floorplan(base)
    workloads = {
        name: extract_workload(MODELS.get(name)()) for name in model_names
    }
    results = {}
    for strict in (False, True):
        label = "strict" if strict else "spillover"
        mapper = KernelMatchMapper(base, floorplan,
                                   strict_kernel_match=strict)
        platform = CrossLight25DSiPh(base, mapper=mapper)
        for model_name in model_names:
            results[(label, model_name)] = platform.run_workload(
                workloads[model_name]
            )
    return results


def controller_ablation(
    model_names: tuple[str, ...] = ("LeNet5", "ResNet50"),
    controllers: tuple[str, ...] = ("resipi", "prowaves", "static"),
    base_config: PlatformConfig | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    stats: CacheStats | None = None,
) -> dict[tuple[str, str], InferenceResult]:
    """Compare interposer reconfiguration policies (E10)."""
    builders, run_study = _study_api()
    study = run_study(
        builders.controller_ablation_spec(model_names, controllers),
        jobs=jobs, cache_dir=cache_dir, base_config=base_config,
        stats=stats,
    )
    return {
        (point.spec.platform.controller, entry.model): result
        for point in study.points
        for entry, result in zip(point.spec.workload.models, point.results)
    }


def render_sweep(title: str, points: list[SweepPoint]) -> str:
    """Text table of a sweep."""
    lines = [
        title,
        f"{'design point':<24}{'latency(ms)':>14}{'power(W)':>12}"
        f"{'EPB(nJ/b)':>12}",
        "-" * 62,
    ]
    for point in points:
        lines.append(
            f"{point.label:<24}{point.latency_ms:>14.4f}"
            f"{point.power_w:>12.2f}{point.epb_nj:>12.3f}"
        )
    return "\n".join(lines)

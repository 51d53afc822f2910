"""Spec builders: the legacy CLI verbs expressed as declarative studies.

Each function returns the :class:`~repro.studies.spec.StudySpec` that
reproduces one pre-spec entry point — ``repro run``, the ``repro dse``
sweeps, ``repro serve-study`` — so the old verbs become thin wrappers
over ``run_study`` with bit-identical results, and any of them can be
exported to JSON, tweaked and re-run through ``repro study``.
"""

from __future__ import annotations

from typing import Sequence

from .spec import (
    ModelTraffic,
    PlatformSpec,
    SchedulerSpec,
    StudySpec,
    SweepAxis,
    SweepSpec,
    WorkloadSpec,
)

SIPH = "2.5D-CrossLight-SiPh"


def run_spec(model: str, platform: str, controller: str = "resipi",
             batch_size: int = 1) -> StudySpec:
    """``repro run``: one isolated (batched) inference."""
    return StudySpec(
        name=f"run-{model}",
        kind="inference",
        workload=WorkloadSpec(
            models=(ModelTraffic(model=model),), batch_size=batch_size
        ),
        platform=PlatformSpec(name=platform, controller=controller),
    )


def wavelength_sweep_spec(model: str,
                          values: Sequence[int]) -> StudySpec:
    """``repro dse --sweep wavelengths``: SiPh vs wavelength count."""
    return StudySpec(
        name=f"dse-wavelengths-{model}",
        kind="inference",
        workload=WorkloadSpec(models=(ModelTraffic(model=model),)),
        platform=PlatformSpec(name=SIPH),
        sweep=SweepSpec(axes=(
            SweepAxis(field="platform.n_wavelengths",
                      values=tuple(values)),
        )),
    )


def gateway_sweep_spec(model: str, values: Sequence[int]) -> StudySpec:
    """``repro dse --sweep gateways``: SiPh vs gateways per chiplet."""
    return StudySpec(
        name=f"dse-gateways-{model}",
        kind="inference",
        workload=WorkloadSpec(models=(ModelTraffic(model=model),)),
        platform=PlatformSpec(name=SIPH),
        sweep=SweepSpec(axes=(
            SweepAxis(field="platform.gateways_per_chiplet",
                      values=tuple(values)),
        )),
    )


def controller_ablation_spec(model_names: Sequence[str],
                             controllers: Sequence[str]) -> StudySpec:
    """``repro dse --sweep controllers``: reconfiguration policies."""
    return StudySpec(
        name="dse-controllers",
        kind="inference",
        workload=WorkloadSpec(
            models=tuple(ModelTraffic(model=name) for name in model_names)
        ),
        platform=PlatformSpec(name=SIPH),
        sweep=SweepSpec(axes=(
            SweepAxis(field="platform.controller",
                      values=tuple(controllers)),
        )),
    )


def serve_study_spec(
    model: str,
    platforms: Sequence[str],
    controllers: Sequence[str],
    scheduler: SchedulerSpec,
    rates_rps: Sequence[float],
    arrival: str = "poisson",
    duration_s: float = 2e-3,
    seed: int = 7,
) -> StudySpec:
    """``repro serve-study``: rate x policy x controller x platform.

    Axis order is (platform, controller, rate); the compiler pins the
    controller axis off the SiPh platform so baseline platforms never
    run duplicate cells.
    """
    return StudySpec(
        name=f"serve-{model}",
        kind="serving",
        workload=WorkloadSpec(
            models=(ModelTraffic(model=model),),
            arrival=arrival,
            duration_s=duration_s,
            seed=seed,
        ),
        platform=PlatformSpec(name=platforms[0],
                              controller=controllers[0]),
        scheduler=scheduler,
        sweep=SweepSpec(axes=(
            SweepAxis(field="platform.name", values=tuple(platforms)),
            SweepAxis(field="platform.controller",
                      values=tuple(controllers)),
            SweepAxis(field="workload.rate_rps",
                      values=tuple(rates_rps)),
        )),
    )


# ---------------------------------------------------------------------------
# The first two spec-only scenarios (nothing but a spec: no new code).
# ---------------------------------------------------------------------------


def multi_tenant_mix_spec(
    lenet_fraction: float = 0.7,
    rate_rps: float = 30e3,
    duration_s: float = 1e-3,
    lenet_slo_s: float = 150e-6,
    resnet_slo_s: float = 5e-3,
    policy: str = "edf",
    seed: int = 7,
) -> StudySpec:
    """Multi-tenant model zoo: 70% LeNet5 / 30% ResNet50, one fabric.

    Both models stay weight-resident under one shared
    :class:`~repro.mapping.residency.WeightResidency`; per-model SLOs
    drive deadline assignment, and the per-model stats in the result
    split p99/goodput/violations by tenant.
    """
    return StudySpec(
        name="multi-tenant-lenet5-resnet50",
        kind="serving",
        workload=WorkloadSpec(
            models=(
                ModelTraffic(model="LeNet5", fraction=lenet_fraction,
                             slo_s=lenet_slo_s, priority=1),
                ModelTraffic(model="ResNet50",
                             fraction=1.0 - lenet_fraction,
                             slo_s=resnet_slo_s, priority=0),
            ),
            arrival="poisson",
            rate_rps=rate_rps,
            duration_s=duration_s,
            seed=seed,
        ),
        platform=PlatformSpec(name=SIPH, controller="resipi"),
        scheduler=SchedulerSpec(policy=policy, max_inflight=4),
    )


def slo_attainment_sweep_spec(
    tight_model: str = "LeNet5",
    tight_slo_s: float = 100e-6,
    loose_model: str = "MobileNetV2",
    loose_slo_s: float = 4e-3,
    tight_fraction: float = 0.8,
    rates_rps: Sequence[float] = (100e3, 200e3),
    duration_s: float = 1e-3,
    burstiness: float = 8.0,
    shed_expired: bool = True,
    seed: int = 7,
) -> StudySpec:
    """SLO attainment under MMPP bursts: ``fifo`` vs ``edf`` dispatch.

    A two-class mix — a tight-SLO interactive model and a loose-SLO
    batch model — under a bursty two-state MMPP.  FIFO lets the slow
    tenant's requests block the tight deadlines at the head of the
    queue; EDF jumps them, so the per-model attainment split quantifies
    what deadline-aware dispatch buys (one SLO class would make edf
    degenerate to fifo: equal offsets preserve arrival order).
    """
    return StudySpec(
        name=f"slo-attainment-{tight_model}",
        kind="serving",
        workload=WorkloadSpec(
            models=(
                ModelTraffic(model=tight_model, fraction=tight_fraction,
                             slo_s=tight_slo_s, priority=1),
                ModelTraffic(model=loose_model,
                             fraction=1.0 - tight_fraction,
                             slo_s=loose_slo_s, priority=0),
            ),
            arrival="mmpp",
            burstiness=burstiness,
            duration_s=duration_s,
            seed=seed,
        ),
        platform=PlatformSpec(name=SIPH, controller="resipi"),
        scheduler=SchedulerSpec(policy="fifo",
                                shed_expired=shed_expired),
        sweep=SweepSpec(axes=(
            SweepAxis(field="scheduler.policy", values=("fifo", "edf")),
            SweepAxis(field="workload.rate_rps",
                      values=tuple(rates_rps)),
        )),
    )

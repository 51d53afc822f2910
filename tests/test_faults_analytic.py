"""Fault injection and the analytic cross-validation model."""

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.core.analytic import (
    analytic_estimate,
    compute_bound_fraction,
)
from repro.core.engine import InferenceEngine
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.errors import ConfigurationError
from repro.interposer.photonic.controllers import ReSiPIController
from repro.interposer.photonic.fabric import PhotonicInterposerFabric
from repro.interposer.photonic.faults import (
    GatewayFail,
    HazardEngine,
    HazardTimeline,
)
from repro.interposer.topology import build_floorplan
from repro.mapping.mapper import KernelMatchMapper
from repro.sim.core import Environment


def static_failure(memory: int = 0,
                   chiplets: tuple = ()) -> HazardTimeline:
    """Gateways dead from the start: one ``t=0`` fail event."""
    return HazardTimeline((GatewayFail(
        at_s=0.0, memory_gateways=memory, chiplet_gateways=chiplets,
    ),))


def run_with_faults(model_name: str, timeline: HazardTimeline | None):
    config = DEFAULT_PLATFORM
    env = Environment()
    floorplan = build_floorplan(config)
    fabric = PhotonicInterposerFabric(env, config, floorplan)
    if timeline is not None:
        HazardEngine(fabric, timeline)
    ReSiPIController(env, fabric, config)
    workload = extract_workload(zoo.build(model_name))
    mapping = KernelMatchMapper(config, floorplan).map_workload(workload)
    engine = InferenceEngine(env, config, fabric)
    return engine.run(mapping), fabric


class TestFaultInjection:
    def test_no_faults_is_baseline(self):
        healthy, _ = run_with_faults("MobileNetV2", None)
        empty_plan, _ = run_with_faults("MobileNetV2", HazardTimeline())
        assert empty_plan == pytest.approx(healthy, rel=1e-6)

    def test_memory_gateway_failures_degrade_gracefully(self):
        healthy, _ = run_with_faults("MobileNetV2", None)
        degraded, fabric = run_with_faults(
            "MobileNetV2", static_failure(memory=6)
        )
        # Still completes (graceful), but slower (degraded).
        assert degraded > healthy
        assert fabric.active_memory_gateways.value <= 2

    def test_more_failures_never_faster(self):
        latencies = []
        for failures in (0, 4, 6):
            latency, _ = run_with_faults(
                "MobileNetV2", static_failure(memory=failures)
            )
            latencies.append(latency)
        assert latencies == sorted(latencies)

    def test_chiplet_gateway_failures(self):
        timeline = static_failure(chiplets=(("3x3 conv-0", 3, 3),))
        latency, fabric = run_with_faults("MobileNetV2", timeline)
        assert latency > 0
        assert fabric.active_write_gateways["3x3 conv-0"].value <= 1

    def test_cannot_kill_all_memory_gateways(self):
        env = Environment()
        floorplan = build_floorplan(DEFAULT_PLATFORM)
        fabric = PhotonicInterposerFabric(env, DEFAULT_PLATFORM, floorplan)
        with pytest.raises(ConfigurationError):
            HazardEngine(fabric, static_failure(memory=8))

    def test_unknown_chiplet_rejected(self):
        env = Environment()
        floorplan = build_floorplan(DEFAULT_PLATFORM)
        fabric = PhotonicInterposerFabric(env, DEFAULT_PLATFORM, floorplan)
        with pytest.raises(ConfigurationError):
            HazardEngine(fabric, static_failure(chiplets=(("gpu-0", 1, 0),)))

    def test_controller_cannot_resurrect_dead_gateways(self):
        _, fabric = run_with_faults(
            "ResNet50", static_failure(memory=5)
        )
        # Even under ResNet-scale demand, the cap held all run.
        assert fabric.active_memory_gateways.value <= 3


class TestAnalyticModel:
    @pytest.fixture(scope="class")
    def setup(self):
        config = DEFAULT_PLATFORM
        floorplan = build_floorplan(config)
        workload = extract_workload(zoo.build("ResNet50"))
        mapping = KernelMatchMapper(config, floorplan).map_workload(workload)
        return config, workload, mapping

    def test_lower_bound_below_simulated(self, setup, runner):
        config, workload, mapping = setup
        estimate = analytic_estimate(mapping, config, workload)
        simulated = runner.run("2.5D-CrossLight-SiPh", "ResNet50")
        assert estimate.lower_bound_s <= simulated.latency_s * 1.02

    def test_simulation_close_to_lower_bound_when_uncontended(self, setup,
                                                              runner):
        """ResNet50 at 64 wavelengths is mostly compute-bound: the DES
        should land within 2x of the contention-free analytic bound."""
        config, workload, mapping = setup
        estimate = analytic_estimate(mapping, config, workload)
        simulated = runner.run("2.5D-CrossLight-SiPh", "ResNet50")
        assert simulated.latency_s <= 2.0 * estimate.lower_bound_s

    def test_compute_bound_fraction(self, setup):
        config, workload, mapping = setup
        estimate = analytic_estimate(mapping, config, workload)
        fraction = compute_bound_fraction(estimate)
        assert 0.3 <= fraction <= 1.0

    def test_empty_mapping_rejected(self, setup):
        config, _, _ = setup
        from repro.mapping.mapper import ModelMapping

        with pytest.raises(ConfigurationError):
            analytic_estimate(
                ModelMapping(workload=None, layers=()), config
            )

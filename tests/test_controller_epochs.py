"""Controller epochs pay only for changed decisions, bit-identically.

ReSiPI/PROWAVES decide every epoch, but most decisions repeat the last
one.  The fabric's ``configure_gateways`` and wavelength paths take the
full per-bank hook only where a count changes; the rest just close
their power-signal segments.  The references below are the naive
epoch: every decision re-applied bank by bank through the public hooks.
Results, request records, energy, decision logs and kernel event counts
must match them bit for bit.
"""

import math
import pickle

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.core import accelerator
from repro.core.engine import InferenceEngine
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.errors import ConfigurationError
from repro.experiments.serving_study import (
    ServingCell,
    simulate_serving_cell,
)
from repro.interposer.photonic.controllers import (
    CONTROLLER_FACTORIES,
    ProwavesController,
    ReSiPIController,
)
from repro.interposer.photonic.fabric import PhotonicInterposerFabric
from repro.interposer.photonic.faults import (
    GatewayFail,
    GatewayRepair,
    HazardEngine,
    HazardTimeline,
    LaserDegradation,
    RingDriftBurst,
)
from repro.interposer.topology import build_floorplan
from repro.mapping.mapper import KernelMatchMapper
from repro.sim.core import Environment
from repro.sim.stats import TimeWeightedValue, close_segments
from repro.studies.spec import FaultSpec, SchedulerSpec

CHIPLET = "3x3 conv-0"


class EveryBankFabric(PhotonicInterposerFabric):
    """Applies every configuration bank by bank through the full hooks."""

    def configure_gateways(self, n_memory, chiplets):
        self.set_active_memory_gateways(n_memory)
        for chiplet_id, (n_write, n_read) in zip(self.inventories, chiplets,
                                                 strict=True):
            self.set_active_chiplet_gateways(chiplet_id, n_write, n_read)

    def _apply_wavelength_fraction(self):
        fraction = self._controller_fraction
        if self._usable_fraction < 1.0:
            fraction = max(1.0 / self.config.n_wavelengths,
                           fraction * self._usable_fraction)
        self._wavelength_fraction = fraction
        self.memory_write_channel.set_bandwidth(
            self.active_memory_gateways.value * self._gateway_bw * fraction
        )
        for chiplet_id in self.inventories:
            self.set_active_chiplet_gateways(
                chiplet_id,
                int(self.active_write_gateways[chiplet_id].value),
                int(self.active_read_gateways[chiplet_id].value),
            )


class EveryEpochReSiPI(ReSiPIController):
    """ReSiPI deciding with per-epoch key formatting and demand lookups."""

    def _run(self):
        fabric = self.fabric
        while True:
            yield self.env.timeout(self.config.resipi_epoch_s)
            demand = fabric.monitor.demanded_bandwidth_bps(
                fabric.monitor.close_epoch()
            )
            n_memory = self._gateways_for_demand(
                demand.get("mem_read", 0.0),
                self.config.n_memory_write_gateways,
            )
            decisions = {"mem": n_memory}
            counts = []
            for chiplet_id, inventory in fabric.inventories.items():
                n_read = self._gateways_for_demand(
                    demand.get(f"read:{chiplet_id}", 0.0),
                    inventory.n_read_gateways,
                )
                n_write = self._gateways_for_demand(
                    demand.get(f"write:{chiplet_id}", 0.0),
                    inventory.n_write_gateways,
                )
                counts.append((n_write, n_read))
                decisions[chiplet_id] = n_read + n_write
            fabric.configure_gateways(n_memory, counts)
            self.decision_log.append(decisions)


class EveryEpochProwaves(ProwavesController):
    """PROWAVES taking the peak over every channel, trafficked or not."""

    def _run(self):
        fabric = self.fabric
        n_lambda = self.config.n_wavelengths
        while True:
            yield self.env.timeout(self.config.resipi_epoch_s)
            demand = fabric.monitor.demanded_bandwidth_bps(
                fabric.monitor.close_epoch()
            )
            peak = max(0.0, demand.get("mem_read", 0.0)
                       / self.config.n_memory_write_gateways)
            for chiplet_id, inventory in fabric.inventories.items():
                peak = max(peak, demand.get(f"read:{chiplet_id}", 0.0)
                           / inventory.n_read_gateways)
                peak = max(peak, demand.get(f"write:{chiplet_id}", 0.0)
                           / inventory.n_write_gateways)
            wanted = math.ceil(
                self.headroom * peak / self.config.wavelength_data_rate_bps
            )
            fraction = max(1, min(n_lambda, wanted)) / n_lambda
            fabric.set_wavelength_fraction(fraction)
            self.decision_log.append(fraction)


REFERENCE = {"resipi": EveryEpochReSiPI, "prowaves": EveryEpochProwaves}
SHIPPED = {"resipi": ReSiPIController, "prowaves": ProwavesController}

TIMELINE = HazardTimeline((
    GatewayFail(at_s=0.0, memory_gateways=2),
    GatewayFail(at_s=40e-6, memory_gateways=3,
                chiplet_gateways=((CHIPLET, 2, 3),)),
    RingDriftBurst(at_s=60e-6, duration_s=80e-6, temperature_rise_k=9.0),
    LaserDegradation(at_s=100e-6, duration_s=30e-6, power_fraction=0.5),
    GatewayRepair(at_s=150e-6, memory_gateways=3,
                  chiplet_gateways=((CHIPLET, 2, 3),)),
))


def run_inference(fabric_cls, controller_cls, timeline):
    """One MobileNetV2 inference; everything a run leaves behind."""
    config = DEFAULT_PLATFORM
    env = Environment()
    floorplan = build_floorplan(config)
    fabric = fabric_cls(env, config, floorplan)
    if timeline:
        HazardEngine(fabric, timeline)
    controller = controller_cls(env, fabric, config)
    mapping = KernelMatchMapper(config, floorplan).map_workload(
        extract_workload(zoo.build("MobileNetV2"))
    )
    latency = InferenceEngine(env, config, fabric).run(mapping)
    report = fabric.energy_report()
    return {
        "latency": latency,
        "energy": (report.static_energy_j, report.dynamic_energy_j,
                   report.breakdown_j),
        "reconfigurations": fabric.reconfiguration_count,
        "pcmc_energy_j": fabric.pcmc_energy_j,
        "decisions": controller.decision_log,
        "traffic": fabric.monitor.history,
        "events": env._sequence,
        "now": env.now,
    }


class TestBitIdentical:
    @pytest.mark.parametrize("controller", ["resipi", "prowaves"])
    @pytest.mark.parametrize("timeline", [HazardTimeline(), TIMELINE],
                             ids=["healthy", "hazards"])
    def test_inference_matches_every_bank_reference(self, controller,
                                                    timeline):
        shipped = run_inference(PhotonicInterposerFabric,
                                SHIPPED[controller], timeline)
        reference = run_inference(EveryBankFabric, REFERENCE[controller],
                                  timeline)
        assert shipped == reference  # exact floats, logs and event counts
        decisions = shipped["decisions"]
        assert any(decision != decisions[0] for decision in decisions)

    @pytest.mark.parametrize("controller", ["resipi", "prowaves"])
    def test_serving_records_match_every_bank_reference(self, controller,
                                                        monkeypatch):
        cell = ServingCell(
            platform="2.5D-CrossLight-SiPh",
            models=(("LeNet5", 0.7, None, 0), ("MobileNetV2", 0.3, None, 0)),
            controller=controller, scheduler=SchedulerSpec(),
            arrival_kind="mmpp", rate_rps=150e3, duration_s=0.3e-3,
            seed=11, config=DEFAULT_PLATFORM,
            faults=FaultSpec.from_dict({"events": [
                {"kind": "gateway-fail", "at_s": 60e-6,
                 "memory_gateways": 5},
                {"kind": "ring-drift", "at_s": 90e-6, "duration_s": 60e-6,
                 "temperature_rise_k": 10.0},
                {"kind": "gateway-repair", "at_s": 200e-6,
                 "memory_gateways": 5},
            ]}),
        )
        shipped_records: list = []
        shipped = simulate_serving_cell(cell, record_sink=shipped_records)
        monkeypatch.setattr(accelerator, "PhotonicInterposerFabric",
                            EveryBankFabric)
        monkeypatch.setitem(CONTROLLER_FACTORIES, controller,
                            REFERENCE[controller])
        reference_records: list = []
        reference = simulate_serving_cell(cell,
                                          record_sink=reference_records)
        assert shipped_records == reference_records
        assert pickle.dumps(shipped) == pickle.dumps(reference)
        assert shipped.requests_completed > 0


class TestChangedDecisionsOnly:
    def count_hook_calls(self, fabric):
        calls = []
        hook = fabric.set_active_chiplet_gateways

        def counted(chiplet_id, n_write, n_read):
            calls.append(chiplet_id)
            hook(chiplet_id, n_write, n_read)

        fabric.set_active_chiplet_gateways = counted
        return calls

    def test_resipi_calls_bank_hooks_only_on_changes(self):
        env = Environment()
        fabric = PhotonicInterposerFabric(
            env, DEFAULT_PLATFORM, build_floorplan(DEFAULT_PLATFORM)
        )
        controller = ReSiPIController(env, fabric, DEFAULT_PLATFORM)
        calls = self.count_hook_calls(fabric)
        before = fabric.reconfiguration_count

        def traffic():
            for _ in range(3):
                yield fabric.read(CHIPLET, 20e6)
            yield env.timeout(10e-6)  # silent epochs ramp back down

        env.run_until_event(env.process(traffic()), limit=1.0)
        epochs = len(controller.decision_log)
        assert epochs > 10
        # Every bank-hook call changed a count; silent epochs made none.
        assert 0 < len(calls) <= fabric.reconfiguration_count - before
        assert len(calls) < epochs

    def test_prowaves_steady_share_retunes_no_channel(self):
        env = Environment()
        fabric = PhotonicInterposerFabric(
            env, DEFAULT_PLATFORM, build_floorplan(DEFAULT_PLATFORM)
        )
        controller = ProwavesController(env, fabric, DEFAULT_PLATFORM)
        retunes = []
        apply = fabric._apply_bandwidth

        def counted(channel, target_bps, increase):
            retunes.append(channel.name)
            apply(channel, target_bps, increase)

        fabric._apply_bandwidth = counted
        env.run(until=20e-6)  # idle: the share stays at one comb line
        assert len(controller.decision_log) >= 19
        assert retunes == []


class TestFabricHooks:
    def make(self):
        env = Environment()
        return env, PhotonicInterposerFabric(
            env, DEFAULT_PLATFORM, build_floorplan(DEFAULT_PLATFORM)
        )

    def test_configuration_must_name_every_chiplet(self):
        _, fabric = self.make()
        with pytest.raises(ConfigurationError, match="chiplet"):
            fabric.configure_gateways(1, [(1, 1)])

    def test_configuration_counts_validated(self):
        _, fabric = self.make()
        n = len(fabric.inventories)
        with pytest.raises(ConfigurationError):
            fabric.configure_gateways(0, [(1, 1)] * n)
        with pytest.raises(ConfigurationError):
            fabric.configure_gateways(1, [(0, 1)] * n)

    def test_failures_clamp_at_once_and_repairs_restore_capacity(self):
        _, fabric = self.make()
        n = len(fabric.inventories)
        fabric.fail_gateways(6, [(CHIPLET, 3, 1)])
        assert fabric.active_memory_gateways.value == 2
        assert fabric.active_write_gateways[CHIPLET].value == 1
        assert fabric.active_read_gateways[CHIPLET].value == 3
        fabric.configure_gateways(8, [(4, 4)] * n)  # capped
        assert fabric.active_memory_gateways.value == 2
        assert fabric.active_write_gateways[CHIPLET].value == 1
        fabric.repair_gateways(6, [(CHIPLET, 3, 1)])
        assert fabric.active_memory_gateways.value == 2  # not activity
        fabric.configure_gateways(8, [(4, 4)] * n)
        assert fabric.active_memory_gateways.value == 8
        assert fabric.active_write_gateways[CHIPLET].value == 4

    def test_same_counts_land_a_pending_switch_at_once(self):
        """A repeated decision applies an increase still switching in
        the PCM cells immediately, as re-asserting it always did."""
        env, fabric = self.make()
        n = len(fabric.inventories)
        fabric.configure_gateways(1, [(1, 1)] * n)
        fabric.configure_gateways(1, [(1, 4)] * n)
        channel = fabric.chiplet_read_channels[CHIPLET]
        one = DEFAULT_PLATFORM.gateway_bandwidth_bps
        assert channel.bandwidth_bps == one  # still switching
        fabric.configure_gateways(1, [(1, 4)] * n)
        assert channel.bandwidth_bps == 4 * one

    def test_usable_share_scales_the_requested_share(self):
        _, fabric = self.make()
        full = fabric.memory_write_channel.bandwidth_bps
        fabric.set_wavelength_fraction(0.5)
        fabric.set_usable_wavelength_fraction(0.5)
        assert fabric.memory_write_channel.bandwidth_bps == full / 4
        fabric.set_usable_wavelength_fraction(1.0)
        assert fabric.memory_write_channel.bandwidth_bps == full / 2


def test_close_segments_matches_repeated_sets():
    env = Environment()
    batch = [TimeWeightedValue(env, 3.0), TimeWeightedValue(env, 1.0)]
    single = [TimeWeightedValue(env, 3.0), TimeWeightedValue(env, 1.0)]
    for step in range(1, 50):
        env._now = step * 0.1e-6
        close_segments(batch, env.now)
        for signal in single:
            signal.set(signal.value)
    env._now = 7e-6
    assert [s.integral() for s in batch] == [s.integral() for s in single]

"""Controller epochs pay only for changed decisions, bit-identically.

ReSiPI/PROWAVES decide every epoch, but most decisions repeat the last
one.  A decision or comb share that leaves the fabric as it is returns
at once; otherwise ``configure_gateways`` takes the full per-bank hook
only where a count changes.  Controllers and PCMC switches are kernel
entries of their own, not processes.  The references below are the
naive epoch: standalone process-driven controllers (a generator and
``env.timeout`` per epoch) re-applying every decision bank by bank
through the public hooks.  Results, request records, energy, decision
logs and kernel event counts must match them bit for bit.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_PLATFORM
from repro.core import siph
from repro.core.engine import InferenceEngine
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.errors import ConfigurationError
from repro.experiments.serving_cell import ServingCell
from repro.experiments.serving_study import simulate_serving_cell
from repro.interposer.photonic.controllers import (
    CONTROLLER_FACTORIES,
    ProwavesController,
    ReSiPIController,
    StaticController,
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
from repro.photonics import constants as ph
from repro.sim.core import Environment, Process
from repro.sim.resources import BandwidthChannel
from repro.sim.stats import TimeWeightedValue
from repro.studies.spec import FaultSpec, SchedulerSpec

CHIPLET = "3x3 conv-0"


class EveryBankFabric(PhotonicInterposerFabric):
    """Applies every configuration and comb share bank by bank through
    the full hooks: no shortcut, no inline retune."""

    def configure_gateways(self, n_memory, chiplets):
        self.set_active_memory_gateways(n_memory)
        for chiplet_id, (n_write, n_read) in zip(self.inventories, chiplets,
                                                 strict=True):
            self.set_active_chiplet_gateways(chiplet_id, n_write, n_read)

    def set_wavelength_fraction(self, fraction):
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"bad wavelength fraction {fraction}")
        self._controller_fraction = fraction
        self._apply_wavelength_fraction()

    def _apply_wavelength_fraction(self):
        fraction = self._controller_fraction
        if self._usable_fraction < 1.0:
            fraction = max(1.0 / self.config.n_wavelengths,
                           fraction * self._usable_fraction)
        self._wavelength_fraction = fraction
        channel = self.memory_write_channel
        rate = self.active_memory_gateways.value * self._gateway_bw * fraction
        self._desired_bandwidth[channel.name] = rate
        channel.set_bandwidth(rate)
        for chiplet_id in self.inventories:
            self.set_active_chiplet_gateways(
                chiplet_id,
                int(self.active_write_gateways[chiplet_id].value),
                int(self.active_read_gateways[chiplet_id].value),
            )


class ProcessReSiPI:
    """ReSiPI as a process: per-epoch key formatting and demand lookups
    through the monitor's public conversion."""

    def __init__(self, env, fabric, config, headroom=1.25):
        self.env = env
        self.fabric = fabric
        self.config = config
        self.headroom = headroom
        self.decision_log = []
        fabric.configure_gateways(1, [(1, 1)] * len(fabric.inventories))
        env.process(self._run())

    def _gateways(self, demand_bps, maximum):
        if demand_bps <= 0.0:
            return 1
        needed = math.ceil(
            self.headroom * demand_bps / self.config.gateway_bandwidth_bps
        )
        return max(1, min(maximum, needed))

    def _run(self):
        fabric = self.fabric
        while True:
            yield self.env.timeout(self.config.resipi_epoch_s)
            demand = fabric.monitor.demanded_bandwidth_bps(
                fabric.monitor.close_epoch()
            )
            n_memory = self._gateways(demand.get("mem_read", 0.0),
                                      self.config.n_memory_write_gateways)
            decisions = {"mem": n_memory}
            counts = []
            for chiplet_id, inventory in fabric.inventories.items():
                n_read = self._gateways(
                    demand.get(f"read:{chiplet_id}", 0.0),
                    inventory.n_read_gateways,
                )
                n_write = self._gateways(
                    demand.get(f"write:{chiplet_id}", 0.0),
                    inventory.n_write_gateways,
                )
                counts.append((n_write, n_read))
                decisions[chiplet_id] = n_read + n_write
            fabric.configure_gateways(n_memory, counts)
            self.decision_log.append(decisions)


class ProcessProwaves:
    """PROWAVES as a process, taking the peak over every channel,
    trafficked or not."""

    def __init__(self, env, fabric, config, headroom=1.25):
        self.env = env
        self.fabric = fabric
        self.config = config
        self.headroom = headroom
        self.decision_log = []
        fabric.set_wavelength_fraction(1.0 / config.n_wavelengths)
        env.process(self._run())

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


REFERENCE = {"resipi": ProcessReSiPI, "prowaves": ProcessProwaves}
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
        monkeypatch.setattr(siph, "PhotonicInterposerFabric",
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

    def test_repeated_decisions_touch_no_hook_and_no_channel(
            self, monkeypatch):
        """Once settled, an idle ReSiPI epoch returns after the decision
        comparison: no gateway hook, no channel rate write."""
        env = Environment()
        fabric = PhotonicInterposerFabric(
            env, DEFAULT_PLATFORM, build_floorplan(DEFAULT_PLATFORM)
        )
        controller = ReSiPIController(env, fabric, DEFAULT_PLATFORM)
        env.run(until=2.5e-6)  # the first idle epoch settles the banks
        hooks, settles, writes = [], [], []
        memory_hook = PhotonicInterposerFabric.set_active_memory_gateways
        monkeypatch.setattr(
            PhotonicInterposerFabric, "set_active_memory_gateways",
            lambda fabric, count: (hooks.append(count),
                                   memory_hook(fabric, count)),
        )
        settle = PhotonicInterposerFabric._settle
        monkeypatch.setattr(
            PhotonicInterposerFabric, "_settle",
            lambda fabric, bank, scale: (settles.append(bank.chiplet_id),
                                         settle(fabric, bank, scale)),
        )
        set_bandwidth = BandwidthChannel.set_bandwidth
        monkeypatch.setattr(
            BandwidthChannel, "set_bandwidth",
            lambda channel, bps: (writes.append(channel.name),
                                  set_bandwidth(channel, bps)),
        )
        env.run(until=20.5e-6)
        assert len(controller.decision_log) == 20
        assert hooks == [] and settles == [] and writes == []

    def test_prowaves_steady_share_retunes_no_channel(self, monkeypatch):
        env = Environment()
        fabric = PhotonicInterposerFabric(
            env, DEFAULT_PLATFORM, build_floorplan(DEFAULT_PLATFORM)
        )
        controller = ProwavesController(env, fabric, DEFAULT_PLATFORM)
        retunes = []
        retune = PhotonicInterposerFabric._apply_wavelength_fraction
        monkeypatch.setattr(
            PhotonicInterposerFabric, "_apply_wavelength_fraction",
            lambda fabric: (retunes.append(fabric.env.now), retune(fabric)),
        )
        env.run(until=20e-6)  # idle: the share stays at one comb line
        assert len(controller.decision_log) >= 19
        assert retunes == []

    def test_changed_share_retunes_each_channel_once(self, monkeypatch):
        """Inline: one settle per bank, no per-channel bandwidth hook."""
        _, fabric = TestFabricHooks().make()
        fabric.set_wavelength_fraction(0.25)
        settles, hooks = [], []
        settle = PhotonicInterposerFabric._settle
        monkeypatch.setattr(
            PhotonicInterposerFabric, "_settle",
            lambda fabric, bank, scale: (settles.append(bank.chiplet_id),
                                         settle(fabric, bank, scale)),
        )
        monkeypatch.setattr(
            PhotonicInterposerFabric, "_apply_bandwidth",
            lambda *args: hooks.append(args),
        )
        fabric.set_wavelength_fraction(0.5)
        assert settles == list(fabric.inventories) and hooks == []
        line = DEFAULT_PLATFORM.gateway_bandwidth_bps * 0.5
        for chiplet_id, inventory in fabric.inventories.items():
            assert fabric.chiplet_write_channels[chiplet_id].bandwidth_bps \
                == inventory.n_write_gateways * line
            assert fabric.chiplet_read_channels[chiplet_id].bandwidth_bps \
                == inventory.n_read_gateways * line
        assert fabric.memory_write_channel.bandwidth_bps == (
            DEFAULT_PLATFORM.n_memory_write_gateways * line
        )


class TestFabricHooks:
    def make(self, fabric_cls=PhotonicInterposerFabric):
        env = Environment()
        return env, fabric_cls(
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

    def test_shortcut_waits_for_a_pending_memory_switch(self):
        """The memory side too: a decision repeating a memory increase
        that is still switching takes the full path and lands it."""
        env, fabric = self.make()
        n = len(fabric.inventories)
        fabric.configure_gateways(1, [(1, 1)] * n)
        fabric.configure_gateways(1, [(1, 1)] * n)  # settled
        fabric.configure_gateways(4, [(1, 1)] * n)
        channel = fabric.memory_write_channel
        one = DEFAULT_PLATFORM.gateway_bandwidth_bps
        assert channel.bandwidth_bps == one  # still switching
        fabric.configure_gateways(4, [(1, 1)] * n)
        assert channel.bandwidth_bps == 4 * one

    def test_usable_share_scales_the_requested_share(self):
        _, fabric = self.make()
        full = fabric.memory_write_channel.bandwidth_bps
        fabric.set_wavelength_fraction(0.5)
        fabric.set_usable_wavelength_fraction(0.5)
        assert fabric.memory_write_channel.bandwidth_bps == full / 4
        fabric.set_usable_wavelength_fraction(1.0)
        assert fabric.memory_write_channel.bandwidth_bps == full / 2

    def test_steady_share_still_follows_a_count_change(self):
        """A direct count change ends the share shortcut: the same
        share applied again retunes the changed bank at once."""
        _, fabric = self.make()
        fabric.set_wavelength_fraction(0.5)
        fabric.set_active_chiplet_gateways(CHIPLET, 1, 1)
        fabric.set_active_chiplet_gateways(CHIPLET, 1, 4)  # switching
        channel = fabric.chiplet_read_channels[CHIPLET]
        half = DEFAULT_PLATFORM.gateway_bandwidth_bps * 0.5
        assert channel.bandwidth_bps == half
        fabric.set_wavelength_fraction(0.5)
        assert channel.bandwidth_bps == 4 * half

    @pytest.mark.parametrize("fabric_cls",
                             [PhotonicInterposerFabric, EveryBankFabric])
    def test_landing_switch_ends_the_share_shortcut(self, fabric_cls):
        """A memory increase still switching when a new comb share
        applies finds itself superseded: the channel keeps the rate of
        the share in force, and the same share applied again leaves it
        there, as the every-bank path does."""
        env, fabric = self.make(fabric_cls)
        channel = fabric.memory_write_channel
        one = DEFAULT_PLATFORM.gateway_bandwidth_bps
        fabric.set_active_memory_gateways(1)
        fabric.set_wavelength_fraction(0.5)
        fabric.set_active_memory_gateways(4)  # switching at share 0.5
        fabric.set_wavelength_fraction(0.25)
        assert channel.bandwidth_bps == 4 * one * 0.25
        env.run()
        assert channel.bandwidth_bps == 4 * one * 0.25  # superseded
        fabric.set_wavelength_fraction(0.25)
        assert channel.bandwidth_bps == 4 * one * 0.25


def fabric_state(env, fabric):
    """Everything a decision, a share or a hazard can move."""
    return {
        "now": env.now,
        "events": env._sequence,
        "rates": [channel.bandwidth_bps
                  for channel in fabric.iter_channels()],
        "desired": dict(fabric._desired_bandwidth),
        "integrals": [fabric.active_memory_gateways.integral()] + [
            signal.integral()
            for signals in (fabric.active_write_gateways,
                            fabric.active_read_gateways)
            for signal in signals.values()
        ],
        "counts": [fabric.active_memory_gateways.value] + [
            signal.value
            for signals in (fabric.active_write_gateways,
                            fabric.active_read_gateways)
            for signal in signals.values()
        ],
        "reconfigurations": fabric.reconfiguration_count,
        "pcmc_energy_j": fabric.pcmc_energy_j,
        "fraction": fabric._wavelength_fraction,
    }


GATEWAYS = DEFAULT_PLATFORM.n_memory_write_gateways
INVENTORY = {
    chiplet_id: (inventory.n_write_gateways, inventory.n_read_gateways)
    for chiplet_id, inventory in TestFabricHooks().make()[1]
    .inventories.items()
}
HAZARD_CHIPLETS = (CHIPLET, next(c for c in INVENTORY if c != CHIPLET))


@st.composite
def fabric_programs(draw):
    """Steps of (gap in us, operation); hazards stay within survivors."""
    steps = []
    memory_down = 0
    down = {chiplet: [0, 0] for chiplet in HAZARD_CHIPLETS}
    for _ in range(draw(st.integers(1, 40))):
        gap = draw(st.sampled_from((0.0, 0.5, 1.0, 1.0, 1.0, 2.0)))
        kind = draw(st.sampled_from(
            ("configure", "configure", "configure", "share", "share",
             "fail", "repair", "usable", "memory", "bank")
        ))
        if kind == "memory":
            steps.append((gap, "memory", draw(st.integers(1, GATEWAYS))))
        elif kind == "bank":
            chiplet = draw(st.sampled_from(sorted(INVENTORY)))
            n_write, n_read = INVENTORY[chiplet]
            steps.append((gap, "bank", (chiplet,
                                        draw(st.integers(1, n_write)),
                                        draw(st.integers(1, n_read)))))
        elif kind == "configure":
            template = draw(st.sampled_from(("idle", "repeat", "random")))
            if template == "random" or not steps:
                n_memory = draw(st.integers(1, GATEWAYS))
                chiplets = [
                    (draw(st.integers(1, n_write)),
                     draw(st.integers(1, n_read)))
                    for n_write, n_read in INVENTORY.values()
                ]
            elif template == "idle":
                n_memory, chiplets = 1, [(1, 1)] * len(INVENTORY)
            else:
                previous = [step for step in steps
                            if step[1] == "configure"]
                if previous:
                    n_memory, chiplets = previous[-1][2]
                else:
                    n_memory, chiplets = 1, [(1, 1)] * len(INVENTORY)
            steps.append((gap, "configure", (n_memory, chiplets)))
        elif kind == "share":
            lines = draw(st.integers(1, DEFAULT_PLATFORM.n_wavelengths))
            steps.append(
                (gap, "share", lines / DEFAULT_PLATFORM.n_wavelengths)
            )
        elif kind == "usable":
            steps.append((gap, "usable", draw(st.sampled_from(
                (1.0, 0.75, 0.5, 0.25)))))
        elif kind == "fail":
            memory = draw(st.integers(0, GATEWAYS - 1 - memory_down))
            memory_down += memory
            chiplets = []
            for chiplet, failed in down.items():
                max_write, max_read = INVENTORY[chiplet]
                n_write = draw(st.integers(0, max_write - 1 - failed[0]))
                n_read = draw(st.integers(0, max_read - 1 - failed[1]))
                failed[0] += n_write
                failed[1] += n_read
                chiplets.append((chiplet, n_write, n_read))
            steps.append((gap, "fail", (memory, chiplets)))
        else:
            memory = draw(st.integers(0, memory_down))
            memory_down -= memory
            chiplets = []
            for chiplet, failed in down.items():
                n_write = draw(st.integers(0, failed[0]))
                n_read = draw(st.integers(0, failed[1]))
                failed[0] -= n_write
                failed[1] -= n_read
                chiplets.append((chiplet, n_write, n_read))
            steps.append((gap, "repair", (memory, chiplets)))
    return steps


def replay(fabric_cls, steps):
    env = Environment()
    fabric = fabric_cls(env, DEFAULT_PLATFORM,
                        build_floorplan(DEFAULT_PLATFORM))
    states = []
    for gap, kind, argument in steps:
        env.run(until=env.now + gap * 1e-6)
        if kind == "configure":
            n_memory, chiplets = argument
            fabric.configure_gateways(n_memory, list(chiplets))
        elif kind == "share":
            fabric.set_wavelength_fraction(argument)
        elif kind == "usable":
            fabric.set_usable_wavelength_fraction(argument)
        elif kind == "fail":
            fabric.fail_gateways(*argument)
        elif kind == "repair":
            fabric.repair_gateways(*argument)
        elif kind == "memory":
            fabric.set_active_memory_gateways(argument)
        else:
            fabric.set_active_chiplet_gateways(*argument)
        states.append(fabric_state(env, fabric))
    # Let every switch still in flight land.
    env.run(until=env.now + 3 * ph.PCMC_SWITCHING_TIME_S)
    states.append(fabric_state(env, fabric))
    return states


@settings(max_examples=150, deadline=None)
@given(fabric_programs())
def test_shortcuts_match_the_every_bank_path(steps):
    """Random decisions and comb shares interleaved with hazards and
    direct hook calls: the shortcut paths and the every-bank path leave
    the same rates,
    desired rates, integrals, reconfigurations, PCMC energy and kernel
    event counts after every step."""
    assert replay(PhotonicInterposerFabric, steps) == replay(
        EveryBankFabric, steps)


class TestKernelEntries:
    """Controllers and PCMC switches are kernel entries, not processes."""

    @staticmethod
    def tie_with_immediate(env, at_s):
        """A heap entry at ``at_s``, queued before whatever the caller
        queues next, whose firing fills the immediate queue: the run
        loop then pops the next same-instant heap entry through its
        ``_fire()``."""
        def fill(_event):
            env.event().succeed()

        env.timeout(at_s)._add_callback(fill)

    @pytest.mark.parametrize("controller_cls", [
        ReSiPIController, ProwavesController, StaticController,
    ])
    def test_controllers_start_no_process(self, controller_cls,
                                          monkeypatch):
        started = []
        init = Process.__init__
        monkeypatch.setattr(
            Process, "__init__",
            lambda process, env, generator: (started.append(generator),
                                             init(process, env, generator)),
        )
        env, fabric = TestFabricHooks().make()
        controller_cls(env, fabric, DEFAULT_PLATFORM)
        env.run(until=10.5e-6)
        assert started == []
        assert len(fabric.monitor.history) == 10
        # The bootstrap, then one insertion per epoch boundary queued:
        # silent epochs switch no PCM cell.
        assert env._sequence == 1 + 11

    @pytest.mark.parametrize("controller_cls", [
        ReSiPIController, ProwavesController, StaticController,
    ])
    def test_epoch_popped_through_the_immediate_branch_runs(
            self, controller_cls):
        epoch = DEFAULT_PLATFORM.resipi_epoch_s
        env, fabric = TestFabricHooks().make()
        self.tie_with_immediate(env, epoch)
        controller = controller_cls(env, fabric, DEFAULT_PLATFORM)
        env.run(until=epoch)
        assert len(fabric.monitor.history) == 1
        # The epoch ran and queued the next boundary.
        assert [entry for _, _, entry in env._queue] == [controller]
        env.run(until=3 * epoch)
        assert len(fabric.monitor.history) == 3

    def test_switch_popped_through_the_immediate_branch_lands(self):
        env, fabric = TestFabricHooks().make()
        channel = fabric.memory_write_channel
        fabric.set_active_memory_gateways(1)
        one = channel.bandwidth_bps
        self.tie_with_immediate(env, ph.PCMC_SWITCHING_TIME_S)
        fabric.set_active_memory_gateways(4)
        before = env._sequence
        env.run(until=0.0)  # the switch queues its landing
        assert env._sequence == before + 1 and channel.bandwidth_bps == one
        env.run(until=ph.PCMC_SWITCHING_TIME_S)
        assert channel.bandwidth_bps == 4 * one
        # The landing and the filler's succeed: nothing else was queued
        # (no process finish).
        assert env._sequence == before + 2

    def test_switch_costs_two_insertions_and_no_process(self, monkeypatch):
        started = []
        init = Process.__init__
        monkeypatch.setattr(
            Process, "__init__",
            lambda process, env, generator: (started.append(generator),
                                             init(process, env, generator)),
        )
        env, fabric = TestFabricHooks().make()
        fabric.set_active_memory_gateways(1)
        before = env._sequence
        fabric.set_active_memory_gateways(4)
        env.run()
        assert started == [] and env._sequence == before + 2
        assert fabric.memory_write_channel.bandwidth_bps == (
            4 * DEFAULT_PLATFORM.gateway_bandwidth_bps
        )

    def test_superseded_switch_does_not_land(self):
        env, fabric = TestFabricHooks().make()
        channel = fabric.memory_write_channel
        fabric.set_active_memory_gateways(1)
        fabric.set_active_memory_gateways(4)  # switching
        fabric.set_active_memory_gateways(2)  # a decrease lands at once
        two = channel.bandwidth_bps
        env.run()
        assert channel.bandwidth_bps == two


def test_setting_the_current_value_adds_no_term():
    env = Environment()
    reasserted = TimeWeightedValue(env, 3.0)
    changed_once = TimeWeightedValue(env, 3.0)
    for step in range(1, 50):
        env._now = step * 0.1e-6
        reasserted.set(3.0)
    env._now = 5e-6
    reasserted.set(1.0)
    changed_once.set(1.0)
    env._now = 7e-6
    assert reasserted.integral() == changed_once.integral()
    assert reasserted._last_change == changed_once._last_change == 5e-6

"""Hazard engine: time-varying faults, windowed metrics, determinism."""

import pickle

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.core.engine import InferenceEngine
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.errors import ConfigurationError, SpecError, UnknownNameError
from repro.interposer.photonic.controllers import ReSiPIController
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
from repro.serving.metrics import RequestRecord, windowed_stats
from repro.sim.core import Environment
from repro.studies import (
    HAZARDS,
    FaultEventSpec,
    FaultSpec,
    ModelTraffic,
    PlatformSpec,
    SchedulerSpec,
    StudySpec,
    SweepAxis,
    SweepSpec,
    WorkloadSpec,
)
from repro.studies.compile import (
    lower_serving_point,
    render_dry_run,
    resolve_config,
    run_study,
)

SIPH = "2.5D-CrossLight-SiPh"


def make_fabric():
    env = Environment()
    floorplan = build_floorplan(DEFAULT_PLATFORM)
    return env, PhotonicInterposerFabric(env, DEFAULT_PLATFORM, floorplan)


def fault_spec(events, **overrides) -> StudySpec:
    kwargs = dict(
        name="hazard",
        kind="serving",
        workload=WorkloadSpec(
            models=(
                ModelTraffic(model="LeNet5", fraction=0.8, slo_s=300e-6),
                ModelTraffic(model="MobileNetV2", fraction=0.2,
                             slo_s=5e-3),
            ),
            arrival="mmpp", rate_rps=40e3, duration_s=1e-3,
        ),
        platform=PlatformSpec(
            name=SIPH, faults=FaultSpec(events=tuple(events)),
        ),
        scheduler=SchedulerSpec(policy="edf"),
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


MIDSTREAM_EVENTS = (
    FaultEventSpec(kind="gateway-fail", at_s=300e-6, memory_gateways=7),
    FaultEventSpec(kind="ring-drift", at_s=350e-6, duration_s=250e-6,
                   temperature_rise_k=10.0),
    FaultEventSpec(kind="gateway-repair", at_s=650e-6,
                   memory_gateways=7),
)


class TestTimelineValidation:
    def test_actionable_memory_overfail_message(self):
        env, fabric = make_fabric()
        timeline = HazardTimeline((
            GatewayFail(at_s=0.0, memory_gateways=5),
            GatewayFail(at_s=1e-6, memory_gateways=3),
        ))
        with pytest.raises(ConfigurationError) as error:
            HazardEngine(fabric, timeline)
        message = str(error.value)
        # Observed vs allowed counts, and the failing instant.
        assert "8 cumulative failure(s)" in message
        assert "at most 7 may be down" in message
        assert "t=1e-06s" in message

    def test_actionable_chiplet_overfail_message(self):
        env, fabric = make_fabric()
        chiplet = sorted(fabric.inventories)[0]
        n_write = fabric.inventories[chiplet].n_write_gateways
        timeline = HazardTimeline((
            GatewayFail(at_s=0.0,
                        chiplet_gateways=((chiplet, n_write, 0),)),
        ))
        with pytest.raises(ConfigurationError) as error:
            HazardEngine(fabric, timeline)
        assert chiplet in str(error.value)
        assert f"of {n_write} gateways" in str(error.value)

    def test_unknown_chiplet_gets_did_you_mean(self):
        env, fabric = make_fabric()
        known = sorted(fabric.inventories)[0]
        typo = known[:-1]  # close enough for a suggestion
        timeline = HazardTimeline((
            GatewayFail(at_s=0.0, chiplet_gateways=((typo, 1, 0),)),
        ))
        with pytest.raises(UnknownNameError) as error:
            HazardEngine(fabric, timeline)
        assert known in error.value.suggestions

    def test_repair_more_than_failed_rejected(self):
        env, fabric = make_fabric()
        timeline = HazardTimeline((
            GatewayFail(at_s=0.0, memory_gateways=2),
            GatewayRepair(at_s=1e-6, memory_gateways=3),
        ))
        with pytest.raises(ConfigurationError, match="only 2"):
            HazardEngine(fabric, timeline)

    def test_negative_counts_rejected(self):
        """Negative counts would silently inflate surviving capacity."""
        for event in (
            GatewayFail(at_s=0.0, memory_gateways=-1),
            GatewayFail(at_s=0.0, chiplet_gateways=(("3x3 conv-0", -1, 0),)),
        ):
            env, fabric = make_fabric()
            with pytest.raises(ConfigurationError, match=">= 0"):
                HazardEngine(fabric, HazardTimeline((event,)))
        env, fabric = make_fabric()
        with pytest.raises(ConfigurationError, match=">= 0"):
            HazardEngine(fabric, HazardTimeline((
                GatewayFail(at_s=0.0, memory_gateways=2),
                GatewayRepair(at_s=1e-6, memory_gateways=-1),
            )))

    def test_events_must_be_chronological(self):
        with pytest.raises(ConfigurationError, match="chronologically"):
            HazardTimeline((
                GatewayFail(at_s=1e-6, memory_gateways=1),
                GatewayFail(at_s=0.0, memory_gateways=1),
            ))

    def test_hazard_errors_pickle_cleanly(self):
        """Worker-raised hazard errors survive the process-pool trip."""
        env, fabric = make_fabric()
        for timeline in (
            HazardTimeline((GatewayFail(at_s=0.0, memory_gateways=9),)),
            HazardTimeline((
                GatewayFail(at_s=0.0, chiplet_gateways=(("nope", 1, 0),)),
            )),
        ):
            with pytest.raises(ConfigurationError) as error:
                env, fabric = make_fabric()
                HazardEngine(fabric, timeline)
            clone = pickle.loads(pickle.dumps(error.value))
            assert type(clone) is type(error.value)
            assert str(clone) == str(error.value)

    def test_factories_reject_inert_knobs(self):
        with pytest.raises(ConfigurationError, match="power_fraction"):
            HAZARDS.get("gateway-fail")(
                at_s=0.0, memory_gateways=1, power_fraction=0.5
            )
        with pytest.raises(ConfigurationError, match="chiplet_gateways"):
            HAZARDS.get("ring-drift")(
                at_s=0.0, duration_s=1e-6, temperature_rise_k=5.0,
                chiplet_gateways=(("c", 1, 0),),
            )
        with pytest.raises(ConfigurationError, match="duration"):
            HAZARDS.get("laser-degradation")(
                at_s=0.0, power_fraction=0.5
            )
        with pytest.raises(UnknownNameError, match="ring-drift"):
            HAZARDS.get("ring-drft")


class TestStaticEquivalence:
    def run_one_shot(self, attach):
        """One MobileNetV2 inference with ``attach(fabric)`` applied."""
        config = DEFAULT_PLATFORM
        env = Environment()
        floorplan = build_floorplan(config)
        fabric = PhotonicInterposerFabric(env, config, floorplan)
        attach(fabric)
        ReSiPIController(env, fabric, config)
        workload = extract_workload(zoo.build("MobileNetV2"))
        mapping = KernelMatchMapper(config, floorplan).map_workload(
            workload
        )
        return InferenceEngine(env, config, fabric).run(mapping)

    def test_empty_timeline_bit_identical_to_healthy(self):
        healthy = self.run_one_shot(lambda fabric: None)
        empty = self.run_one_shot(
            lambda fabric: HazardEngine(fabric, HazardTimeline())
        )
        assert healthy == empty

    def test_late_failure_bounded_by_static_failure(self):
        """A mid-run failure costs less than the same failure at t=0,
        and more than no failure at all."""
        healthy = self.run_one_shot(lambda fabric: None)
        static = self.run_one_shot(
            lambda fabric: HazardEngine(fabric, HazardTimeline((
                GatewayFail(at_s=0.0, memory_gateways=7),
            )))
        )
        mid = self.run_one_shot(
            lambda fabric: HazardEngine(fabric, HazardTimeline((
                GatewayFail(at_s=healthy / 2, memory_gateways=7),
            )))
        )
        assert healthy < mid < static


class TestCapacityDynamics:
    def test_midstream_fail_and_repair_change_caps(self):
        env, fabric = make_fabric()
        engine = HazardEngine(fabric, HazardTimeline((
            GatewayFail(at_s=1e-6, memory_gateways=6),
            GatewayRepair(at_s=3e-6, memory_gateways=6),
        )))
        assert fabric.surviving_memory_gateways() == 8
        env.run(until=2e-6)
        assert fabric.surviving_memory_gateways() == 2
        assert fabric.active_memory_gateways.value == 2
        # The cap binds mid-stream: a controller decision cannot
        # resurrect dead gateways...
        fabric.set_active_memory_gateways(8)
        assert fabric.active_memory_gateways.value == 2
        env.run(until=4e-6)
        # ...but after the repair, capacity (not activity) is restored:
        assert fabric.surviving_memory_gateways() == 8
        assert fabric.active_memory_gateways.value == 2
        fabric.set_active_memory_gateways(8)
        assert fabric.active_memory_gateways.value == 8
        assert engine.degraded_intervals() == pytest.approx([(1e-6, 3e-6)])

    def test_ring_drift_burst_cuts_and_restores_bandwidth(self):
        env, fabric = make_fabric()
        baseline = fabric.memory_write_channel.bandwidth_bps
        burst = RingDriftBurst(at_s=1e-6, duration_s=2e-6,
                               temperature_rise_k=10.0)
        usable = burst.usable_fraction(DEFAULT_PLATFORM.n_wavelengths)
        assert 0.0 < usable < 1.0
        HazardEngine(fabric, HazardTimeline((burst,)))
        env.run(until=2e-6)
        degraded = fabric.memory_write_channel.bandwidth_bps
        assert degraded == pytest.approx(baseline * usable)
        env.run(until=4e-6)
        assert fabric.memory_write_channel.bandwidth_bps == pytest.approx(
            baseline
        )

    def test_laser_degradation_fraction(self):
        event = LaserDegradation(at_s=0.0, duration_s=1e-6,
                                 power_fraction=0.5)
        # Linear wall-plug model: half the drive closes half the comb.
        assert event.usable_fraction(64) == pytest.approx(0.5)
        weak = LaserDegradation(at_s=0.0, duration_s=1e-6,
                                power_fraction=0.001)
        assert weak.usable_fraction(64) == pytest.approx(1 / 64)
        # Round fractions must not lose a line to binary-float noise
        # (0.7 * 10 == 6.999... would floor to 6).
        seven_tenths = LaserDegradation(at_s=0.0, duration_s=1e-6,
                                        power_fraction=0.7)
        assert seven_tenths.usable_fraction(10) == pytest.approx(0.7)
        assert LaserDegradation(
            at_s=0.0, duration_s=1e-6, power_fraction=0.29
        ).usable_fraction(100) == pytest.approx(0.29)

    def test_transients_compound(self):
        env, fabric = make_fabric()
        baseline = fabric.memory_write_channel.bandwidth_bps
        drift = RingDriftBurst(at_s=1e-6, duration_s=4e-6,
                               temperature_rise_k=10.0)
        laser = LaserDegradation(at_s=2e-6, duration_s=2e-6,
                                 power_fraction=0.5)
        n_lambda = DEFAULT_PLATFORM.n_wavelengths
        expected = drift.usable_fraction(n_lambda) * 0.5
        HazardEngine(fabric, HazardTimeline((drift, laser)))
        env.run(until=3e-6)
        assert fabric.memory_write_channel.bandwidth_bps == pytest.approx(
            baseline * expected
        )


class TestWindowedStats:
    def record(self, arrival, latency, dropped=False, deadline=None):
        return RequestRecord(
            request_id=0, model="m", arrival_s=arrival,
            dispatch_s=arrival, finish_s=arrival + latency,
            deadline_s=deadline, dropped=dropped,
        )

    def test_records_split_by_arrival(self):
        records = [
            self.record(0.1, 1.0),
            self.record(1.5, 5.0),
            self.record(2.5, 1.0),
            self.record(3.5, 1.0),  # past elapsed boundary -> "after"
        ]
        windows = windowed_stats(records, 1.0, 2.0, 3.0)
        assert [w.label for w in windows] == ["before", "during", "after"]
        assert [w.completed for w in windows] == [1, 1, 2]
        assert windows[1].latency.p99_s == pytest.approx(5.0)
        assert windows[0].goodput_rps == pytest.approx(1.0)

    def test_degenerate_windows_dropped(self):
        windows = windowed_stats([self.record(0.5, 1.0)], 0.0, 4.0, 2.0)
        assert [w.label for w in windows] == ["during"]

    def test_shed_and_violations_counted(self):
        records = [
            self.record(1.1, 0.0, dropped=True, deadline=1.2),
            self.record(1.2, 2.0, deadline=1.4),
        ]
        window = windowed_stats(records, 1.0, 2.0, 2.0)[-1]
        assert window.label == "during"
        assert window.shed == 1
        assert window.completed == 1
        assert window.slo_violations == 2
        assert window.slo_attainment == 0.0


class TestSpecIntegration:
    def test_fault_spec_round_trips(self):
        spec = fault_spec(MIDSTREAM_EVENTS)
        clone = StudySpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.digest == spec.digest

    def test_faults_move_the_digest(self):
        base = fault_spec(())
        faulted = fault_spec(MIDSTREAM_EVENTS)
        assert base.digest != faulted.digest
        nudged = fault_spec((
            MIDSTREAM_EVENTS[0],
            MIDSTREAM_EVENTS[1],
            FaultEventSpec(kind="gateway-repair", at_s=651e-6,
                           memory_gateways=7),
        ))
        assert nudged.digest != faulted.digest

    def test_faults_move_the_cell_key(self):
        base = fault_spec(())
        faulted = fault_spec(MIDSTREAM_EVENTS)
        base_cell = lower_serving_point(base, resolve_config(base))
        fault_cell = lower_serving_point(faulted, resolve_config(faulted))
        assert base_cell.key() != fault_cell.key()

    def test_faulted_point_never_classic(self):
        single = StudySpec(
            name="single",
            kind="serving",
            workload=WorkloadSpec(models=(ModelTraffic(model="LeNet5"),)),
            platform=PlatformSpec(name=SIPH, faults=FaultSpec(
                events=(FaultEventSpec(kind="gateway-fail", at_s=0.0,
                                       memory_gateways=1),),
            )),
        )
        cell = lower_serving_point(single, resolve_config(single))
        assert cell.faults == single.platform.faults

    def test_faults_rejected_off_siph(self):
        spec = fault_spec(
            MIDSTREAM_EVENTS,
            platform=PlatformSpec(name="CrossLight", faults=FaultSpec(
                events=MIDSTREAM_EVENTS
            )),
        )
        with pytest.raises(SpecError, match="SiPh"):
            run_study(spec)

    def test_unknown_hazard_kind_fails_fast(self):
        spec = fault_spec((
            FaultEventSpec(kind="gateway-fial", at_s=0.0,
                           memory_gateways=1),
        ))
        with pytest.raises(UnknownNameError, match="gateway-fail"):
            run_study(spec)

    def test_faults_sweepable_as_axis(self):
        spec = fault_spec((), sweep=SweepSpec(axes=(
            SweepAxis(field="platform.faults", values=(
                {},
                {"events": [{"kind": "gateway-fail", "at_s": 0.0,
                             "memory_gateways": 4}]},
            )),
        )))
        points = spec.expand()
        assert len(points) == 2
        assert not points[0].platform.faults.events
        assert points[1].platform.faults.events[0].memory_gateways == 4
        assert points[0].digest != points[1].digest

    def test_bad_worker_fault_error_crosses_process_pool(self):
        """Chiplet names resolve only against the built fabric, so the
        failure happens in the worker; the typed error must survive the
        ProcessPoolExecutor trip intact."""
        spec = fault_spec((
            FaultEventSpec(kind="gateway-fail", at_s=0.0,
                           chiplet_gateways=(("3x3 conv-99", 1, 0),)),
        ))
        with pytest.raises(UnknownNameError, match="3x3 conv-"):
            run_study(spec, jobs=2)


class TestFaultServingEndToEnd:
    @pytest.fixture(scope="class")
    def study(self):
        return run_study(fault_spec(MIDSTREAM_EVENTS))

    def test_windows_show_degradation_and_recovery(self, study):
        (result,) = study.serving_results()
        by_label = {window.label: window for window in result.windows}
        assert set(by_label) == {"before", "during", "after"}
        assert by_label["during"].latency.p99_s > (
            by_label["before"].latency.p99_s
        )
        assert result.time_degraded_s == pytest.approx(350e-6)
        kinds = [event.kind for event in result.hazard_events]
        assert kinds == ["gateway-fail", "ring-drift", "gateway-repair"]
        assert result.hazard_events[0].memory_gateways_delta == -7

    def test_overlapping_hazards_count_once(self):
        """A gateway outage over [300, 650] us and a MAC degrade over
        [500, 800] us degrade the run for 500 us: their union."""
        (result,) = run_study(fault_spec((
            FaultEventSpec(kind="gateway-fail", at_s=300e-6,
                           memory_gateways=7),
            FaultEventSpec(kind="chiplet-mac-degrade", at_s=500e-6,
                           mac_fraction=0.5, duration_s=300e-6),
            FaultEventSpec(kind="gateway-repair", at_s=650e-6,
                           memory_gateways=7),
        ))).serving_results()
        assert result.time_degraded_s == pytest.approx(500e-6)
        assert [window.label for window in result.windows] == [
            "before", "during", "after",
        ]

    def test_fault_run_slower_than_clean_run(self, study):
        clean = run_study(fault_spec(())).serving_results()[0]
        (faulted,) = study.serving_results()
        assert faulted.latency.p99_s > clean.latency.p99_s
        assert not clean.windows and clean.time_degraded_s == 0.0

    def test_export_includes_hazard_fields(self, study):
        import json

        from repro.experiments.export import (
            study_results_to_csv,
            study_results_to_json,
        )

        (record,) = json.loads(
            study_results_to_json(study.serving_results())
        )
        assert len(record["fault_windows"]) == 3
        assert record["hazard_events"][0]["kind"] == "gateway-fail"
        assert record["time_degraded_s"] == pytest.approx(350e-6)
        assert "time_degraded_s" in study_results_to_csv(
            study.serving_results()
        ).splitlines()[0]

    def test_deterministic_serial_parallel_and_cached(self, tmp_path):
        spec = fault_spec(MIDSTREAM_EVENTS)
        serial = run_study(spec)
        parallel = run_study(spec, jobs=4)
        cold = run_study(spec, cache_dir=tmp_path)
        warm = run_study(spec, cache_dir=tmp_path)
        assert serial.points == parallel.points
        assert serial.points == cold.points
        assert cold.points == warm.points


class TestDryRun:
    def test_dry_run_lists_grid_and_keys(self):
        spec = fault_spec((), sweep=SweepSpec(axes=(
            SweepAxis(field="workload.rate_rps", values=(20e3, 40e3)),
        )))
        text = render_dry_run(spec)
        assert spec.digest in text
        assert "2 point(s), 2 cell(s)" in text
        assert "workload.rate_rps=20000" in text
        points, cells = __import__(
            "repro.studies.compile", fromlist=["lower_study"]
        ).lower_study(spec)
        for group in cells:
            assert group[0].key() in text

    def test_dry_run_cli_does_not_simulate(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "spec.json"
        path.write_text(fault_spec(MIDSTREAM_EVENTS).to_json())
        assert main(["study", str(path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "dry run, nothing simulated" in out
        assert "ServingCell" in out

    def test_dry_run_cli_reports_bad_spec(self, capsys, tmp_path):
        from repro.cli import main

        spec = fault_spec((
            FaultEventSpec(kind="gateway-fial", at_s=0.0,
                           memory_gateways=1),
        ))
        path = tmp_path / "typo.json"
        path.write_text(spec.to_json())
        assert main(["study", str(path), "--dry-run"]) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_example_fault_spec_parses(self):
        from repro.studies.compile import load_spec

        spec = load_spec("examples/fault_serving_spec.json")
        assert spec.kind == "serving"
        points = spec.expand()
        assert len(points) == 2
        assert not points[0].platform.faults.events
        assert len(points[1].platform.faults.events) == 3

"""Request-serving layer: scheduler, metrics, residency, load curves."""

import dataclasses
import json

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.core.crosslight import MonolithicCrossLight
from repro.core.siph import CrossLight25DSiPh
from repro.core.engine import ComputeOccupancy, ExecutionTrace
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.export import (
    serving_result_to_dict,
    study_results_to_csv,
    study_results_to_json,
)
from repro.experiments.reports import render_serving_study
from repro.experiments.serving_cell import ServingCell
from repro.experiments.serving_study import simulate_serving_cell
from repro.mapping.residency import WeightResidency
from repro.serving.metrics import (
    LatencyProfile,
    RequestRecord,
    RequestTable,
    per_model_stats,
    percentile,
    request_fields,
    windowed_stats,
)
from repro.serving.scheduler import RequestScheduler
from repro.sim.core import Environment
from repro.sim.traffic import (
    ClosedLoopClients,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.studies import (
    FaultSpec,
    FidelitySpec,
    NodeOverrideSpec,
    ResilienceSpec,
    SchedulerSpec,
    TelemetrySpec,
)
from repro.studies.builders import serve_study_spec
from repro.studies.compile import run_study

WORKLOAD = extract_workload(zoo.build("LeNet5"))
LENET5 = (("LeNet5", None),)


def table_of(records):
    """One LeNet5-only run's request table."""
    return RequestTable.from_records(records, LENET5)


def fields_of(records):
    """The serving reduction over one LeNet5-only run's records."""
    return request_fields(table_of(records), elapsed_s=1.0)


def make_scheduler(platform=None, policy=None, **kwargs):
    platform = platform or MonolithicCrossLight()
    env = Environment()
    sim = platform.build_simulation(env)
    scheduler = RequestScheduler(
        sim, sim.map_workload(WORKLOAD), "LeNet5",
        policy=policy or SchedulerSpec(), **kwargs
    )
    return scheduler, sim


class TestSchedulerSection:
    def test_fifo_label_and_defaults(self):
        policy = SchedulerSpec()
        assert policy.label == "fifo"
        assert policy.max_batch == 1

    def test_max_batch_label(self):
        policy = SchedulerSpec(policy="max-batch", max_batch=8)
        assert policy.label == "max-batch(8)"

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulerSpec(policy="lifo")
        with pytest.raises(ConfigurationError):
            SchedulerSpec(policy="max-batch", max_batch=0)
        with pytest.raises(ConfigurationError):
            SchedulerSpec(policy="fifo", max_batch=2)
        with pytest.raises(ConfigurationError):
            SchedulerSpec(policy="max-batch", max_batch=4,
                          batch_timeout_s=-1.0)
        with pytest.raises(ConfigurationError):
            SchedulerSpec(policy="fifo", max_inflight=0)


class TestPercentiles:
    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50.0) == 50.0
        assert percentile(samples, 99.0) == 99.0
        assert percentile(samples, 100.0) == 100.0

    def test_empty_and_bounds(self):
        assert percentile([], 99.0) == 0.0
        with pytest.raises(SimulationError):
            percentile([1.0], 101.0)

    def test_profile_from_samples(self):
        profile = LatencyProfile.from_samples([3.0, 1.0, 2.0])
        assert profile.count == 3
        assert profile.mean_s == pytest.approx(2.0)
        assert profile.p50_s == 2.0
        assert profile.max_s == 3.0

    def test_single_sample_collapses_every_percentile(self):
        # Nearest-rank on one sample: every quantile is that sample.
        for q in (0.0, 1.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile([7e-6], q) == 7e-6
        profile = LatencyProfile.from_samples([7e-6])
        assert profile.count == 1
        assert (
            profile.mean_s == profile.p50_s == profile.p95_s
            == profile.p99_s == profile.max_s == 7e-6
        )


def _record(request_id, model="LeNet5", arrival_s=0.0, finish_s=1e-6,
            deadline_s=None, dropped=False):
    return RequestRecord(
        request_id=request_id, model=model, arrival_s=arrival_s,
        dispatch_s=arrival_s if dropped else finish_s / 2,
        finish_s=finish_s, batch_size=0 if dropped else 1,
        deadline_s=deadline_s, dropped=dropped,
    )


class TestMetricsEdgeCases:
    def test_windowed_stats_with_empty_window(self):
        # Both requests arrive before the fault window: the during and
        # after windows exist but hold zero completed requests.
        records = [
            _record(0, arrival_s=10e-6, finish_s=20e-6),
            _record(1, arrival_s=20e-6, finish_s=40e-6),
        ]
        windows = windowed_stats(
            table_of(records), 100e-6, 200e-6, 300e-6
        )
        assert [window.label for window in windows] == [
            "before", "during", "after",
        ]
        before, during, after = windows
        assert before.completed == 2
        for empty in (during, after):
            assert empty.completed == empty.shed == 0
            assert empty.submitted == 0
            assert empty.goodput_rps == 0.0
            assert empty.slo_attainment == 1.0
            assert empty.latency.count == 0
            assert empty.latency.p99_s == 0.0

    def test_windowed_stats_with_no_records_at_all(self):
        windows = windowed_stats(table_of([]), 1e-6, 2e-6, 3e-6)
        assert len(windows) == 3
        assert all(window.completed == 0 for window in windows)

    def test_windowed_stats_single_request_window(self):
        records = [_record(0, arrival_s=150e-6, finish_s=160e-6)]
        windows = windowed_stats(
            table_of(records), 100e-6, 200e-6, 300e-6
        )
        during = next(w for w in windows if w.label == "during")
        assert during.completed == 1
        assert during.latency.p50_s == during.latency.p99_s == (
            pytest.approx(10e-6)
        )

    def test_windowed_stats_rejects_disordered_window(self):
        with pytest.raises(SimulationError, match="ordered"):
            windowed_stats(table_of([]), 2e-6, 1e-6, 3e-6)

    def test_per_model_stats_with_only_shed_requests(self):
        records = [
            _record(0, arrival_s=0.0, finish_s=1e-6,
                    deadline_s=0.5e-6, dropped=True),
            _record(1, arrival_s=1e-6, finish_s=2e-6,
                    deadline_s=1.5e-6, dropped=True),
        ]
        (stats,) = per_model_stats(table_of(records), elapsed_s=2e-6)
        assert stats.completed == 0
        assert stats.shed == 2
        assert stats.slo_violations == 2
        assert stats.slo_attainment == 0.0
        assert stats.goodput_rps == 0.0
        assert stats.latency.count == 0

    def test_per_model_stats_single_request_and_empty(self):
        (empty,) = per_model_stats(table_of([]), elapsed_s=1e-3)
        assert empty.model == "LeNet5"
        assert empty.submitted == 0 and empty.latency.count == 0
        (stats,) = per_model_stats(
            table_of([_record(0, arrival_s=0.0, finish_s=3e-6)]),
            elapsed_s=1e-3,
        )
        assert stats.completed == 1
        assert stats.slo_attainment == 1.0
        assert stats.latency.p50_s == stats.latency.p99_s == (
            pytest.approx(3e-6)
        )


class TestSchedulerSemantics:
    def test_every_request_completes(self):
        scheduler, _ = make_scheduler()
        scheduler.serve(PoissonArrivals(rate_rps=100e3, seed=11), 1e-3)
        assert scheduler.requests_injected > 50
        assert scheduler.requests_completed == scheduler.requests_injected
        assert len(scheduler.records) == scheduler.requests_completed
        assert scheduler.queue_length == 0

    def test_records_are_causal(self):
        scheduler, _ = make_scheduler()
        scheduler.serve(PoissonArrivals(rate_rps=200e3, seed=3), 0.5e-3)
        for record in scheduler.records:
            assert record.arrival_s <= record.dispatch_s <= record.finish_s
            assert record.latency_s >= 0.0

    def test_seeded_rerun_is_bit_identical(self):
        first, _ = make_scheduler()
        first.serve(PoissonArrivals(rate_rps=150e3, seed=5), 1e-3)
        second, _ = make_scheduler()
        second.serve(PoissonArrivals(rate_rps=150e3, seed=5), 1e-3)
        assert first.records == second.records

    def test_single_request_matches_one_shot_engine(self):
        """The serving path is the one-shot path for one request."""
        platform = MonolithicCrossLight()
        one_shot = platform.run_workload(WORKLOAD).latency_s
        scheduler, _ = make_scheduler(platform)
        scheduler.serve(PoissonArrivals(rate_rps=20e3, seed=1), 60e-6)
        assert scheduler.requests_injected == 1
        record = scheduler.records[0]
        assert record.latency_s == pytest.approx(one_shot, rel=1e-9)

    def test_max_batch_policy_batches_under_load(self):
        policy = SchedulerSpec(policy="max-batch", max_batch=8,
                               batch_timeout_s=20e-6)
        scheduler, _ = make_scheduler(policy=policy)
        scheduler.serve(PoissonArrivals(rate_rps=400e3, seed=7), 1e-3)
        mean_batch = fields_of(scheduler.records)["mean_batch_size"]
        assert mean_batch > 1.5
        assert max(r.batch_size for r in scheduler.records) <= 8
        assert scheduler.batches_dispatched < scheduler.requests_completed

    def test_batch_timeout_bounds_queue_delay(self):
        """A lone request must not wait beyond the gather timeout."""
        timeout_s = 10e-6
        policy = SchedulerSpec(policy="max-batch", max_batch=64,
                               batch_timeout_s=timeout_s)
        scheduler, _ = make_scheduler(policy=policy)
        scheduler.serve(PoissonArrivals(rate_rps=20e3, seed=1), 0.2e-3)
        assert scheduler.records
        for record in scheduler.records:
            assert record.queue_delay_s <= timeout_s * (
                record.batch_size + 1
            )

    def test_admission_caps_inflight(self):
        scheduler, sim = make_scheduler(
            policy=SchedulerSpec(max_inflight=1)
        )
        scheduler.serve(PoissonArrivals(rate_rps=600e3, seed=9), 0.5e-3)
        # With a single execution slot the time-averaged concurrency
        # can never exceed one request... per dispatched batch of 1.
        assert sim.fabric.inflight_requests.value == 0.0
        assert sim.fabric.mean_inflight_requests <= 1.0 + 1e-9

    def test_closed_loop_self_throttles(self):
        clients = ClosedLoopClients(n_clients=3, think_time_s=5e-6, seed=2)
        scheduler, sim = make_scheduler()
        scheduler.serve(clients, 1e-3)
        assert scheduler.requests_completed == scheduler.requests_injected
        assert scheduler.requests_completed > 20
        # Never more requests in flight than clients.
        assert sim.fabric.mean_inflight_requests <= 3.0 + 1e-9

    def test_rejects_bad_duration_and_arrivals(self):
        scheduler, _ = make_scheduler()
        with pytest.raises(ConfigurationError):
            scheduler.serve(PoissonArrivals(rate_rps=1e5), 0.0)
        with pytest.raises(ConfigurationError):
            scheduler.serve(object(), 1e-3)

    def test_serve_is_single_shot(self):
        scheduler, _ = make_scheduler()
        scheduler.serve(PoissonArrivals(rate_rps=100e3, seed=1), 0.2e-3)
        with pytest.raises(SimulationError):
            scheduler.serve(PoissonArrivals(rate_rps=100e3, seed=1),
                            0.2e-3)


class TestComputeOccupancy:
    def test_concurrent_requests_queue_on_chiplets(self):
        """p99 latency is monotonically non-decreasing in arrival rate."""
        p99s = []
        for rate in (100e3, 700e3):
            scheduler, _ = make_scheduler()
            scheduler.serve(PoissonArrivals(rate_rps=rate, seed=11), 2e-3)
            p99s.append(fields_of(scheduler.records)["latency"].p99_s)
        assert p99s[0] <= p99s[1]
        assert p99s[1] > 1.5 * p99s[0]  # visibly queueing, not noise

    def test_utilization_grows_with_load(self):
        utils = []
        for rate in (50e3, 700e3):
            scheduler, _ = make_scheduler()
            scheduler.serve(PoissonArrivals(rate_rps=rate, seed=4), 1e-3)
            utils.append(scheduler.compute.mean_utilization())
        assert 0.0 < utils[0] < utils[1] <= 1.0

    def test_unused_occupancy_reports_zero(self):
        occupancy = ComputeOccupancy(Environment())
        assert occupancy.mean_utilization() == 0.0
        assert occupancy.utilization("nowhere") == 0.0


class TestWeightResidency:
    def test_fetch_once_then_hit(self):
        platform = MonolithicCrossLight()
        env = Environment()
        sim = platform.build_simulation(env)
        residency = WeightResidency(env)
        scheduler = RequestScheduler(
            sim, sim.map_workload(WORKLOAD), "LeNet5",
            residency=residency,
        )
        scheduler.serve(PoissonArrivals(rate_rps=300e3, seed=6), 0.5e-3)
        assert residency.fetches_issued == len(WORKLOAD)
        assert residency.fetch_hits > 0
        assert residency.resident_bits == float(
            WORKLOAD.total_weight_bits
        )

    def test_warm_requests_are_faster_than_cold(self):
        scheduler, _ = make_scheduler()
        scheduler.serve(PoissonArrivals(rate_rps=50e3, seed=11), 2e-3)
        cold = scheduler.records[0].latency_s
        warm = fields_of(scheduler.records[1:])["latency"].p50_s
        assert warm < cold

    def test_capacity_evicts_lru_model(self):
        env = Environment()
        residency = WeightResidency(env, capacity_bits=100.0)
        platform = MonolithicCrossLight()
        sim = platform.build_simulation(env)
        mapping = sim.map_workload(WORKLOAD)
        layer = mapping.layers[0]
        residency.acquire("model-a", layer, sim.fabric)
        assert residency.resident_bits_for("model-a") > 100.0
        residency.acquire("model-b", layer, sim.fabric)
        assert residency.resident_bits_for("model-a") == 0.0
        assert residency.evictions == 1

    def test_explicit_evict_forces_refetch(self):
        env = Environment()
        residency = WeightResidency(env)
        platform = MonolithicCrossLight()
        sim = platform.build_simulation(env)
        layer = sim.map_workload(WORKLOAD).layers[0]
        residency.acquire("m", layer, sim.fabric)
        residency.evict("m")
        residency.acquire("m", layer, sim.fabric)
        assert residency.fetches_issued == 2
        assert residency.fetch_hits == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            WeightResidency(Environment(), capacity_bits=0.0)


class TestFabricLoadSignal:
    def test_unbalanced_finish_raises(self):
        env = Environment()
        fabric = MonolithicCrossLight().build_simulation(env).fabric
        with pytest.raises(SimulationError):
            fabric.request_finished()


class TestControllersUnderLoad:
    """Reconfiguration controllers react to multi-request demand."""

    def _serve(self, controller, rate_rps, duration_s=0.4e-3):
        platform = CrossLight25DSiPh(controller=controller)
        env = Environment()
        sim = platform.build_simulation(env)
        scheduler = RequestScheduler(
            sim, sim.map_workload(WORKLOAD), "LeNet5",
            policy=SchedulerSpec(max_inflight=8),
        )
        scheduler.serve(
            PoissonArrivals(rate_rps=rate_rps, seed=13), duration_s
        )
        return sim, scheduler

    def test_resipi_sees_overlapping_demand(self):
        """The epoch monitor aggregates traffic across in-flight
        requests — epochs during the serving window carry read traffic
        for multiple chiplets at once."""
        sim, scheduler = self._serve("resipi", 900e3)
        assert sim.fabric.mean_inflight_requests > 1.0
        busy_epochs = [
            epoch for epoch in sim.fabric.monitor.history
            if sum(1 for key in epoch if key.startswith("read:")) >= 2
        ]
        assert busy_epochs

    def test_prowaves_scales_wavelengths_with_load(self):
        """Time-varying demand moves the wavelength fraction: busy
        epochs ramp it above the idle floor, and the drain tail lets it
        fall back down."""
        sim, _ = self._serve("prowaves", 500e3)
        log = sim.controller.decision_log
        floor = 1.0 / DEFAULT_PLATFORM.n_wavelengths
        assert max(log) > floor
        assert log[-1] < max(log)


def serve_study(rates_rps, duration_s, cache_dir=None):
    """``repro serve-study``'s sweep: LeNet5 on CrossLight, FIFO."""
    spec = serve_study_spec(
        model="LeNet5", platforms=("CrossLight",), controllers=("resipi",),
        scheduler=SchedulerSpec(), rates_rps=rates_rps,
        duration_s=duration_s,
    )
    return run_study(spec, cache_dir=cache_dir).serving_results()


def base_cell(**overrides) -> ServingCell:
    kwargs = dict(
        platform="CrossLight", models=(("LeNet5", 1.0, None, 0),),
        controller="resipi", scheduler=SchedulerSpec(),
        arrival_kind="poisson", rate_rps=1e5, duration_s=1e-3, seed=7,
        config=DEFAULT_PLATFORM,
    )
    kwargs.update(overrides)
    return ServingCell(**kwargs)


KEY_VARIANTS = {
    "platform": "2.5D-CrossLight-SiPh",
    "models": (("LeNet5", 0.5, None, 0), ("ResNet50", 0.5, None, 0)),
    "controller": "prowaves",
    "scheduler": SchedulerSpec(policy="max-batch", max_batch=8),
    "arrival_kind": "mmpp",
    "rate_rps": 2e5,
    "duration_s": 2e-3,
    "seed": 8,
    "config": DEFAULT_PLATFORM.with_wavelengths(8),
    "burstiness": 2.0,
    "dwell_s": 40e-6,
    "think_time_s": 20e-6,
    "residency_capacity_bits": 1e9,
    "faults": FaultSpec.from_dict({"events": [{
        "kind": "chiplet-mac-degrade", "at_s": 1e-4, "mac_fraction": 0.5,
    }]}),
    "resilience": ResilienceSpec(timeout_s=1e-4),
    "fidelity": FidelitySpec(mode="fluid"),
    "sequences": ((16, 8),),
    "length_distribution": "geometric",
    "quotas": (4,),
    "telemetry": TelemetrySpec(trace=True),
    "replicas": 2,
    "router": "least-outstanding",
    "weights": (1.0,),
    "reroute_on_fail": False,
    "node_overrides": (NodeOverrideSpec(node=0, controller="static"),),
    "node_faults": FaultSpec.from_dict({"events": [{
        "kind": "node-drain", "at_s": 1e-4, "node": 0,
    }]}),
}


class TestServingStudy:
    @pytest.mark.parametrize(
        "name", [field.name for field in dataclasses.fields(ServingCell)]
    )
    def test_every_field_moves_the_key(self, name):
        base = base_cell()
        moved = dataclasses.replace(base, **{name: KEY_VARIANTS[name]})
        assert getattr(moved, name) != getattr(base, name)
        assert moved.key() != base.key()

    def test_cells_do_not_collide_across_parameters(self):
        base = base_cell()
        variants = [
            base_cell(rate_rps=2e5),
            base_cell(arrival_kind="mmpp"),
            base_cell(seed=8),
            base_cell(scheduler=SchedulerSpec(policy="max-batch",
                                              max_batch=8)),
        ]
        keys = {base.key()} | {cell.key() for cell in variants}
        assert len(keys) == 5

    def test_p99_monotone_and_curve_export(self, tmp_path):
        """Acceptance: Poisson at two rates -> non-decreasing p99, and
        the latency-throughput curve survives the JSON export layer."""
        results = serve_study((100e3, 700e3), 2e-3,
                              cache_dir=tmp_path / "cache")
        curve = sorted(
            (r.offered_rps, r.goodput_rps, r.latency.p99_s)
            for r in results
        )
        assert len(curve) == 2
        (rate_lo, good_lo, p99_lo), (rate_hi, good_hi, p99_hi) = curve
        assert rate_lo < rate_hi
        assert p99_lo <= p99_hi
        assert good_hi > good_lo

        parsed = json.loads(study_results_to_json(results))
        assert parsed[0]["latency_s"]["p99"] == pytest.approx(p99_lo)
        assert "goodput_rps" in parsed[0]

    def test_study_is_cacheable_and_deterministic(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = serve_study((150e3,), 0.5e-3, cache_dir=cache_dir)
        warm = serve_study((150e3,), 0.5e-3, cache_dir=cache_dir)
        assert cold == warm
        fresh = serve_study((150e3,), 0.5e-3)
        assert fresh == cold

    def test_mmpp_study_runs(self):
        cell = base_cell(
            scheduler=SchedulerSpec(policy="max-batch", max_batch=4),
            arrival_kind="mmpp", rate_rps=2e5, duration_s=0.5e-3, seed=3,
        )
        result = simulate_serving_cell(cell)
        assert result.requests_completed == result.requests_injected
        assert result.arrival_kind == "mmpp"
        assert result.total_energy_j > 0.0

    def test_render_and_csv(self):
        results = serve_study((100e3,), 0.3e-3)
        text = render_serving_study(results, ["rate=100000"])
        assert "goodput/s" in text
        assert "CrossLight" in text
        assert text.splitlines()[2].endswith("  rate=100000")
        csv_text = study_results_to_csv(results)
        assert "p99_s" in csv_text.splitlines()[0]
        record = serving_result_to_dict(results[0])
        assert record["platform"] == "CrossLight"
        assert record["channel_utilization"]

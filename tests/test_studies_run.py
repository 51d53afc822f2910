"""Study compiler: lowering, cache identity, scenarios, CLI verb."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.core.crosslight import MonolithicCrossLight
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.errors import ConfigurationError, UnknownNameError
from repro.experiments.reports import render_slo_summary
from repro.experiments.runner import run_cached
from repro.experiments.serving_cell import ServingCell
from repro.experiments.serving_study import simulate_serving_cell
from repro.serving.scheduler import RequestHandle, RequestScheduler
from repro.sim.core import Environment
from repro.sim.traffic import PoissonArrivals
from repro.studies import (
    ModelTraffic,
    PlatformSpec,
    SchedulerSpec,
    StudySpec,
    SweepAxis,
    SweepSpec,
    WorkloadSpec,
)
from repro.studies.builders import (
    run_spec,
    serve_study_spec,
    slo_attainment_sweep_spec,
)
from repro.studies.compile import (
    expand_points,
    load_spec,
    lower_serving_point,
    lower_study,
    point_label,
    render_study,
    resolve_config,
    run_study,
)

WORKLOAD = extract_workload(zoo.build("LeNet5"))

ROOT = Path(__file__).resolve().parent.parent

SERVING_SPECS = [
    path
    for path in sorted((ROOT / "examples").glob("*.json"))
    + sorted((ROOT / "perfbench" / "specs").glob("*.json"))
    if load_spec(path).kind == "serving"
]
"""Every shipped serving spec: the examples and the benchmark's."""


def classic_spec(**overrides) -> StudySpec:
    kwargs = dict(
        name="classic",
        kind="serving",
        workload=WorkloadSpec(
            models=(ModelTraffic(model="LeNet5"),),
            rate_rps=150e3, duration_s=0.5e-3,
        ),
        platform=PlatformSpec(name="CrossLight"),
        scheduler=SchedulerSpec(policy="fifo"),
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


def mix_spec(policy="edf", rate_rps=60e3, shed=False,
             capacity_bits=None) -> StudySpec:
    return StudySpec(
        name="mix",
        kind="serving",
        workload=WorkloadSpec(
            models=(
                ModelTraffic(model="LeNet5", fraction=0.7, slo_s=150e-6,
                             priority=1),
                ModelTraffic(model="MobileNetV2", fraction=0.3,
                             slo_s=4e-3, priority=0),
            ),
            rate_rps=rate_rps, duration_s=0.5e-3,
        ),
        platform=PlatformSpec(name="CrossLight"),
        scheduler=SchedulerSpec(policy=policy, shed_expired=shed),
        residency_capacity_bits=capacity_bits,
    )


class TestLowering:
    @pytest.mark.parametrize("path", SERVING_SPECS,
                             ids=lambda path: path.stem)
    def test_cells_carry_the_point_sections(self, path):
        """A serving cell holds its point's sections themselves, not
        copies: one type per section from spec to runtime."""
        points, cells_per_point = lower_study(load_spec(path))
        for point, (cell,) in zip(points, cells_per_point):
            assert cell.scheduler is point.scheduler
            assert cell.resilience is point.resilience
            assert cell.fidelity is point.fidelity
            assert cell.telemetry is point.telemetry
            nodes = point.cluster.nodes if point.cluster is not None else ()
            assert cell.node_overrides == nodes

    def test_classic_point_lowers_to_serving_cell(self):
        point = classic_spec()
        cell = lower_serving_point(point, resolve_config(point))
        # Same cache identity as a directly-built one-node cell: every
        # scenario and fleet field at its default.
        direct = ServingCell(
            platform="CrossLight", models=(("LeNet5", 1.0, None, 0),),
            controller="resipi", scheduler=SchedulerSpec(),
            arrival_kind="poisson", rate_rps=150e3, duration_s=0.5e-3,
            seed=7, config=DEFAULT_PLATFORM,
        )
        assert cell == direct
        assert cell.key() == direct.key()

    def test_scenario_features_lower_to_scenario_cell(self):
        """Every scenario feature reaches the one-node cell: none lowers
        to the classic point's cell."""
        classic = lower_serving_point(classic_spec(),
                                      resolve_config(classic_spec()))
        for point in (
            mix_spec(),  # multi-tenant
            classic_spec(scheduler=SchedulerSpec(policy="edf")),
            classic_spec(scheduler=SchedulerSpec(policy="fifo",
                                                 shed_expired=True)),
            classic_spec(residency_capacity_bits=1e9),
            classic_spec(workload=WorkloadSpec(
                models=(ModelTraffic(model="LeNet5", slo_s=1e-4),),
            )),
            classic_spec(workload=WorkloadSpec(
                models=(ModelTraffic(model="LeNet5"),),
                arrival="mmpp", burstiness=2.0,
            )),
        ):
            cell = lower_serving_point(point, resolve_config(point))
            assert not cell.is_fleet
            assert cell.key() != classic.key(), point

    def test_scenario_key_tracks_spec_digest(self):
        base = mix_spec()
        cell = lower_serving_point(base, resolve_config(base))
        same = lower_serving_point(mix_spec(), resolve_config(base))
        moved = mix_spec(rate_rps=61e3)
        other = lower_serving_point(moved, resolve_config(moved))
        assert cell.key() == same.key()
        assert cell.key() != other.key()

    def test_scenario_cells_never_collide_without_digest(self):
        """Directly-built cells key uniquely: no spec digest needed."""
        base = dict(
            platform="CrossLight",
            models=(("LeNet5", 1.0, None, 0),),
            controller="resipi", scheduler=SchedulerSpec(policy="edf"),
            arrival_kind="poisson", rate_rps=1e5, duration_s=1e-3,
            seed=1, config=DEFAULT_PLATFORM,
        )
        cells = [
            ServingCell(**base),
            ServingCell(**{**base, "rate_rps": 2e5}),
            ServingCell(**{**base, "seed": 9}),
            ServingCell(**{**base, "arrival_kind": "mmpp"}),
            ServingCell(**{**base, "scheduler": SchedulerSpec()}),
            ServingCell(**{**base, "burstiness": 2.0}),
            ServingCell(**{**base, "residency_capacity_bits": 1e9}),
            ServingCell(**{**base,
                           "models": (("LeNet5", 1.0, 1e-4, 0),)}),
        ]
        assert len({cell.key() for cell in cells}) == len(cells)

    def test_policy_spec_knobs_never_silently_noop(self):
        """max_batch > 1 on a single-dispatch policy is an error, not a
        silent no-op (digest would move without behavior moving)."""
        for policy in ("fifo", "edf", "priority"):
            with pytest.raises(ConfigurationError):
                SchedulerSpec(policy=policy, max_batch=8)
        assert SchedulerSpec(policy="max-batch", max_batch=8).max_batch == 8

    def test_registered_controller_is_buildable(self):
        """A plugin controller registered through CONTROLLERS reaches
        platform construction, not just spec validation."""
        from repro.core.siph import CrossLight25DSiPh
        from repro.studies import CONTROLLERS

        def dummy(env, fabric, config):  # pragma: no cover - not built
            raise NotImplementedError

        CONTROLLERS.register("dummy-ctl", dummy)
        try:
            platform = CrossLight25DSiPh(controller="dummy-ctl")
            assert platform.controller_name == "dummy-ctl"
        finally:
            CONTROLLERS._entries.pop("dummy-ctl")

    def test_scenario_key_stable_across_processes(self):
        spec = mix_spec()
        script = (
            "import sys\n"
            "from repro.studies import StudySpec\n"
            "from repro.studies.compile import (lower_serving_point, "
            "resolve_config)\n"
            "spec = StudySpec.from_json(sys.stdin.read())\n"
            "print(lower_serving_point(spec, resolve_config(spec)).key())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], input=spec.to_json(),
            capture_output=True, text=True, check=True,
        )
        local = lower_serving_point(spec, resolve_config(spec))
        assert out.stdout.strip() == local.key()

    def test_controller_axis_pins_off_siph(self):
        spec = serve_study_spec(
            "LeNet5", ("CrossLight", "2.5D-CrossLight-SiPh"),
            ("resipi", "static"), SchedulerSpec(), (1e5,),
        )
        points = expand_points(spec)
        combos = [
            (p.platform.name, p.platform.controller) for p in points
        ]
        assert combos == [
            ("CrossLight", "resipi"),
            ("2.5D-CrossLight-SiPh", "resipi"),
            ("2.5D-CrossLight-SiPh", "static"),
        ]

    def test_unknown_names_fail_fast_with_suggestions(self):
        bad_model = classic_spec(workload=WorkloadSpec(
            models=(ModelTraffic(model="LeNet"),),
        ))
        with pytest.raises(UnknownNameError, match="LeNet5"):
            run_study(bad_model)
        bad_platform = classic_spec(
            platform=PlatformSpec(name="CrossLite"),
        )
        with pytest.raises(UnknownNameError, match="CrossLight"):
            run_study(bad_platform)


    @pytest.mark.parametrize("path, value", [
        ("platform.name", 5),
        ("platform.controller", 5),
        ("platform.controller", None),
        ("workload.arrival", 3),
    ])
    def test_non_string_names_raise_the_typed_error(self, path, value):
        """A JSON number or null where a registry name belongs passes
        the spec schema; lowering must still raise ``UnknownNameError``
        (rendering the value), not a bare ``TypeError``."""
        raw = json.loads(
            (Path(__file__).resolve().parent.parent
             / "examples" / "fidelity_spec.json").read_text()
        )
        section, field = path.split(".")
        raw[section][field] = value
        spec = StudySpec.from_json(json.dumps(raw))
        with pytest.raises(UnknownNameError) as excinfo:
            lower_study(spec)
        assert excinfo.value.name == value
        assert excinfo.value.suggestions == ()
        assert repr(value) in str(excinfo.value)


class TestClassicEquivalence:
    def test_spec_path_matches_legacy_serving_study(self, tmp_path):
        """The spec path equals a hand-built rate sweep of one-node
        cells."""
        spec = serve_study_spec(
            "LeNet5", ("CrossLight",), ("resipi",), SchedulerSpec(),
            (100e3, 250e3), duration_s=0.5e-3,
        )
        study = run_study(spec, cache_dir=tmp_path / "a")
        cells = [
            ServingCell(
                platform="CrossLight", models=(("LeNet5", 1.0, None, 0),),
                controller="resipi", scheduler=SchedulerSpec(),
                arrival_kind="poisson", rate_rps=rate, duration_s=0.5e-3,
                seed=7, config=DEFAULT_PLATFORM,
            )
            for rate in (100e3, 250e3)
        ]
        direct = run_cached(cells, simulate_serving_cell,
                            cache_dir=tmp_path / "b")
        assert study.serving_results() == direct

    def test_inference_spec_matches_run_model(self):
        spec = run_spec("LeNet5", "CrossLight", batch_size=2)
        result = run_study(spec).points[0].results[0]
        direct = MonolithicCrossLight().run_model(
            zoo.build("LeNet5"), batch_size=2
        )
        assert result == direct

    def test_warm_cache_serves_bit_identical(self, tmp_path):
        spec = mix_spec()
        cold = run_study(spec, cache_dir=tmp_path)
        warm = run_study(spec, cache_dir=tmp_path)
        assert cold.points == warm.points


class TestScenarios:
    def test_multi_tenant_mix_serves_both_models(self):
        study = run_study(mix_spec())
        (result,) = study.serving_results()
        assert result.model == "70%LeNet5+30%MobileNetV2"
        served = {stats.model for stats in result.per_model}
        assert served == {"LeNet5", "MobileNetV2"}
        for stats in result.per_model:
            assert stats.completed > 0
        assert result.requests_completed == result.requests_injected
        assert result.total_energy_j > 0.0

    def test_mix_is_deterministic(self):
        first = run_study(mix_spec()).serving_results()
        second = run_study(mix_spec()).serving_results()
        assert first == second

    def test_edf_beats_fifo_for_tight_slo_tenant(self):
        spec = slo_attainment_sweep_spec(
            rates_rps=(100e3,), duration_s=1e-3,
        )
        study = run_study(spec)
        by_policy = {}
        for result in study.serving_results():
            tight = next(s for s in result.per_model
                         if s.model == "LeNet5")
            loose = next(s for s in result.per_model
                         if s.model == "MobileNetV2")
            by_policy[result.policy] = (tight, loose)
        fifo_tight, fifo_loose = by_policy["fifo+shed"]
        edf_tight, edf_loose = by_policy["edf+shed"]
        assert edf_tight.slo_attainment > fifo_tight.slo_attainment
        assert edf_loose.slo_attainment == fifo_loose.slo_attainment == 1.0

    def test_shedding_drops_expired_requests(self):
        study = run_study(slo_attainment_sweep_spec(
            rates_rps=(200e3,), duration_s=1e-3,
        ))
        for result in study.serving_results():
            assert result.requests_shed > 0
            assert (
                result.requests_completed + result.requests_shed
                == result.requests_injected
            )
            assert result.slo_violations >= result.requests_shed
            assert 0.0 < result.slo_attainment < 1.0

    def test_residency_capacity_forces_cross_model_eviction(self):
        tight = run_study(mix_spec(capacity_bits=1e6)).serving_results()[0]
        roomy = run_study(mix_spec()).serving_results()[0]
        # Evictions cost re-fetches: the capped run cannot be faster.
        assert tight.latency.p99_s >= roomy.latency.p99_s

    def test_render_study_includes_slo_table(self):
        study = run_study(mix_spec())
        text = render_study(study)
        assert "per-model SLO attainment" in text
        assert "LeNet5" in text and "MobileNetV2" in text
        assert render_slo_summary(study.serving_results(),
                                  study.point_labels())


class TestPointLabels:
    """Text-table rows name their point by its swept fields."""

    @pytest.mark.parametrize("name", [
        "fault_serving_spec.json", "cluster_spec.json",
    ])
    def test_no_two_points_share_a_label(self, name):
        examples = Path(__file__).resolve().parent.parent / "examples"
        study = run_study(load_spec(examples / name))
        labels = study.point_labels()
        assert len(labels) == len(study.points) > 1
        assert len(set(labels)) == len(labels)
        # Each table ends every row with its point's label: the latency
        # table, the per-model SLO table and the fault-window table
        # (which lists the points that saw a fault).
        tables = [
            block + "\n" for block in render_study(study).split("\n\n")
            if any(line.endswith("point")
                   for line in block.splitlines()[:2])
        ]
        faulted = [
            label for label, result
            in zip(labels, study.serving_results()) if result.windows
        ]
        assert len(tables) == 3 and faulted
        for table, expected in zip(tables, (labels, labels, faulted)):
            present = [label for label in labels
                       if f"  {label}\n" in table]
            assert present == expected, table

    @pytest.mark.parametrize("name", [
        "fault_serving_spec.json", "cluster_spec.json",
    ])
    def test_no_two_cells_share_a_slowest_cells_line(self, name):
        examples = Path(__file__).resolve().parent.parent / "examples"
        study = run_study(load_spec(examples / name))
        lines = [
            line.split(" ms  ", 1)[1]
            for line in study.cache_stats.render_slowest().splitlines()[1:]
        ]
        assert len(lines) == len(study.points) > 1
        assert len(set(lines)) == len(lines)
        assert all(line.endswith(label) for line, label
                   in zip(sorted(lines), sorted(study.point_labels())))

    def test_fault_sections_label_by_their_events(self):
        spec = load_spec(
            Path(__file__).resolve().parent.parent
            / "examples" / "fidelity_spec.json"
        )
        points = expand_points(spec)
        labels = [point_label(point, spec) for point in points]
        assert labels[0] == "platform.faults=none"
        assert labels[1] == (
            "platform.faults=chiplet-mac-degrade@0.0005s"
            "(duration_s=0.0005,mac_fraction=0.5)"
        )
        assert len(set(labels)) == 3


class TestSchedulerApi:
    def make_scheduler(self, **kwargs):
        env = Environment()
        sim = MonolithicCrossLight().build_simulation(env)
        return RequestScheduler(
            sim, sim.map_workload(WORKLOAD), "LeNet5", **kwargs
        ), env

    def test_submit_returns_public_handle_with_deadline(self):
        scheduler, env = self.make_scheduler(slo_s=5e-5)
        handle = scheduler.submit()
        assert isinstance(handle, RequestHandle)
        assert handle.model == "LeNet5"
        assert handle.submit_s == env.now
        assert handle.deadline_s == pytest.approx(env.now + 5e-5)
        no_slo, _ = self.make_scheduler()
        assert no_slo.submit().deadline_s is None

    def test_submit_unknown_model_is_typed(self):
        scheduler, _ = self.make_scheduler()
        with pytest.raises(UnknownNameError, match="LeNet5"):
            scheduler.submit(model="LeNet")

    def test_duplicate_model_registration_rejected(self):
        scheduler, env = self.make_scheduler()
        with pytest.raises(ConfigurationError, match="already served"):
            scheduler.add_model("LeNet5", scheduler.mapping)

    def test_served_models_and_slos(self):
        scheduler, env = self.make_scheduler(slo_s=1e-4)
        scheduler.add_model("second", scheduler.mapping, slo_s=2e-4,
                            priority=3)
        assert scheduler.served_models == ("LeNet5", "second")
        assert scheduler.slos() == {"LeNet5": 1e-4, "second": 2e-4}

    def test_edf_dispatches_earliest_deadline_first(self):
        """Under a backlog, tight-deadline requests jump loose ones."""
        delays = {}
        for policy in (SchedulerSpec(max_inflight=1),
                       SchedulerSpec(policy="edf", max_inflight=1)):
            scheduler, env = self.make_scheduler(
                policy=policy, slo_s=1e-3,
            )
            scheduler.add_model("tight", scheduler.mapping, slo_s=1e-5)
            scheduler.serve(
                PoissonArrivals(rate_rps=400e3, seed=3), 0.3e-3,
                models=iter(
                    ["LeNet5", "LeNet5", "tight", "LeNet5", "tight"] * 200
                ),
            )
            mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
            delays[policy.policy] = {
                model: mean([r.queue_delay_s for r in scheduler.records
                             if r.model == model])
                for model in ("LeNet5", "tight")
            }
        # fifo is deadline-blind: both classes queue alike; edf pulls
        # the tight class ahead at the loose class's expense.
        assert delays["edf"]["tight"] < delays["fifo"]["tight"]
        assert delays["edf"]["tight"] < delays["edf"]["LeNet5"]

    def test_priority_policy_prefers_high_priority_model(self):
        scheduler, env = self.make_scheduler(
            policy=SchedulerSpec(policy="priority", max_inflight=1),
            priority=0,
        )
        scheduler.add_model("vip", scheduler.mapping, priority=5)
        order = iter(["LeNet5", "LeNet5", "vip", "LeNet5", "vip"] * 100)
        scheduler.serve(
            PoissonArrivals(rate_rps=500e3, seed=5), 0.2e-3, models=order,
        )
        vip_delay = [r.queue_delay_s for r in scheduler.records
                     if r.model == "vip"]
        base_delay = [r.queue_delay_s for r in scheduler.records
                      if r.model == "LeNet5"]
        assert vip_delay and base_delay
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean(vip_delay) < mean(base_delay)

    def test_max_batch_sheds_expired_gathered_requests(self):
        """Shedding applies to batch members, not just the head."""
        scheduler, env = self.make_scheduler(
            policy=SchedulerSpec(
                policy="max-batch", max_batch=8, batch_timeout_s=20e-6,
                max_inflight=1, shed_expired=True,
            ),
            slo_s=5e-6,
        )
        scheduler.serve(PoissonArrivals(rate_rps=800e3, seed=2), 0.3e-3)
        assert scheduler.requests_shed > 0
        assert (
            scheduler.requests_completed + scheduler.requests_shed
            == scheduler.requests_injected
        )
        dropped = [r for r in scheduler.records if r.dropped]
        assert len(dropped) == scheduler.requests_shed
        # Executed batches only ever contain live requests.
        assert all(r.batch_size >= 1 for r in scheduler.records
                   if not r.dropped)

    def test_new_policy_labels_and_validation(self):
        assert SchedulerSpec(policy="edf").label == "edf"
        assert SchedulerSpec(policy="priority", shed_expired=True).label == (
            "priority+shed"
        )
        assert SchedulerSpec(shed_expired=True).label == "fifo+shed"
        with pytest.raises(ConfigurationError):
            SchedulerSpec(policy="edf", max_batch=2)
        with pytest.raises(ConfigurationError):
            SchedulerSpec(policy="lifo")


class TestStudyCli:
    def test_study_verb_runs_spec_file(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "spec.json"
        path.write_text(classic_spec().to_json())
        json_out = tmp_path / "out.json"
        assert main(["study", str(path), "--json", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "classic" in out
        assert "goodput/s" in out
        assert json_out.exists()

    def test_study_verb_rejects_bad_spec(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text("{\"name\": \"x\"}")
        assert main(["study", str(path)]) == 2
        assert "workload" in capsys.readouterr().err

    def test_study_verb_reports_unknown_names(self, capsys, tmp_path):
        from repro.cli import main

        spec = classic_spec(workload=WorkloadSpec(
            models=(ModelTraffic(model="LeNet"),),
        ))
        path = tmp_path / "typo.json"
        path.write_text(spec.to_json())
        assert main(["study", str(path)]) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_study_verb_missing_file(self, capsys):
        from repro.cli import main

        assert main(["study", "/nonexistent/spec.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_example_specs_parse(self):
        from repro.studies.compile import load_spec

        for name in ("examples/study_spec.json",
                     "examples/slo_sweep_spec.json"):
            spec = load_spec(name)
            assert spec.kind == "serving"
            assert spec.sweep.n_points >= 2

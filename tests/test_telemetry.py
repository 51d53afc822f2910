"""Telemetry: spec validation, cache identity, determinism, trace schema."""

import csv
import json
import pickle
from array import array
from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import SimulationError, SpecError
from repro.obs import (
    MetricsRegistry,
    TelemetryPolicy,
    TraceRecorder,
    chrome_trace_events,
    chrome_trace_json,
    render_sparklines,
    sparkline,
    telemetry_series_to_csv,
    validate_chrome_trace,
)
from repro.obs.session import TelemetrySummary
from repro.sim.core import Environment
from repro.studies import (
    ClusterSpec,
    ModelTraffic,
    PlatformSpec,
    SchedulerSpec,
    StudySpec,
    SweepAxis,
    SweepSpec,
    TelemetrySpec,
    WorkloadSpec,
)
from repro.studies.compile import lower_study, run_study
from repro.studies.spec import FidelitySpec


def serving_spec(telemetry=None, **overrides) -> StudySpec:
    kwargs = dict(
        name="telemetered",
        kind="serving",
        workload=WorkloadSpec(
            models=(ModelTraffic(model="LeNet5"),),
            rate_rps=100e3, duration_s=0.5e-3, seed=7,
        ),
        platform=PlatformSpec(name="CrossLight"),
        scheduler=SchedulerSpec(policy="fifo"),
    )
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    kwargs.update(overrides)
    return StudySpec(**kwargs)


def mix_spec(telemetry=None) -> StudySpec:
    kwargs = dict(
        name="telemetered-mix",
        kind="serving",
        workload=WorkloadSpec(
            models=(
                ModelTraffic(model="LeNet5", fraction=0.7, slo_s=150e-6,
                             priority=1),
                ModelTraffic(model="MobileNetV2", fraction=0.3,
                             slo_s=4e-3, priority=0),
            ),
            arrival="mmpp", rate_rps=60e3, duration_s=0.5e-3, seed=7,
        ),
        platform=PlatformSpec(name="CrossLight"),
        scheduler=SchedulerSpec(policy="edf"),
    )
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    return StudySpec(**kwargs)


class TestTelemetrySpec:
    def test_default_is_degenerate(self):
        assert not TelemetrySpec()
        assert bool(TelemetrySpec(trace=True))
        assert bool(TelemetrySpec(metrics_interval_s=1e-5))

    def test_sample_rate_must_be_in_unit_interval(self):
        with pytest.raises(SpecError, match="sample rate"):
            TelemetrySpec(trace=True, sample_rate=0.0)
        with pytest.raises(SpecError, match="sample rate"):
            TelemetrySpec(trace=True, sample_rate=1.5)

    def test_metrics_interval_must_be_positive(self):
        with pytest.raises(SpecError, match="interval"):
            TelemetrySpec(metrics_interval_s=-1e-6)

    def test_sample_rate_without_trace_is_inert(self):
        with pytest.raises(SpecError, match="telemetry.trace"):
            TelemetrySpec(sample_rate=0.5)

    def test_telemetry_is_serving_only(self):
        with pytest.raises(SpecError, match="telemetry"):
            StudySpec(
                name="one-shot", kind="inference",
                workload=WorkloadSpec(
                    models=(ModelTraffic(model="LeNet5"),),
                ),
                telemetry=TelemetrySpec(trace=True),
            )

    def test_telemetry_rejects_fluid_fidelity(self):
        with pytest.raises(SpecError, match="fidelity: des"):
            serving_spec(
                telemetry=TelemetrySpec(trace=True),
                fidelity=FidelitySpec(mode="fluid"),
            )

    def test_round_trips_through_json(self):
        spec = serving_spec(telemetry=TelemetrySpec(
            trace=True, sample_rate=0.25, metrics_interval_s=2e-5,
        ))
        clone = StudySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.telemetry == spec.telemetry
        assert clone == spec


class TestCacheKeys:
    def test_degenerate_section_keeps_legacy_keys(self):
        (plain,) = lower_study(serving_spec())[1][0]
        (degenerate,) = lower_study(
            serving_spec(telemetry=TelemetrySpec())
        )[1][0]
        assert degenerate.telemetry is None
        assert degenerate.key() == plain.key()

    def test_armed_telemetry_moves_serving_key(self):
        (plain,) = lower_study(serving_spec())[1][0]
        (armed,) = lower_study(
            serving_spec(telemetry=TelemetrySpec(trace=True))
        )[1][0]
        assert armed.telemetry is not None
        assert armed.key() != plain.key()

    def test_sample_rate_moves_scenario_key(self):
        (half,) = lower_study(mix_spec(
            TelemetrySpec(trace=True, sample_rate=0.5)
        ))[1][0]
        (full,) = lower_study(mix_spec(TelemetrySpec(trace=True)))[1][0]
        assert half.key() != full.key()


def _strip(result):
    return replace(result, telemetry=None)


class TestDeterminism:
    def test_records_identical_with_telemetry_on_or_off(self):
        off = run_study(serving_spec()).flat_results()
        on = run_study(
            serving_spec(telemetry=TelemetrySpec(trace=True))
        ).flat_results()
        assert [r.telemetry for r in off] == [None]
        assert all(r.telemetry is not None for r in on)
        assert [_strip(r) for r in on] == list(off)

    def test_scenario_records_identical_with_telemetry(self):
        off = run_study(mix_spec()).flat_results()
        on = run_study(mix_spec(TelemetrySpec(trace=True))).flat_results()
        assert [_strip(r) for r in on] == list(off)

    def test_serial_fanout_and_cache_agree(self, tmp_path):
        spec = mix_spec(TelemetrySpec(trace=True))
        serial = run_study(spec).flat_results()
        fanned = run_study(spec, jobs=4).flat_results()
        cold = run_study(spec, cache_dir=tmp_path).flat_results()
        warm = run_study(spec, cache_dir=tmp_path).flat_results()
        assert serial == fanned == cold == warm
        assert [r.telemetry for r in serial] == [r.telemetry for r in warm]
        assert all(
            isinstance(r.telemetry, TelemetrySummary) for r in warm
        )

    def test_sampling_is_deterministic_and_seedless(self):
        recorder = TraceRecorder(Environment(), sample_rate=0.25)
        first = [recorder.sampled(i) for i in range(200)]
        again = [recorder.sampled(i) for i in range(200)]
        assert first == again
        rate = sum(first) / len(first)
        assert 0.1 < rate < 0.4


class TestTraceSchema:
    def run_armed(self, spec):
        (result,) = run_study(spec).flat_results()
        assert result.telemetry is not None
        return result.telemetry

    def test_serving_trace_is_valid_chrome_json(self):
        summary = self.run_armed(
            serving_spec(telemetry=TelemetrySpec(trace=True))
        )
        assert summary.span_count > 0
        assert summary.sampled_requests == summary.total_requests > 0
        events = chrome_trace_events([("cell", summary)])
        validate_chrome_trace(events)
        phases = [event["ph"] for event in events]
        assert phases.count("B") == phases.count("E") > 0
        assert "C" in phases  # gauge series render as counters
        doc = json.loads(chrome_trace_json([("cell", summary)]))
        assert doc["traceEvents"]

    def test_transformer_trace_nests_decode_spans(self):
        spec = StudySpec(
            name="traced-decode", kind="serving",
            workload=WorkloadSpec(
                models=(ModelTraffic(
                    model="TransformerTiny", prompt_tokens=16,
                    output_tokens=8,
                ),),
                rate_rps=40e3, duration_s=0.5e-3, seed=7,
            ),
            platform=PlatformSpec(name="CrossLight"),
            scheduler=SchedulerSpec(policy="continuous", max_batch=4),
            telemetry=TelemetrySpec(trace=True),
        )
        summary = self.run_armed(spec)
        names = {span.name for span in summary.spans}
        assert {"queue-wait", "prefill", "decode", "decode-step"} <= names
        validate_chrome_trace(chrome_trace_events([("cell", summary)]))

    def test_cluster_trace_prefixes_node_tracks(self):
        spec = serving_spec(
            telemetry=TelemetrySpec(trace=True),
            cluster=ClusterSpec(replicas=2, router="round-robin"),
        )
        summary = self.run_armed(spec)
        tracks = {span.track for span in summary.spans}
        assert any(track.startswith("node0/") for track in tracks)
        assert any(track.startswith("node1/") for track in tracks)
        assert dict(summary.counters)["requests_injected"] > 0
        assert any(name == "routable_nodes" for name, _ in summary.series)
        validate_chrome_trace(chrome_trace_events([("cell", summary)]))

    def test_zero_width_and_nested_spans_export_cleanly(self):
        env = Environment()
        recorder = TraceRecorder(env)
        recorder.add("req", "queue-wait", 0.0, 0.0)
        recorder.begin("req", "execute")
        recorder.begin("req", "layer:conv1")
        env._now = 1e-6  # noqa: SLF001 - direct clock poke in a unit test
        recorder.end("req")
        recorder.end("req")
        recorder.add("req", "decode", 1e-6, 1e-6)
        summary = TelemetrySummary(
            policy_label="telemetry(trace)", sample_rate=1.0,
            sampled_requests=1, total_requests=1,
            spans=recorder.freeze_spans(),
        )
        validate_chrome_trace(chrome_trace_events([("cell", summary)]))

    def test_summary_survives_pickle_round_trip(self):
        summary = self.run_armed(
            serving_spec(telemetry=TelemetrySpec(trace=True))
        )
        assert summary.spans and summary.instants
        # Slotted rows: no per-record instance dict.
        assert not hasattr(next(iter(summary.spans)), "__dict__")
        assert not hasattr(next(iter(summary.instants)), "__dict__")
        assert pickle.loads(pickle.dumps(summary)) == summary

    def test_traced_fleet_cell_keeps_columns_not_records(self):
        summary = self.run_armed(serving_spec(
            telemetry=TelemetrySpec(trace=True),
            cluster=ClusterSpec(replicas=2, router="round-robin"),
        ))
        for table in (summary.spans, summary.instants):
            numbers = [getattr(table, name) for name, _ in table.NUMBERS]
            for column in (table.track_ids, table.name_ids,
                           table.args_ids, *numbers):
                assert isinstance(column, (bytes, array))
            assert len(table) > 0
            for interned in (table.tracks, table.names, table.args):
                assert len(interned) < len(table)
        series = summary.series
        assert series.names
        assert isinstance(series.ticks, (bytes, array))
        assert all(isinstance(column, (bytes, array))
                   for column in series.values)
        assert all(len(values) == len(series.times())
                   for _, values in series)
        assert pickle.loads(pickle.dumps(summary)) == summary

    def test_equal_args_of_other_types_export_apart(self):
        env = Environment()
        recorder = TraceRecorder(env)
        for value in (1, 1.0, True):
            recorder.instant("req", "mark", args={"value": value})
        summary = TelemetrySummary(
            policy_label="telemetry(trace)", sample_rate=1.0,
            sampled_requests=1, total_requests=1,
            instants=recorder.freeze_instants(),
        )
        marks = [event["args"]["value"]
                 for event in chrome_trace_events([("cell", summary)])
                 if event["ph"] == "i"]
        assert [type(value) for value in marks] == [int, float, bool]

    def test_metrics_csv_shape(self):
        summary = self.run_armed(
            serving_spec(telemetry=TelemetrySpec(metrics_interval_s=5e-5))
        )
        text = telemetry_series_to_csv([("cell", summary)])
        lines = text.strip().splitlines()
        assert lines[0] == "cell,series,t_s,value"
        assert len(lines) > 1
        assert lines[1].startswith("cell,")


class TestSparklines:
    def test_sparkline_resamples_to_width(self):
        assert len(sparkline([0.0, 1.0] * 64, width=16)) == 16

    def test_render_includes_min_max(self):
        block = render_sparklines((("queue_depth", (0.0, 4.0)),))
        assert "queue_depth" in block
        assert "max 4" in block

    def test_registry_samples_gauges(self):
        env = Environment()
        registry = MetricsRegistry()
        registry.gauge("depth", lambda: env.now * 10)
        registry.start_sampler(env, interval_s=0.1)

        def window():
            yield env.timeout(0.35)

        done = env.process(window())
        env.run_until_event(done, limit=1.0)
        (name, samples), = (
            (n, s) for n, s in registry.freeze_series() if n == "depth"
        )
        assert len(samples) >= 3


    def test_gauge_after_first_sample_is_refused(self):
        env = Environment()
        registry = MetricsRegistry()
        registry.gauge("depth", lambda: 1.0)
        registry.start_sampler(env, interval_s=0.1)
        with pytest.raises(SimulationError, match="first sample"):
            registry.gauge("late", lambda: 2.0)


class TestCLI:
    def test_study_trace_export(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            serving_spec(telemetry=TelemetrySpec(trace=True)).to_dict()
        ))
        out_path = tmp_path / "trace.json"
        csv_path = tmp_path / "metrics.csv"
        assert main([
            "study", str(spec_path),
            "--trace", str(out_path), "--metrics-csv", str(csv_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        validate_chrome_trace(doc["traceEvents"])
        assert csv_path.read_text().startswith("cell,series,t_s,value")
        out = capsys.readouterr().out
        assert "telemetry [" in out
        assert "requests traced" in out

    def test_swept_points_get_distinct_trace_and_csv_labels(self, tmp_path):
        spec = serving_spec(
            telemetry=TelemetrySpec(trace=True),
            sweep=SweepSpec(axes=(
                SweepAxis(field="workload.seed", values=(7, 8)),
                SweepAxis(field="workload.rate_rps", values=(100e3,)),
            )),
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        out_path = tmp_path / "trace.json"
        csv_path = tmp_path / "metrics.csv"
        assert main([
            "study", str(spec_path),
            "--trace", str(out_path), "--metrics-csv", str(csv_path),
        ]) == 0
        processes = [
            event["args"]["name"]
            for event in json.loads(out_path.read_text())["traceEvents"]
            if event["name"] == "process_name"
        ]
        assert len(set(processes)) == len(processes) == 2
        assert all(name.endswith("workload.rate_rps=100000.0")
                   for name in processes)
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        # The two-axis label carries a comma: the cell field is quoted.
        assert all(len(row) == 4 for row in rows)
        assert {row[0] for row in rows[1:]} == set(processes)

    def test_trace_without_telemetry_fails(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(serving_spec().to_dict()))
        assert main([
            "study", str(spec_path), "--trace", str(tmp_path / "out.json"),
        ]) == 2
        assert "telemetry" in capsys.readouterr().err

    def test_dry_run_annotates_telemetry(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            serving_spec(telemetry=TelemetrySpec(trace=True)).to_dict()
        ))
        assert main(["study", str(spec_path), "--dry-run"]) == 0
        assert "telemetry: telemetry(trace)" in capsys.readouterr().out

    def test_json_export_carries_telemetry_block(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            serving_spec(telemetry=TelemetrySpec(trace=True)).to_dict()
        ))
        json_path = tmp_path / "results.json"
        assert main([
            "study", str(spec_path), "--json", str(json_path),
        ]) == 0
        (record,) = json.loads(json_path.read_text())
        block = record["telemetry"]
        assert block["span_count"] > 0
        assert block["counters"]["requests_injected"] > 0
        assert "queue_depth" in block["series"]

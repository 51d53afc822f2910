"""The inline microbenchmark runner and perf-regression smoke check."""

import json

import pytest

from repro import bench
from repro.cli import main


class TestMeasure:
    def test_measure_ns_positive(self):
        assert bench.measure_ns(lambda: sum(range(100)), repeats=3) > 0

    def test_measure_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            bench.measure_ns(lambda: None, repeats=0)

    def test_run_suite_subset(self):
        medians = bench.run_suite(
            names=(bench.KERNEL_BENCHMARK,), repeats=1
        )
        assert set(medians) == {bench.KERNEL_BENCHMARK}
        assert medians[bench.KERNEL_BENCHMARK] > 0

    def test_all_benchmark_bodies_run(self):
        for name, factory in bench.MICROBENCHMARKS.items():
            assert factory()() is not None, name


class TestBaseline:
    def test_write_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        bench.write_baseline({"a": 123.0, "b": 456.0}, path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == bench.BASELINE_SCHEMA_VERSION
        assert bench.load_baseline(path) == {"a": 123.0, "b": 456.0}

    def test_check_passes_within_budget(self):
        failures = bench.check_against_baseline(
            {"a": 150.0}, {"a": 100.0}, factor=2.0
        )
        assert failures == []

    def test_check_flags_regression(self):
        failures = bench.check_against_baseline(
            {"a": 250.0}, {"a": 100.0}, factor=2.0
        )
        assert len(failures) == 1
        assert "2.50x" in failures[0]

    def test_check_ignores_unknown_benchmarks(self):
        assert bench.check_against_baseline({"new": 1e9}, {"a": 1.0}) == []

    def test_committed_baseline_is_loadable(self):
        # The repo-root baseline written by benchmarks/run_all.py.
        from pathlib import Path

        baseline_path = (
            Path(__file__).resolve().parent.parent / bench.BASELINE_FILENAME
        )
        baseline = bench.load_baseline(baseline_path)
        # check_against_baseline skips names the baseline lacks, so a
        # benchmark without an entry would never be gated.
        for name in bench.MICROBENCHMARKS:
            assert baseline.get(name, 0.0) > 0, name

    def test_render_suite_with_baseline(self):
        text = bench.render_suite({"a": 2e6}, {"a": 1e6})
        assert "2.00x" in text


class TestBenchCli:
    def test_bench_without_check(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no baseline file here
        # Use a 1-repeat run for speed; exercises the full suite wiring.
        assert main(["bench", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert bench.KERNEL_BENCHMARK in out

    def test_bench_check_missing_baseline(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--check", "--repeats", "1"]) == 2

    def test_bench_check_detects_regression(self, capsys, tmp_path):
        # A baseline claiming everything once ran 1000x faster must fail.
        baseline = tmp_path / "BENCH_sim.json"
        bench.write_baseline(
            {name: 1.0 for name in bench.MICROBENCHMARKS}, baseline
        )
        assert main([
            "bench", "--check", "--repeats", "1",
            "--baseline", str(baseline),
        ]) == 1
        assert "PERF REGRESSION" in capsys.readouterr().out

    def test_bench_check_passes_on_generous_baseline(self, capsys,
                                                     tmp_path):
        baseline = tmp_path / "BENCH_sim.json"
        bench.write_baseline(
            {name: 1e15 for name in bench.MICROBENCHMARKS}, baseline
        )
        assert main([
            "bench", "--check", "--repeats", "1",
            "--baseline", str(baseline),
        ]) == 0
        assert "perf check OK" in capsys.readouterr().out

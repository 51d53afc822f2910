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
            assert factory.expects(factory()()), name

    def test_benchmark_ids_map_back_to_registry_names(self):
        ids = [bench.benchmark_id(name) for name in bench.MICROBENCHMARKS]
        assert len(set(ids)) == len(ids)
        for name, benchmark_id in zip(bench.MICROBENCHMARKS, ids):
            assert "test_bench_" + benchmark_id == name

    def test_run_suite_counts_insertions_on_the_warmup_call(self):
        counts = {}
        medians = bench.run_suite(
            names=(bench.KERNEL_BENCHMARK,), repeats=1, counts=counts
        )
        assert set(counts) == set(medians) == {bench.KERNEL_BENCHMARK}
        # 10k timeouts, the ticker's bootstrap and its finish; one
        # process, the ticker; no fabric.
        assert counts[bench.KERNEL_BENCHMARK] == {
            "insertions": 10_002, "processes": 1,
            "transfers": 0, "gateway_calls": 0,
        }

    def test_count_insertions_sums_every_environment_created(self):
        from repro.sim.core import Environment, Process

        original_init = Environment.__init__
        original_process_init = Process.__init__
        outside = Environment()
        outside.timeout(1.0)

        def wait(env, delay):
            yield env.timeout(delay)

        def run():
            for delays in ((1.0, 2.0), (3.0,)):
                env = Environment()
                for delay in delays:
                    env.timeout(delay)
                env.run()
            outside.timeout(2.0)
            env = Environment()
            env.process(wait(env, 1.0))
            env.process(wait(env, 2.0))
            env.run()

        # 3 timeouts; each process adds its bootstrap, its timeout and
        # its finish.
        assert bench.count_kernel_work(run) == {
            "insertions": 3 + 2 * 3, "processes": 2,
            "transfers": 0, "gateway_calls": 0,
        }
        assert Environment.__init__ is original_init
        assert Process.__init__ is original_process_init
        assert bench.count_kernel_work(lambda: None) == {
            "insertions": 0, "processes": 0,
            "transfers": 0, "gateway_calls": 0,
        }

    def test_count_fabric_transfers_and_gateway_calls(self):
        from repro.config import DEFAULT_PLATFORM
        from repro.interposer.photonic.fabric import PhotonicInterposerFabric
        from repro.interposer.topology import build_floorplan
        from repro.sim.core import Environment

        floorplan = build_floorplan(DEFAULT_PLATFORM)
        chiplet = floorplan.compute_sites[0].chiplet_id
        read = PhotonicInterposerFabric.read

        def run():
            env = Environment()
            fabric = PhotonicInterposerFabric(env, DEFAULT_PLATFORM,
                                              floorplan)
            fabric.read(chiplet, 1e3)
            fabric.write(chiplet, 1e3)
            fabric.read_weights(chiplet, 1e3)
            fabric.set_wavelength_fraction(0.5)
            fabric.set_active_memory_gateways(2)
            env.run()

        work = bench.count_kernel_work(run)
        # read_weights is a read; the harness counts the same calls.
        assert work["transfers"] == 3
        assert work["gateway_calls"] == 2
        assert PhotonicInterposerFabric.read is read


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
        # The same holds for check_counts, for every counter.
        counts = bench.load_counts(baseline_path)
        assert set(counts) == set(bench.MICROBENCHMARKS)
        for name, work in counts.items():
            assert set(work) == set(bench.COUNTERS), name

    def test_render_suite_with_baseline(self):
        text = bench.render_suite({"a": 2e6}, {"a": 1e6})
        assert "2.00x" in text

    def test_insertions_roundtrip_beside_medians(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        bench.write_baseline({"a": 1.0, "b": 2.0}, path, counts={
            "a": {"insertions": 7, "processes": 2},
        })
        entries = json.loads(path.read_text())["benchmarks"]
        assert entries["a"] == {
            "median_ns": 1.0, "insertions": 7, "processes": 2,
        }
        assert entries["b"] == {"median_ns": 2.0}
        assert bench.load_counts(path) == {
            "a": {"insertions": 7, "processes": 2}, "b": {},
        }
        assert bench.load_baseline(path) == {"a": 1.0, "b": 2.0}

    def test_insertion_count_one_above_baseline_fails(self):
        self.check_one_over("insertions")

    def test_process_count_one_above_baseline_fails(self):
        self.check_one_over("processes")

    def test_transfer_count_one_above_baseline_fails(self):
        self.check_one_over("transfers")

    def test_gateway_call_count_one_above_baseline_fails(self):
        self.check_one_over("gateway_calls")

    @staticmethod
    def check_one_over(counter):
        def check(count, reference):
            return bench.check_counts({"a": {counter: count}},
                                      {"a": {counter: reference}})

        assert check(100, 100) == []
        assert check(99, 100) == []
        failures = check(101, 100)
        assert len(failures) == 1
        assert "101" in failures[0] and "+1" in failures[0]
        assert bench.COUNTERS[counter] in failures[0]
        assert bench.check_counts({"new": {counter: 5}},
                                  {"a": {counter: 1}}) == []
        # A counter the baseline lacks is not gated.
        assert bench.check_counts({"a": {counter: 5}}, {"a": {}}) == []


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

    def test_bench_check_fails_one_insertion_over(self, capsys, tmp_path):
        self.check_fails_one_over(capsys, tmp_path, "insertions")

    def test_bench_check_fails_one_process_over(self, capsys, tmp_path):
        self.check_fails_one_over(capsys, tmp_path, "processes")

    def test_bench_check_fails_one_transfer_over(self, capsys, tmp_path):
        self.check_fails_one_over(capsys, tmp_path, "transfers")

    def test_bench_check_fails_one_gateway_call_over(self, capsys,
                                                     tmp_path):
        self.check_fails_one_over(capsys, tmp_path, "gateway_calls")

    @staticmethod
    def check_fails_one_over(capsys, tmp_path, counter):
        counts = {}
        bench.run_suite(names=(bench.KERNEL_BENCHMARK,), repeats=1,
                        counts=counts)
        baseline = tmp_path / "BENCH_sim.json"
        generous = {name: 1e15 for name in bench.MICROBENCHMARKS}
        argv = ["bench", "--check", "--repeats", "1",
                "--only", "kernel_event", "--baseline", str(baseline)]
        bench.write_baseline(generous, baseline, counts=counts)
        assert main(argv) == 0
        bench.write_baseline(generous, baseline, counts={
            name: {**work, counter: work[counter] - 1}
            for name, work in counts.items()
        })
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert bench.COUNTERS[counter] in out and "(+1)" in out

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

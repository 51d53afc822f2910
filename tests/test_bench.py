"""The inline microbenchmark runner and perf-regression smoke check."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
        work = counts[bench.KERNEL_BENCHMARK]
        assert set(work) == set(bench.COUNTERS)
        # 10k timeouts, the ticker's bootstrap and its finish; one
        # process, the ticker; no fabric.
        assert {counter: work[counter] for counter in (
            "insertions", "processes", "transfers", "gateway_calls",
        )} == {
            "insertions": 10_002, "processes": 1,
            "transfers": 0, "gateway_calls": 0,
        }
        # Every timeout resumes the ticker: one Python frame each.
        assert work["calls"] > 10_000
        assert work["instructions"] > work["calls"]

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

    def test_count_bytecode_counts_python_frames(self):
        def leaf():
            return 1

        def run():
            return leaf() + leaf() + len("c code is not traced")

        tracer = sys.gettrace()
        work = bench.count_bytecode(run)
        assert work["calls"] == 3  # run and two leaves
        assert work["instructions"] > 3 * work["calls"]
        assert sys.gettrace() is tracer
        assert bench.count_bytecode(run) == work

    def test_counts_are_equal_in_fresh_processes(self):
        """Three interpreters, three hash seeds: the same counts."""
        script = (
            "import json; from repro import bench; "
            "print(json.dumps(bench.count_work(bench.MICROBENCHMARKS["
            "'test_bench_photonic_fabric_reads']())))"
        )
        root = Path(__file__).resolve().parent.parent
        outputs = set()
        for seed in ("0", "1", "random"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": str(root / "src")}
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=root,
                capture_output=True, text=True, check=True,
            ).stdout)
        assert len(outputs) == 1
        work = json.loads(outputs.pop())
        assert set(work) == set(bench.COUNTERS)


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
        # The same holds for check_counts, for every counter: the
        # bytecode counters need a record for some Python version.
        counts = bench.load_counts(baseline_path)
        assert set(counts) == set(bench.MICROBENCHMARKS)
        kernel = set(bench.COUNTERS) - set(bench.VERSIONED_COUNTERS)
        entries = json.loads(baseline_path.read_text())["benchmarks"]
        for name, work in counts.items():
            assert kernel <= set(work), name
            for counter in bench.VERSIONED_COUNTERS:
                assert entries[name][counter], (name, counter)

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

    def test_bytecode_counts_are_recorded_per_python_version(self,
                                                            tmp_path):
        path = tmp_path / "BENCH_sim.json"
        bench.write_baseline({"a": 1.0}, path, counts={
            "a": {"insertions": 7, "instructions": 900, "calls": 30},
        })
        entry = json.loads(path.read_text())["benchmarks"]["a"]
        assert entry["instructions"] == {bench.PYTHON_VERSION: 900}
        assert entry["calls"] == {bench.PYTHON_VERSION: 30}
        assert bench.load_counts(path) == {
            "a": {"insertions": 7, "instructions": 900, "calls": 30},
        }
        # Another version's record is not this interpreter's: reported,
        # not gated.
        entry["instructions"] = {"2.7": 900}
        entry["calls"] = {"2.7": 30}
        path.write_text(json.dumps({"benchmarks": {"a": entry}}))
        assert bench.load_counts(path) == {"a": {"insertions": 7}}
        assert bench.check_counts(
            {"a": {"insertions": 7, "instructions": 10**9}},
            bench.load_counts(path),
        ) == []

    def test_insertion_count_one_above_baseline_fails(self):
        self.check_one_over("insertions")

    def test_process_count_one_above_baseline_fails(self):
        self.check_one_over("processes")

    def test_transfer_count_one_above_baseline_fails(self):
        self.check_one_over("transfers")

    def test_gateway_call_count_one_above_baseline_fails(self):
        self.check_one_over("gateway_calls")

    def test_instruction_count_one_above_baseline_fails(self):
        self.check_one_over("instructions")

    def test_python_call_count_one_above_baseline_fails(self):
        self.check_one_over("calls")

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

    def test_bench_check_fails_one_instruction_over(self, capsys, tmp_path):
        self.check_fails_one_over(capsys, tmp_path, "instructions")

    def test_bench_check_fails_one_python_call_over(self, capsys, tmp_path):
        self.check_fails_one_over(capsys, tmp_path, "calls")

    def test_bench_check_reports_unrecorded_python_versions(self, capsys,
                                                           tmp_path):
        counts = {}
        bench.run_suite(names=(bench.KERNEL_BENCHMARK,), repeats=1,
                        counts=counts)
        baseline = tmp_path / "BENCH_sim.json"
        bench.write_baseline({bench.KERNEL_BENCHMARK: 1e15}, baseline,
                             counts=counts)
        payload = json.loads(baseline.read_text())
        entry = payload["benchmarks"][bench.KERNEL_BENCHMARK]
        for counter in bench.VERSIONED_COUNTERS:  # far below, elsewhere
            entry[counter] = {"2.7": 1}
        baseline.write_text(json.dumps(payload))
        assert main(["bench", "--check", "--repeats", "1", "--only",
                     "kernel_event", "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "reported, not checked" in out and "perf check OK" in out

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


class TestAbReport:
    def test_summary_of_synthetic_timings(self):
        slow, mixed = bench.summarize_ab({
            "slow": ([2.0, 2.2, 2.1], [1.0, 1.1, 1.0]),
            "mixed": ([0.9, 1.2, 1.0], [1.0, 1.0, 1.0]),
        })
        assert (slow.name, slow.ratio, slow.low, slow.high) == (
            "slow", 2.0, 2.0, 2.1)
        assert (slow.won, slow.lost, slow.rounds) == (0, 3, 3)
        assert (mixed.ratio, mixed.low, mixed.high) == (0.9, 0.9, 1.2)
        assert (mixed.won, mixed.lost) == (1, 1)  # one tie

    def test_verdict_is_a_sign_test_over_the_rounds(self):
        def verdict(mine, theirs):
            return bench.summarize_ab({"x": (mine, theirs)})[0].verdict

        ten = [1.0] * 10
        assert verdict([1.1] * 9 + [0.9], ten) == "slower"  # p = 0.021
        assert verdict([0.9] * 10, ten) == "faster"
        assert verdict([1.1] * 8 + [0.9] * 2, ten) == "~"  # p = 0.11
        assert verdict(ten, ten) == "~"  # ties decide nothing
        # Five unanimous rounds are not enough (p = 0.0625).
        assert verdict([2.0] * 5, [1.0] * 5) == "~"

    def test_render_lists_bodies_on_one_side_only(self):
        rows = bench.summarize_ab({"a": ([1.0] * 10, [2.0] * 10)})
        text = bench.render_ab(rows, ["new_body"], ["old_body"])
        assert "0.500" in text and "10/10" in text and "faster" in text
        assert "only in this tree: new_body" in text
        assert "only in the other tree: old_body" in text

    def test_smoke_against_this_tree(self, capsys, monkeypatch):
        monkeypatch.setattr(bench, "AB_ROUNDS", 2)
        assert main([
            "bench", "--ab", str(bench.this_root()), "--only",
            "channel_contention", "--repeats", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "test_bench_channel_contention" in out and "/2" in out
        assert "only in" not in out

    def test_other_root_must_be_a_checkout(self, tmp_path):
        assert main(["bench", "--ab", str(tmp_path)]) == 2

    def test_ab_is_not_a_check(self):
        with pytest.raises(SystemExit):
            main(["bench", "--ab", ".", "--check"])


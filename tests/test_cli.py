"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.model == "ResNet50"
        assert args.platform == "siph"
        assert args.batch == 1

    def test_invalid_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "AlexNet"])

    def test_invalid_platform_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--platform", "tpu"])

    def test_perf_options_default_off(self):
        for command in ("fig7", "table3", "calibrate", "dse"):
            args = build_parser().parse_args([command])
            assert args.jobs == 1
            assert args.cache_dir is None

    def test_perf_options_parse(self):
        args = build_parser().parse_args(
            ["dse", "--jobs", "8", "--cache-dir", "/tmp/x"]
        )
        assert args.jobs == 8
        assert args.cache_dir == "/tmp/x"

    def test_serve_study_defaults(self):
        args = build_parser().parse_args(["serve-study"])
        assert args.model == "LeNet5"
        assert args.platforms == ["siph"]
        assert args.policy == "fifo"
        assert args.arrival == "poisson"
        assert args.rates == (20e3, 50e3, 100e3, 200e3)

    def test_serve_study_rates_parse(self):
        args = build_parser().parse_args(
            ["serve-study", "--rates", "1e4,5e4"]
        )
        assert args.rates == (1e4, 5e4)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-study", "--rates", "1e4,-2"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-study", "--rates", "fast"])

    def test_serve_study_duration_and_timeout_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve-study", "--duration-us", "0"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve-study", "--batch-timeout-us", "-1"]
            )
        args = build_parser().parse_args(
            ["serve-study", "--batch-timeout-us", "0"]
        )
        assert args.batch_timeout_us == 0.0

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.check is False
        assert args.baseline == "BENCH_sim.json"
        assert args.only is None

    def test_bench_only_parses(self):
        args = build_parser().parse_args(["bench", "--only", "decode"])
        assert args.only == "decode"

    def test_run_takes_perf_options(self):
        args = build_parser().parse_args(
            ["run", "--jobs", "2", "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 2
        assert args.cache_dir == "/tmp/c"

    def test_nonpositive_jobs_and_repeats_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table3", "--jobs", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--repeats", "0"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Number of wavelengths" in out
        assert "12 Gb/s" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "138,357,544" in out
        assert "NO" not in out

    def test_run_lenet_mono(self, capsys):
        assert main(["run", "--model", "LeNet5", "--platform", "mono"]) == 0
        out = capsys.readouterr().out
        assert "CrossLight" in out
        assert "inferences/s" in out

    def test_run_with_timeline(self, capsys):
        assert main([
            "run", "--model", "LeNet5", "--platform", "siph", "--timeline",
        ]) == 0
        out = capsys.readouterr().out
        assert "c1" in out
        assert "start(us)" in out

    def test_run_batched(self, capsys):
        assert main([
            "run", "--model", "LeNet5", "--platform", "elec", "--batch", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "batch 2" in out

    def test_run_awgr(self, capsys):
        assert main(["run", "--model", "LeNet5", "--platform", "awgr"]) == 0
        assert "AWGR" in capsys.readouterr().out

    def test_run_alternative_controller(self, capsys):
        assert main([
            "run", "--model", "LeNet5", "--platform", "siph",
            "--controller", "static",
        ]) == 0
        assert "static" in capsys.readouterr().out

    def test_dse_quantization(self, capsys):
        assert main([
            "dse", "--sweep", "quantization", "--model", "LeNet5",
        ]) == 0
        assert "uniform-8b" in capsys.readouterr().out

    def test_dse_with_jobs_and_cache(self, capsys, tmp_path):
        argv = [
            "dse", "--sweep", "wavelengths", "--model", "LeNet5",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0  # warm: served from the cache
        warm = capsys.readouterr().out

        # The sweep table is identical; only the trailing cache tally
        # flips from misses to hits.
        def split(text):
            table, _, tally = text.rpartition("\ncache: ")
            return table, tally

        assert split(warm)[0] == split(cold)[0]
        assert "0 hits" in split(cold)[1]
        assert "0 misses" in split(warm)[1]

    def test_dse_controllers(self, capsys):
        assert main([
            "dse", "--sweep", "controllers", "--model", "LeNet5",
        ]) == 0
        out = capsys.readouterr().out
        assert "resipi" in out
        assert "static" in out

    def test_serve_study_runs_and_exports(self, capsys, tmp_path):
        json_path = tmp_path / "curve.json"
        assert main([
            "serve-study", "--model", "LeNet5", "--platforms", "mono",
            "--rates", "1e5,3e5", "--duration-us", "300",
            "--policy", "max-batch", "--max-batch", "4",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "goodput/s" in out
        assert "CrossLight" in out
        import json

        parsed = json.loads(json_path.read_text())
        assert len(parsed) == 2
        assert parsed[0]["policy"] == "max-batch(4)"

    def test_serve_study_closed_loop(self, capsys):
        assert main([
            "serve-study", "--model", "LeNet5", "--platforms", "mono",
            "--arrival", "closed", "--rates", "2e5",
            "--duration-us", "200",
        ]) == 0
        assert "CrossLight" in capsys.readouterr().out

    def test_dse_mapping(self, capsys):
        assert main([
            "dse", "--sweep", "mapping", "--model", "LeNet5",
        ]) == 0
        out = capsys.readouterr().out
        assert "spillover" in out
        assert "strict" in out

    def test_run_reports_cache_stats(self, capsys, tmp_path):
        argv = [
            "run", "--model", "LeNet5", "--platform", "mono",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "cache: 0 hits, 1 miss (1 simulated)" in (
            capsys.readouterr().out
        )
        assert main(argv) == 0
        assert "cache: 1 hit, 0 misses (0 simulated)" in (
            capsys.readouterr().out
        )

    def test_serve_study_reports_cache_stats(self, capsys, tmp_path):
        assert main([
            "serve-study", "--model", "LeNet5", "--platforms", "mono",
            "--rates", "1e5", "--duration-us", "200",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        assert "cache: 0 hits, 1 miss (1 simulated)" in (
            capsys.readouterr().out
        )

    def test_study_prints_slowest_cells(self, capsys):
        assert main(["study", "examples/study_spec.json"]) == 0
        out = capsys.readouterr().out
        assert "slowest cells (top" in out
        assert " ms  " in out

    def test_bench_only_selects_by_substring(self, capsys):
        assert main([
            "bench", "--only", "kernel_event", "--repeats", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "test_bench_kernel_event_throughput" in out
        assert "test_bench_channel_contention" not in out

    def test_bench_only_without_match_fails(self, capsys):
        assert main(["bench", "--only", "nonexistent"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'nonexistent'" in err
        # the typed error lists every registered benchmark name
        assert "test_bench_kernel_event_throughput" in err


class TestErrors:
    """Every verb turns a ``ReproError`` into one ``error:`` line and
    exit code 2, before anything simulates."""

    @pytest.mark.parametrize("argv, path", [
        (["run", "--batch", "0", "--model", "LeNet5"],
         "workload.batch_size"),
        (["serve-study", "--rates", "nan", "--duration-us", "50",
          "--platforms", "siph"], "workload.rate_rps"),
    ])
    def test_spec_errors_exit_2_naming_the_field(self, capsys, argv, path):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert path in captured.err
        assert captured.out == ""

"""Command-line interface.

Exposes the experiment drivers without writing Python::

    python -m repro table1                 # print Table 1
    python -m repro table2                 # print Table 2
    python -m repro fig7 --metric latency  # one Fig. 7 panel
    python -m repro table3                 # Table 3 + headline ratios
    python -m repro calibrate              # full paper-vs-measured report
    python -m repro run --model ResNet50 --platform siph --batch 4
    python -m repro dse --sweep wavelengths --jobs 4 --cache-dir .repro-cache
    python -m repro serve-study --model LeNet5 --rates 20e3,50e3,100e3
    python -m repro study examples/study_spec.json --jobs 4
    python -m repro bench --check        # perf-regression smoke check
    python -m repro bench --ab ../parent # paired A/B against a checkout

Experiment commands accept ``--jobs N`` (process fan-out over the
simulation cells) and ``--cache-dir PATH`` (persistent result cache:
repeated invocations never re-simulate identical cells).

``run``, ``dse`` and ``serve-study`` are thin wrappers over the
declarative scenario API (:mod:`repro.studies`): each builds a
:class:`~repro.studies.spec.StudySpec` and executes it through
``run_study`` — the same entry point the ``study`` verb feeds with a
JSON spec file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .config import DEFAULT_PLATFORM
from .dnn import zoo
from .errors import ReproError

PLATFORM_ALIASES = {
    "mono": "CrossLight",
    "crosslight": "CrossLight",
    "elec": "2.5D-CrossLight-Elec",
    "siph": "2.5D-CrossLight-SiPh",
    "awgr": "2.5D-CrossLight-AWGR",
}
"""CLI platform aliases -> registry (Table 3) platform names."""


def _cmd_table1(_: argparse.Namespace) -> int:
    from .experiments.tables import render_table1

    print(render_table1(DEFAULT_PLATFORM))
    return 0


def _cmd_table2(_: argparse.Namespace) -> int:
    from .experiments.tables import render_table2

    print(render_table2())
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _runner(args: argparse.Namespace):
    from .experiments.runner import ExperimentRunner

    return ExperimentRunner(jobs=args.jobs, cache_dir=args.cache_dir)


def _cmd_fig7(args: argparse.Namespace) -> int:
    from .experiments.fig7 import METRICS, fig7_series, render_fig7

    runner = _runner(args)
    metrics = [args.metric] if args.metric else list(METRICS)
    for metric in metrics:
        print(render_fig7(fig7_series(runner, metric)))
        print()
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from .experiments.table3 import build_table3, render_table3

    print(render_table3(build_table3(_runner(args))))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .experiments.calibration import calibration_report, shape_checks

    runner = _runner(args)
    print(calibration_report(runner))
    failed = [check for check in shape_checks(runner) if not check.passed]
    return 1 if failed else 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .studies.builders import run_spec
    from .studies.compile import run_study

    spec = run_spec(
        model=args.model,
        platform=PLATFORM_ALIASES[args.platform],
        controller=args.controller,
        batch_size=args.batch,
    )
    study = run_study(spec, jobs=args.jobs, cache_dir=args.cache_dir)
    result = study.points[0].results[0]
    print(result.summary_row())
    print(f"batch {result.batch_size}: "
          f"{result.latency_per_inference_s * 1e3:.4f} ms/image, "
          f"{result.throughput_inferences_per_s:.1f} inferences/s, "
          f"{result.total_energy_j * 1e3:.3f} mJ total")
    if args.timeline:
        print(f"\n{'layer':<28}{'start(us)':>12}{'end(us)':>12}")
        for timing in result.layer_timeline:
            print(f"{timing.name:<28}{timing.start_s * 1e6:>12.2f}"
                  f"{timing.end_s * 1e6:>12.2f}")
    if args.cache_dir:
        print(f"\n{study.cache_stats.summary()}")
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from .experiments import dse
    from .experiments.quantization_study import (
        quantization_study,
        render_quantization_study,
    )
    from .experiments.runner import CacheStats

    stats = CacheStats()
    if args.sweep == "wavelengths":
        print(dse.render_sweep(
            "wavelength sweep",
            dse.sweep_wavelengths(args.model, jobs=args.jobs,
                                  cache_dir=args.cache_dir, stats=stats),
        ))
    elif args.sweep == "gateways":
        print(dse.render_sweep(
            "gateway sweep",
            dse.sweep_gateways(args.model, jobs=args.jobs,
                               cache_dir=args.cache_dir, stats=stats),
        ))
    elif args.sweep == "controllers":
        results = dse.controller_ablation(
            model_names=(args.model,), jobs=args.jobs,
            cache_dir=args.cache_dir, stats=stats,
        )
        for (policy, model), result in sorted(results.items()):
            print(f"{policy:<10}{model:<14}{result.latency_s * 1e3:10.4f} ms"
                  f"{result.average_power_w:9.2f} W")
    elif args.sweep == "mapping":
        results = dse.mapping_ablation(model_names=(args.model,))
        for (policy, model), result in sorted(results.items()):
            print(f"{policy:<10}{model:<14}{result.latency_s * 1e3:10.4f} ms"
                  f"{result.average_power_w:9.2f} W")
    else:  # quantization
        print(render_quantization_study(quantization_study(
            args.model, jobs=args.jobs, cache_dir=args.cache_dir,
            stats=stats,
        )))
    if args.cache_dir and args.sweep != "mapping":
        print(f"\n{stats.summary()}")
    if args.sweep != "mapping":
        slowest = stats.render_slowest(5)
        if slowest:
            print(f"\n{slowest}")
    return 0


SERVE_PLATFORM_CHOICES = ("mono", "elec", "siph")
"""Aliases servable by ``serve-study`` (resolved via
``PLATFORM_ALIASES``; the AWGR topology baseline stays one-shot-only
until its serving behavior is characterised)."""


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_rates(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(token) for token in text.split(",") if token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"rates must be comma-separated numbers, got {text!r}"
        )
    if not rates or any(rate <= 0 for rate in rates):
        raise argparse.ArgumentTypeError(
            f"rates must be positive, got {text!r}"
        )
    return rates


def _cmd_serve_study(args: argparse.Namespace) -> int:
    from .experiments.export import study_results_to_json, write_text
    from .experiments.reports import render_serving_study, render_slo_summary
    from .studies.builders import serve_study_spec
    from .studies.compile import run_study
    from .studies.spec import SchedulerSpec

    if args.policy == "max-batch":
        # Batching knobs are meaningful (and cache-key-relevant) only
        # under max-batch; leave them at spec defaults otherwise so
        # identical simulations share identical keys.
        scheduler = SchedulerSpec(
            policy=args.policy,
            max_batch=args.max_batch,
            batch_timeout_s=args.batch_timeout_us * 1e-6,
            max_inflight=args.max_inflight,
            shed_expired=args.shed_expired,
        )
    else:
        scheduler = SchedulerSpec(
            policy=args.policy,
            max_inflight=args.max_inflight,
            shed_expired=args.shed_expired,
        )
    spec = serve_study_spec(
        model=args.model,
        platforms=tuple(
            PLATFORM_ALIASES[alias] for alias in args.platforms
        ),
        controllers=tuple(args.controllers),
        scheduler=scheduler,
        rates_rps=args.rates,
        arrival=args.arrival,
        duration_s=args.duration_us * 1e-6,
        seed=args.seed,
    )
    study = run_study(spec, jobs=args.jobs, cache_dir=args.cache_dir)
    results = study.serving_results()
    labels = study.point_labels()
    print(render_serving_study(results, labels))
    slo_table = render_slo_summary(results, labels)
    if slo_table:
        print(f"\nper-model SLO attainment:\n{slo_table}")
    if args.cache_dir:
        print(f"\n{study.cache_stats.summary()}")
    if study.cache_stats is not None:
        slowest = study.cache_stats.render_slowest(5)
        if slowest:
            print(f"\n{slowest}")
    if args.json:
        write_text(args.json, study_results_to_json(results))
        print(f"\nwrote {args.json}")
    return 0


def _telemetry_cell_label(result, swept: str) -> str:
    """One-line trace-process label for a telemetered cell result,
    ended by its point's swept fields (``"-"``: no sweep axes)."""
    parts = [result.model, result.platform, result.policy]
    if result.router != "-":
        parts.append(f"{result.router}x{result.n_nodes}")
    parts.append(f"{result.offered_rps:g}rps")
    if swept != "-":
        parts.append(swept)
    return "/".join(parts)


def _telemetry_summaries(study) -> "list[tuple[str, object]]":
    """``(label, TelemetrySummary)`` pairs from telemetered results."""
    return [
        (_telemetry_cell_label(result, swept), result.telemetry)
        for result, swept in zip(study.serving_results(),
                                 study.point_labels())
        if result.telemetry is not None
    ]


def _cmd_study(args: argparse.Namespace) -> int:
    from .experiments.export import (
        results_to_csv,
        results_to_json,
        study_results_to_csv,
        study_results_to_json,
        write_text,
    )
    from .studies.compile import (
        load_spec,
        render_dry_run,
        render_study,
        run_study,
    )

    spec = load_spec(args.spec)
    if args.dry_run:
        print(render_dry_run(spec, cache_dir=args.cache_dir))
        return 0
    study = run_study(spec, jobs=args.jobs, cache_dir=args.cache_dir)
    print(render_study(study))
    if study.cache_stats is not None and args.cache_dir:
        print(f"\n{study.cache_stats.summary()}")
    if study.cache_stats is not None:
        slowest = study.cache_stats.render_slowest(5)
        if slowest:
            print(f"\n{slowest}")
    flat = study.flat_results()
    telemetry = _telemetry_summaries(study)
    for label, summary in telemetry:
        block = summary.render_sparklines()
        if block:
            print(f"\ntelemetry [{label}] "
                  f"({summary.policy_label}, {summary.span_count} spans, "
                  f"{summary.sampled_requests}/{summary.total_requests} "
                  f"requests traced)\n{block}")
    if (args.trace or args.metrics_csv) and not telemetry:
        print("error: --trace/--metrics-csv need an armed telemetry "
              "section in the spec (no cell produced telemetry)",
              file=sys.stderr)
        return 2
    if args.trace:
        from .obs import chrome_trace_json

        write_text(args.trace, chrome_trace_json(telemetry))
        print(f"\nwrote {args.trace} "
              f"(load at https://ui.perfetto.dev)")
    if args.metrics_csv:
        from .obs import telemetry_series_to_csv

        write_text(args.metrics_csv, telemetry_series_to_csv(telemetry))
        print(f"wrote {args.metrics_csv}")
    if args.json:
        if spec.kind == "serving":
            write_text(args.json, study_results_to_json(flat))
        else:
            write_text(args.json, results_to_json(flat))
        print(f"\nwrote {args.json}")
    if args.csv:
        if spec.kind == "serving":
            write_text(args.csv, study_results_to_csv(flat))
        else:
            write_text(args.csv, results_to_csv(flat))
        print(f"wrote {args.csv}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import bench

    if args.ab is not None:
        return _bench_ab(bench, args)
    names = bench.select_benchmarks(args.only) if args.only else None
    counts: dict[str, dict[str, int]] = {}
    medians = bench.run_suite(names=names, repeats=args.repeats,
                              counts=counts)
    baseline = None
    baseline_path = Path(args.baseline)
    if baseline_path.exists():
        baseline = bench.load_baseline(baseline_path)
    print(bench.render_suite(medians, baseline, counts))
    if not args.check:
        return 0
    if baseline is None:
        print(
            f"no baseline at {args.baseline}; generate one with "
            "`python benchmarks/run_all.py`",
            file=sys.stderr,
        )
        return 2
    reference = bench.load_counts(baseline_path)
    failures = bench.check_against_baseline(medians, baseline)
    failures += bench.check_counts(counts, reference)
    unrecorded = [
        counter for counter in bench.VERSIONED_COUNTERS
        if not any(counter in work for work in reference.values())
    ]
    if unrecorded:
        print(f"\n{args.baseline} has no {'/'.join(unrecorded)} record "
              f"for Python {bench.PYTHON_VERSION}: reported, not checked")
    if failures:
        print("\nPERF REGRESSION:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        f"\nperf check OK: all benchmarks within "
        f"{bench.REGRESSION_FACTOR:.1f}x of baseline, no exact count "
        "above it"
    )
    return 0


def _bench_ab(bench, args: argparse.Namespace) -> int:
    """``bench --ab OTHER_ROOT``: report only, so exit 0 whatever the
    timings say (2 when OTHER_ROOT is not a checkout)."""
    if not (Path(args.ab) / "src" / "repro" / "bench.py").is_file():
        print(f"error: {args.ab} is not a checkout (no src/repro/bench.py)",
              file=sys.stderr)
        return 2
    timings, only_this, only_other = bench.ab_compare(
        args.ab, substring=args.only, rounds=bench.AB_ROUNDS,
        calls=args.repeats,
    )
    print(bench.render_ab(bench.summarize_ab(timings), only_this,
                          only_other))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Machine Learning Accelerators in 2.5D "
            "Chiplet Platforms with Silicon Photonics' (DATE 2023)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared performance options for every simulation-heavy command.
    perf = argparse.ArgumentParser(add_help=False)
    perf.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="fan simulations out over N worker processes",
    )
    perf.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persistent result cache; identical cells never re-simulate",
    )

    sub.add_parser("table1", help="print Table 1").set_defaults(
        func=_cmd_table1
    )
    sub.add_parser("table2", help="print Table 2").set_defaults(
        func=_cmd_table2
    )

    fig7 = sub.add_parser("fig7", parents=[perf],
                          help="regenerate Fig. 7 panels")
    fig7.add_argument("--metric", choices=("power", "latency", "epb"),
                      default=None, help="one panel (default: all three)")
    fig7.set_defaults(func=_cmd_fig7)

    sub.add_parser(
        "table3", parents=[perf],
        help="regenerate Table 3 + headline ratios",
    ).set_defaults(func=_cmd_table3)
    sub.add_parser(
        "calibrate", parents=[perf],
        help="paper-vs-measured report with shape checks",
    ).set_defaults(func=_cmd_calibrate)

    run = sub.add_parser("run", parents=[perf],
                         help="simulate one model on one platform")
    run.add_argument("--model", choices=zoo.TABLE2_MODELS,
                     default="ResNet50")
    run.add_argument("--platform", choices=tuple(PLATFORM_ALIASES),
                     default="siph")
    run.add_argument("--controller",
                     choices=("resipi", "prowaves", "static"),
                     default="resipi",
                     help="interposer policy (siph platform only)")
    run.add_argument("--batch", type=int, default=1)
    run.add_argument("--timeline", action="store_true",
                     help="print the per-layer timeline")
    run.set_defaults(func=_cmd_run)

    dse = sub.add_parser("dse", parents=[perf],
                         help="design-space exploration sweeps")
    dse.add_argument("--sweep",
                     choices=("wavelengths", "gateways", "controllers",
                              "mapping", "quantization"),
                     default="wavelengths")
    dse.add_argument("--model", choices=zoo.TABLE2_MODELS,
                     default="ResNet50")
    dse.set_defaults(func=_cmd_dse)

    serve = sub.add_parser(
        "serve-study", parents=[perf],
        help="latency-under-load curves: rate x policy x platform",
    )
    serve.add_argument("--model", choices=zoo.TABLE2_MODELS,
                       default="LeNet5")
    serve.add_argument("--platforms", nargs="+",
                       choices=SERVE_PLATFORM_CHOICES,
                       default=["siph"],
                       help="platforms to sweep (default: siph)")
    serve.add_argument("--controllers", nargs="+",
                       choices=("resipi", "prowaves", "static"),
                       default=["resipi"],
                       help="interposer policies (siph platform only)")
    serve.add_argument("--policy",
                       choices=("fifo", "max-batch", "edf", "priority"),
                       default="fifo", help="dispatch/batching policy")
    serve.add_argument("--shed-expired", action="store_true",
                       help="shed requests whose deadline already passed")
    serve.add_argument("--max-batch", type=_positive_int, default=8,
                       help="batch size cap for --policy max-batch")
    serve.add_argument("--batch-timeout-us", type=_non_negative_float,
                       default=20.0, help="batch-gathering timeout (us)")
    serve.add_argument("--max-inflight", type=_positive_int, default=4,
                       help="admission cap on concurrent executions")
    serve.add_argument("--arrival", choices=("poisson", "mmpp", "closed"),
                       default="poisson", help="arrival process")
    serve.add_argument("--rates", type=_parse_rates,
                       default=(20e3, 50e3, 100e3, 200e3),
                       help="comma-separated arrival rates (requests/s)")
    serve.add_argument("--duration-us", type=_positive_float,
                       default=2000.0,
                       help="injection window per point (us)")
    serve.add_argument("--seed", type=int, default=7,
                       help="arrival-process RNG seed")
    serve.add_argument("--json", default=None, metavar="PATH",
                       help="also export the sweep as JSON")
    serve.set_defaults(func=_cmd_serve_study)

    study = sub.add_parser(
        "study", parents=[perf],
        help="run a declarative study spec (JSON) end to end",
    )
    study.add_argument("spec", metavar="SPEC.json",
                       help="study spec file (see examples/study_spec.json)")
    study.add_argument("--json", default=None, metavar="PATH",
                       help="also export every point result as JSON")
    study.add_argument("--csv", default=None, metavar="PATH",
                       help="also export every point result as CSV")
    study.add_argument("--dry-run", action="store_true",
                       help="print the expanded grid, per-cell cache keys "
                            "and the spec digest without simulating")
    study.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Perfetto-loadable Chrome trace-event "
                            "JSON (needs a telemetry section with "
                            "trace: true)")
    study.add_argument("--metrics-csv", default=None, metavar="PATH",
                       help="write the telemetry gauge time series as CSV")
    study.set_defaults(func=_cmd_study)

    bench = sub.add_parser(
        "bench", help="time the simulator microbenchmarks"
    )
    mode = bench.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) if any benchmark regressed >2x vs baseline "
             "or any exact count (kernel insertions, processes, "
             "transfers, gateway calls, bytecode instructions, calls) "
             "rose above its record",
    )
    mode.add_argument(
        "--ab", default=None, metavar="OTHER_ROOT",
        help="report only: time this tree's and OTHER_ROOT's bodies in "
             "alternating rounds, each in a fresh interpreter, and print "
             "per body the ratio of CPU-time minima, its range over "
             "rounds and the rounds won; --repeats sets the calls per "
             "timing",
    )
    bench.add_argument(
        "--baseline", default="BENCH_sim.json", metavar="PATH",
        help="baseline file written by benchmarks/run_all.py",
    )
    bench.add_argument("--repeats", type=_positive_int, default=5,
                       help="timing repeats per benchmark")
    bench.add_argument("--only", default=None, metavar="SUBSTRING",
                       help="run only benchmarks whose name contains "
                            "SUBSTRING; --check then gates only those")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Every verb reports a :class:`~repro.errors.ReproError` (a bad spec
    value, an unknown name) as one ``error: ...`` line on stderr and
    exit code 2, before or instead of simulating.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""One benchmark repetition, in a fresh process.

Run by ``run.py``; never imports ``repro`` before the setup timer
starts, so ``setup_s`` includes the package import exactly as every
``repro study`` invocation pays it.  Writes one JSON document to
``--out``.

Modes:

* ``timed`` — setup, cold serial ``run_study``, warm-cache reruns;
* ``traced`` — the cold study under the profiler and counting probes,
  then one warm rerun for the cache counters;
* ``reference`` — the full-DES twin of the grid (fidelity section
  removed), with its cold and warm runs checked like any other cell;
  ``--profile`` also profiles it.

Every mode times the host-speed kernel (``hostspeed.py``) just before
and just after the cold study.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

WARM_RERUNS = 5
"""Warm-cache reruns per timed repetition; ``warm_s`` is their median."""


def _requests(results) -> int:
    """Simulated requests completed (inference: images = batch sizes)."""
    total = 0
    for result in results:
        if hasattr(result, "requests_completed"):
            total += result.requests_completed
        else:
            total += result.batch_size
    return total


def _cell_views(results) -> list[dict]:
    """What the fidelity comparison needs from each serving cell."""
    views = []
    for result in results:
        if not hasattr(result, "per_model"):
            continue
        fidelity = result.fidelity
        ttft = getattr(result, "ttft", None)
        views.append({
            "p99_s": result.latency.p99_s,
            "ttft_p99_s": ttft.p99_s if ttft is not None else None,
            "tenant_p99_s": {
                stats.model: stats.latency.p99_s
                for stats in result.per_model
            },
            "claimed_p99_err": fidelity.p99_rel_err if fidelity else None,
            "claimed_ttft_err": fidelity.ttft_rel_err if fidelity else None,
            "mode": fidelity.mode_used if fidelity else "des",
            "warm_forked": bool(fidelity and fidelity.warm_forked),
        })
    return views


def _model_stats(results) -> dict[str, float]:
    """Simulated-time statistics: identical under simulator-only changes."""
    serving = [r for r in results if hasattr(r, "per_model")]
    inference = [r for r in results if not hasattr(r, "per_model")]
    stats = dict.fromkeys(
        ("p99_us", "goodput_rps", "compute_util", "reconfigurations",
         "latency_ms", "epb"), 0.0,
    )
    stats["reconfigurations"] = float(sum(
        getattr(r, "reconfigurations", 0) for r in results
    ))
    if serving:
        n = len(serving)
        stats["p99_us"] = sum(r.latency.p99_s for r in serving) / n * 1e6
        stats["goodput_rps"] = sum(r.goodput_rps for r in serving) / n
        utils = []
        for result in serving:
            if hasattr(result, "per_node"):
                utils += [node.mean_compute_utilization
                          for node in result.per_node]
            else:
                utils.append(result.mean_compute_utilization)
        stats["compute_util"] = sum(utils) / len(utils)
    if inference:
        n = len(inference)
        stats["latency_ms"] = sum(r.latency_s for r in inference) / n * 1e3
        stats["epb"] = sum(r.energy_per_bit_j for r in inference) / n
    return stats


def _result_counts(results) -> dict[str, float]:
    """Per-layer counts that the results themselves carry."""
    serving = [r for r in results if hasattr(r, "per_model")]
    counts = dict.fromkeys(
        ("kv_refusals", "decode_remaps", "rerouted", "calibrations",
         "warm_forks", "spans", "gauge_samples", "attempts",
         "logical_requests", "hedges", "hedge_wins"), 0,
    )
    batch_weighted = completed = 0.0
    for result in serving:
        counts["kv_refusals"] += getattr(result, "kv_refusals", 0)
        counts["decode_remaps"] += getattr(result, "decode_remaps", 0)
        counts["rerouted"] += getattr(result, "requests_rerouted", 0)
        if hasattr(result, "mean_batch_size"):
            batch_weighted += (result.mean_batch_size
                               * result.requests_completed)
            completed += result.requests_completed
        if result.fidelity is not None:
            key = "warm_forks" if result.fidelity.warm_forked else (
                "calibrations"
            )
            counts[key] += 1
        if result.telemetry is not None:
            counts["spans"] += result.telemetry.span_count
            counts["gauge_samples"] += sum(
                len(samples) for _, samples in result.telemetry.series
            )
        lifecycle = result.resilience
        if lifecycle is not None:
            counts["attempts"] += lifecycle.attempts
            counts["logical_requests"] += lifecycle.requests
            counts["hedges"] += lifecycle.hedges
            counts["hedge_wins"] += lifecycle.hedge_wins
    counts["mean_batch"] = batch_weighted / completed if completed else 0.0
    return counts


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "traced", "reference"))
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args()

    from repro.experiments.runner import CacheStats
    from repro.studies.compile import lower_study, run_study
    from workloads import build_spec

    spec = build_spec(args.workload, args.seed, args.rep, tiny=args.tiny,
                      reference=args.mode == "reference")
    lower_start = time.perf_counter()
    points, cells_per_point = lower_study(spec)
    setup_end = time.perf_counter()
    n_cells = sum(len(group) for group in cells_per_point)

    from hostspeed import kernel_samples

    kernel_s = kernel_samples()
    profiler = probe = None
    if args.mode == "traced" or args.profile:
        from layers import Probe

        profiler = cProfile.Profile()
        if args.mode == "traced":
            probe = Probe()
            probe.install()
    cold_stats = CacheStats()
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        cold = run_study(spec, jobs=1, cache_dir=args.cache_dir,
                         stats=cold_stats)
    finally:
        if profiler is not None:
            profiler.disable()
        if probe is not None:
            probe.uninstall()
    wall = time.perf_counter() - start
    cold_results = cold.flat_results()
    kernel_s += kernel_samples()

    warm_times = []
    warm_stats = CacheStats()
    warm_results = None
    for _ in range(WARM_RERUNS if args.mode == "timed" else 1):
        warm_stats = CacheStats()
        rerun_start = time.perf_counter()
        warm = run_study(spec, jobs=1, cache_dir=args.cache_dir,
                         stats=warm_stats)
        warm_times.append(time.perf_counter() - rerun_start)
        warm_results = warm.flat_results()
        if warm_stats.simulated or warm_stats.hits != n_cells:
            break

    from checks import cell_problems, digest

    out = {
        "setup_s": setup_end - _START,
        "lower_s": setup_end - lower_start,
        "points": len(points),
        "cells": n_cells,
        "wall_s": wall,
        "kernel_s": kernel_s,
        "warm_s": statistics.median(warm_times),
        "warm_all_hit": (warm_stats.simulated == 0
                         and warm_stats.hits == n_cells),
        "cache_hits": warm_stats.hits,
        "cache_misses": cold_stats.misses,
        "requests": _requests(cold_results),
        "cell_max_s": max(seconds for _, seconds, hit
                          in cold_stats.cell_times if not hit),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": [cell_problems(cold_result, warm_result)
                     for cold_result, warm_result
                     in zip(cold_results, warm_results, strict=True)],
        "digest": digest(cold_results),
        "cells_view": _cell_views(cold_results),
        "model": _model_stats(cold_results),
        "result_counts": _result_counts(cold_results),
    }
    if profiler is not None:
        from layers import Attribution

        attribution = Attribution(ROOT / "src" / "repro")
        out["self_s"] = attribution.self_times(pstats.Stats(profiler))
    if probe is not None:
        out["probe"] = dict(probe.counts, events=probe.events)
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()

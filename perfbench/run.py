"""The repository benchmark: four study workloads, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload siph_serving --seed 1 \\
        --seconds 27 --trace 0

Load model: a closed loop of one client.  Each repetition is one fresh
worker process (``worker.py``) that imports ``repro``, loads and lowers
the workload's study spec and runs it serially (``jobs=1``) against an
empty result cache and an empty fluid warm store, then reruns it warm.
Inside each study, arrivals are open-loop in simulated time.  Repetition
``r`` draws its arrival seeds from (``--seed``, ``r``), so a run
averages over as many arrival draws as it has repetitions.  Repetitions
continue while another fits in ``--seconds``; a last one replays
repetition 0 to check that a fresh process reproduces its export
bit-identically.

``--trace 0`` prints the end-to-end metrics: medians over repetitions,
host times scaled to the reference host speed (see ``hostspeed.py``).
``--trace 1`` runs untraced and traced repetitions in pairs and prints
the per-layer metrics.  The ``fluid_audit`` workload also runs its
full-DES twin once, before the measuring window, as the accuracy
reference.  The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` (cells, reference cells included) and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_KERNEL_S  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "sim_req_per_s": "req/s",
    "peak_rss_mb": "MB",
}
"""Gated metrics: steady across seeds and host noise (see README.md)."""

REPORTED = {
    **END_TO_END,
    "wall_s": "s",
    "warm_s": "s",
    "cell_max_s": "s",
    "fluid_p99_err": "ratio",
    "error_rate": "ratio",
}
"""Printed by ``--trace 0``; the ungated ones reappear as per-layer
metrics."""

FIDELITY = {
    "fluid_p99_err": "ratio",
    "experiments.fidelity_claim_gap": "ratio",
    "experiments.fidelity_ttft_err": "ratio",
}

PER_LAYER = {f"{layer}.self_s": "s" for layer in LAYERS}
PER_LAYER.update({
    "sim.events": "count",
    "sim.events_per_req": "events/req",
    "interposer.transfers": "count",
    "interposer.gateway_calls": "count",
    "interposer.reconfig_ratio": "ratio",
    "interposer.controller_epochs": "count",
    "core.executions": "count",
    "mapping.weight_fetches": "count",
    "mapping.kv_refusals": "count",
    "serving.decode_remaps": "count",
    "serving.mean_batch": "req",
    "serving.attempts_per_req": "ratio",
    "serving.hedge_win_rate": "ratio",
    "cluster.routed": "count",
    "cluster.rerouted": "count",
    "experiments.calibrations": "count",
    "experiments.warm_forks": "count",
    "experiments.cache_hits": "count",
    "experiments.cache_misses": "count",
    "wall_s": "s",
    "experiments.cell_max_s": "s",
    "experiments.warm_s": "s",
    **FIDELITY,
    "error_rate": "ratio",
    "obs.spans": "count",
    "obs.gauge_samples": "count",
    "studies.points": "count",
    "studies.lower_s": "s",
    "trace_overhead": "ratio",
    "model.p99_us": "us",
    "model.goodput_rps": "req/s",
    "model.compute_util": "ratio",
    "model.reconfigurations": "count",
    "model.latency_ms": "ms",
    "model.epb": "J/bit",
})

WORKER_TIMEOUT_S = 150
MIN_TIMED_REPS = 3


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, rep: int, mode: str,
               scratch: Path, tiny: bool, profile: bool = False) -> dict:
    """One fresh-process repetition; its cache directory is removed."""
    rep_dir = scratch / f"{mode}-{rep}"
    rep_dir.mkdir(parents=True)
    out = rep_dir / "result.json"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--rep", str(rep), "--mode", mode,
               "--cache-dir", str(rep_dir / "cache"), "--out", str(out)]
    if tiny:
        command.append("--tiny")
    if profile:
        command.append("--profile")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            raise WorkerFailed(
                f"{mode} worker exited {done.returncode}:\n"
                + done.stderr[-2000:]
            )
        return json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired as error:
        raise WorkerFailed(f"{mode} worker timed out") from error
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def _rel_err(predicted: float, truth: float) -> float:
    return abs(predicted - truth) / truth


def fidelity_audit(fluid_cells: list[dict],
                   des_cells: list[dict]) -> tuple[dict, list[str]]:
    """True vs claimed fluid error, cell by cell and tenant by tenant.

    Tenants are matched by model name: ``per_model`` order differs
    between the fluid and DES paths.
    """
    lines = [f"{'cell':>4} {'claimed':>8} {'true':>8} {'worst tenant':>13} "
             f"{'ttft':>8}"]
    worst = claim_gap = ttft_worst = 0.0
    for index, (fluid, des) in enumerate(zip(fluid_cells, des_cells,
                                             strict=True)):
        true_err = _rel_err(fluid["p99_s"], des["p99_s"])
        tenant_err = max(
            _rel_err(p99, des["tenant_p99_s"][model])
            for model, p99 in fluid["tenant_p99_s"].items()
        )
        worst = max(worst, tenant_err)
        claimed = fluid["claimed_p99_err"]
        claim_gap = max(claim_gap, abs(claimed - true_err))
        ttft = ""
        if fluid["ttft_p99_s"] is not None and des["ttft_p99_s"]:
            ttft_err = _rel_err(fluid["ttft_p99_s"], des["ttft_p99_s"])
            ttft_worst = max(ttft_worst, ttft_err)
            ttft = f"{ttft_err:8.3f}"
        lines.append(f"{index:>4} {claimed:8.3f} {true_err:8.3f} "
                     f"{tenant_err:13.3f} {ttft:>8}")
    return {
        "fluid_p99_err": worst,
        "experiments.fidelity_claim_gap": claim_gap,
        "experiments.fidelity_ttft_err": ttft_worst,
    }, lines


def layer_table(self_s: dict[str, float]) -> list[str]:
    total = sum(self_s.values()) or 1.0
    ranked = sorted(self_s.items(), key=lambda item: -item[1])
    return [f"  {layer:<34}{seconds:9.4f} s {100 * seconds / total:6.1f}%"
            for layer, seconds in ranked if seconds > 0]


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def host_scale(reps: list[dict]) -> float:
    """Reference-host seconds per host second during these repetitions."""
    return REFERENCE_KERNEL_S / statistics.median(
        sample for rep in reps for sample in rep["kernel_s"]
    )


def host_metrics(timed: list[dict]) -> dict[str, float]:
    """Medians over the untraced repetitions, host times at reference
    host speed."""
    scale = host_scale(timed)
    metrics = {
        name: _median(timed, name) * scale
        for name in ("setup_s", "wall_s", "warm_s", "cell_max_s")
    }
    metrics["sim_req_per_s"] = statistics.median(
        rep["requests"] / rep["wall_s"] for rep in timed
    ) / scale
    metrics["peak_rss_mb"] = _median(timed, "peak_rss_mb")
    return metrics


def per_layer_metrics(timed: list[dict], traced: list[dict]
                      ) -> dict[str, float]:
    """Layer self times (medians over traced repetitions) and the counts
    of traced repetition 0; self times and ``studies.lower_s`` are raw
    host seconds."""
    first = traced[0]
    probe, counts = first["probe"], first["result_counts"]
    metrics = {
        f"{layer}.self_s": statistics.median(
            rep["self_s"][layer] for rep in traced
        )
        for layer in LAYERS
    }
    gateway_calls = probe["gateway_calls"]
    metrics.update({
        "sim.events": probe["events"],
        "sim.events_per_req": probe["events"] / first["requests"],
        "interposer.transfers": probe["transfers"],
        "interposer.gateway_calls": gateway_calls,
        "interposer.reconfig_ratio": (
            probe["reconfigurations"] / gateway_calls if gateway_calls
            else 0.0
        ),
        "interposer.controller_epochs": probe["controller_epochs"],
        "core.executions": probe["executions"],
        "mapping.weight_fetches": probe["weight_fetches"],
        "mapping.kv_refusals": counts["kv_refusals"],
        "serving.decode_remaps": counts["decode_remaps"],
        "serving.mean_batch": counts["mean_batch"],
        "serving.attempts_per_req": (
            counts["attempts"] / counts["logical_requests"]
            if counts["logical_requests"] else 0.0
        ),
        "serving.hedge_win_rate": (
            counts["hedge_wins"] / counts["hedges"] if counts["hedges"]
            else 0.0
        ),
        "cluster.routed": probe["routed"],
        "cluster.rerouted": counts["rerouted"],
        "experiments.calibrations": counts["calibrations"],
        "experiments.warm_forks": counts["warm_forks"],
        "experiments.cache_hits": first["cache_hits"],
        "experiments.cache_misses": first["cache_misses"],
        "obs.spans": counts["spans"],
        "obs.gauge_samples": counts["gauge_samples"],
        "studies.points": first["points"],
        "studies.lower_s": _median(timed + traced, "lower_s"),
        "trace_overhead": (_median(traced, "wall_s")
                           / _median(timed, "wall_s")),
    })
    metrics.update({f"model.{name}": value
                    for name, value in first["model"].items()})
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="cut every sweep axis to two values "
                             "(self-test scale)")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from "
              "the repository root", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    failures: list[str] = []
    timed: list[dict] = []
    traced: list[dict] = []
    reference = replay = None
    modes = ("timed", "traced") if args.trace else ("timed",)

    def attempt(rep: int, mode: str, profile: bool = False):
        try:
            return run_worker(args.workload, args.seed, rep, mode, scratch,
                              args.tiny, profile)
        except WorkerFailed as error:
            failures.append(str(error))
            return None

    try:
        if workload.has_reference:
            reference = attempt(0, "reference", profile=bool(args.trace))
        start = time.monotonic()
        rounds = 0
        timed_s = 0.0
        while not failures:
            elapsed = time.monotonic() - start
            # Another round only if it and the replay (one untraced
            # repetition) still fit in the window, judged by the means
            # so far.
            if rounds >= (1 if args.trace else MIN_TIMED_REPS) and (
                elapsed + elapsed / rounds + timed_s / rounds > args.seconds
            ):
                break
            for mode in modes:
                began = time.monotonic()
                rep = attempt(rounds, mode)
                if rep is not None:
                    (traced if mode == "traced" else timed).append(rep)
                if mode == "timed":
                    timed_s += time.monotonic() - began
            rounds += 1
        if not failures:
            replay = attempt(0, "timed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    if failures:
        for failure in failures:
            print(f"FAILED: {failure}", file=sys.stderr)
        return 1

    checked = timed + traced + [replay] + ([reference] if reference else [])
    attempted = sum(rep["cells"] for rep in checked)
    failed = sum(1 for rep in checked for problems in rep["problems"]
                 if problems)
    deterministic = replay["digest"] == timed[0]["digest"] and all(
        a["digest"] == b["digest"] for a, b in zip(timed, traced)
    )
    correct = (failed == 0 and deterministic
               and all(rep["warm_all_hit"] for rep in checked))
    error_rate = failed / attempted

    print(f"workload {args.workload} seed {args.seed}: {len(timed)} timed "
          f"+ {len(traced)} traced repetition(s) of {timed[0]['cells']} "
          f"cells; repetition 0 simulated {timed[0]['requests']} requests")
    print(f"repetition 0 export sha256 {timed[0]['digest']}"
          + ("" if deterministic else "  (NOT reproduced by a fresh process)"))
    for rep in checked:
        for index, problems in enumerate(rep["problems"]):
            for problem in problems:
                print(f"  cell {index}: {problem}")
    print(f"error_rate {error_rate:g} ({failed}/{attempted} cells failed, "
          "reference cells included)")
    print(f"host speed: {host_scale(timed):.4f} reference s per s (raw "
          f"medians: setup {_median(timed, 'setup_s'):.4f} s, wall "
          f"{_median(timed, 'wall_s'):.4f} s)")

    fidelity = dict.fromkeys(FIDELITY, 0.0)
    if reference is not None:
        audit, lines = fidelity_audit(timed[0]["cells_view"],
                                      reference["cells_view"])
        fidelity.update(audit)
        print("fluid vs full-DES p99 error, repetition 0 (claimed = the "
              "cell's own FidelityReport):")
        print("\n".join("  " + line for line in lines))
        print(f"fluid_p99_err {fidelity['fluid_p99_err']:.4f} ratio")
        if "self_s" in reference:
            print("full-DES reference, self time by layer:")
            print("\n".join(layer_table(reference["self_s"])))

    host = host_metrics(timed)
    if args.trace:
        metrics = per_layer_metrics(timed, traced)
        metrics.update(fidelity, error_rate=error_rate, wall_s=host["wall_s"],
                       **{"experiments.cell_max_s": host["cell_max_s"],
                          "experiments.warm_s": host["warm_s"]})
        units = shown = PER_LAYER
        print("self time by layer (traced cold run):")
        print("\n".join(layer_table(
            {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
        )))
    else:
        metrics = dict(host, error_rate=error_rate, **fidelity)
        units, shown = END_TO_END, REPORTED
    for name, unit in shown.items():
        gated = "" if args.trace or name in END_TO_END else "  (not gated)"
        print(f"  {name:<38}{metrics[name]:>14.6g} {unit}{gated}")
    if not all(math.isfinite(value) for value in metrics.values()):
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-cell correctness checks and the export digest.

A cell passes when its result is internally consistent — requests are
conserved, latency quantiles are ordered and positive, utilizations lie
in [0, 1], every number is finite — and when its warm-cache result
exports byte-identically to its cold result.
"""

from __future__ import annotations

import hashlib
import math

from repro.core.metrics import InferenceResult
from repro.experiments.export import (
    result_to_dict,
    results_to_json,
    study_results_to_json,
)
from repro.serving.metrics import ClusterResult


def export_json(results) -> str:
    """The study's own JSON export of a result list."""
    if results and isinstance(results[0], InferenceResult):
        return results_to_json(results)
    return study_results_to_json(results)


def digest(results) -> str:
    """sha256 of the export: equal digests mean bit-identical outputs."""
    return hashlib.sha256(export_json(results).encode("utf-8")).hexdigest()


def _finite(*values) -> bool:
    return all(math.isfinite(value) for value in values)


def _ordered(profile) -> bool:
    """0 < p50 <= p99 <= max (an empty profile is vacuously fine)."""
    if profile.count == 0:
        return True
    return (_finite(profile.p50_s, profile.p99_s, profile.max_s)
            and 0.0 < profile.p50_s <= profile.p99_s <= profile.max_s)


def _unit(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def _inference_problems(result: InferenceResult) -> list[str]:
    problems = []
    if not (_finite(result.latency_s, result.total_energy_j)
            and result.latency_s > 0 and result.total_energy_j > 0):
        problems.append("non-positive latency or energy")
    if not (result.traffic_bits > 0 and result.energy_per_bit_j > 0):
        problems.append("no traffic or EPB")
    if not all(_unit(stat.utilization) for stat in result.channel_stats):
        problems.append("channel utilization outside [0, 1]")
    return problems


def _serving_problems(result) -> list[str]:
    problems = []
    gave_up = result.resilience.gave_up if result.resilience else 0
    # The lifecycle reports abandoned requests as shed, so conservation
    # is injected = completed + shed, with gave-up a part of shed.
    if result.requests_injected != (result.requests_completed
                                    + result.requests_shed):
        problems.append(
            f"requests not conserved: {result.requests_injected} injected "
            f"!= {result.requests_completed} completed + "
            f"{result.requests_shed} shed"
        )
    if not 0 <= gave_up <= result.requests_shed:
        problems.append(f"gave-up {gave_up} outside shed "
                        f"{result.requests_shed}")
    if result.requests_completed <= 0:
        problems.append("no request completed")
    profiles = [result.latency] + [m.latency for m in result.per_model]
    if not all(_ordered(profile) for profile in profiles):
        problems.append("latency quantiles not 0 < p50 <= p99 <= max")
    if isinstance(result, ClusterResult):
        utilizations = [node.mean_compute_utilization
                        for node in result.per_node]
    else:
        utilizations = [result.mean_compute_utilization] + [
            stat.utilization for stat in result.channel_stats
        ]
    if not all(_unit(value) for value in utilizations):
        problems.append("utilization outside [0, 1]")
    if not _finite(result.goodput_rps, result.network_energy_j,
                   result.compute_energy_j):
        problems.append("non-finite goodput or energy")
    return problems


def cell_problems(cold, warm) -> list[str]:
    """Every violated check of one cell (empty = correct)."""
    if isinstance(cold, InferenceResult):
        problems = _inference_problems(cold)
        same = result_to_dict(cold) == result_to_dict(warm)
    else:
        problems = _serving_problems(cold)
        same = export_json([cold]) == export_json([warm])
    if not same:
        problems.append("warm-cache result differs from cold result")
    return problems

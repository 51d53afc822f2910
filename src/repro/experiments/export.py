"""Result export: JSON / CSV serialisation of experiment outputs.

Downstream users plot these tables; the renderers in the other modules
print them.  Exports are plain-stdlib (json/csv) and deterministic.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Iterable

from ..core.metrics import InferenceResult
from ..serving.metrics import ServingResult

if TYPE_CHECKING:
    # Annotation only: importing table3 loads every paper driver.
    from .table3 import Table3

RESULT_FIELDS = (
    "platform",
    "model",
    "batch_size",
    "latency_s",
    "average_power_w",
    "total_energy_j",
    "energy_per_bit_j",
    "traffic_bits",
    "reconfigurations",
)
"""Columns exported for every inference result."""


def result_to_dict(result: InferenceResult) -> dict:
    """Flatten one result to a JSON-safe dictionary."""
    record = {field: getattr(result, field) for field in RESULT_FIELDS}
    record["energy_breakdown_j"] = {
        "network_static": result.energy.network_static_j,
        "network_dynamic": result.energy.network_dynamic_j,
        "compute_static": result.energy.compute_static_j,
        "compute_dynamic": result.energy.compute_dynamic_j,
        "logic_static": result.energy.logic_static_j,
    }
    record["layer_timeline"] = [
        {
            "name": timing.name,
            "start_s": timing.start_s,
            "end_s": timing.end_s,
            "chiplets": list(timing.chiplets),
        }
        for timing in result.layer_timeline
    ]
    record["channel_utilization"] = [
        {
            "name": stat.name,
            "utilization": stat.utilization,
            "busy_time_s": stat.busy_time_s,
            "bits_transferred": stat.bits_transferred,
            "transfer_count": stat.transfer_count,
            "queue_length": stat.queue_length,
        }
        for stat in result.channel_stats
    ]
    return record


def results_to_json(results: Iterable[InferenceResult],
                    indent: int = 2) -> str:
    """Serialise results to a JSON array."""
    return json.dumps([result_to_dict(r) for r in results], indent=indent)


def results_to_csv(results: Iterable[InferenceResult]) -> str:
    """Serialise the scalar columns of results to CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(RESULT_FIELDS)
    for result in results:
        writer.writerow([getattr(result, field) for field in RESULT_FIELDS])
    return buffer.getvalue()


SERVING_FIELDS = (
    "platform",
    "model",
    "controller",
    "router",
    "policy",
    "arrival_kind",
    "n_nodes",
    "offered_rps",
    "goodput_rps",
    "requests_injected",
    "requests_completed",
    "mean_batch_size",
    "mean_inflight",
    "mean_compute_utilization",
    "reconfigurations",
    "energy_per_request_j",
    "peak_channel_utilization",
    "saturated",
    "requests_shed",
    "requests_rerouted",
    "load_imbalance",
    "slo_violations",
    "slo_attainment",
    "time_degraded_s",
    "availability",
    "mttr_s",
    "retry_amplification",
    "hedge_win_rate",
    "wasted_attempts",
    "tokens_generated",
    "tokens_per_s",
    "kv_refusals",
    "decode_remaps",
)
"""Scalar columns exported for every serving result, one node or many."""


def _latency_dict(profile) -> dict:
    return {
        "mean": profile.mean_s,
        "p50": profile.p50_s,
        "p95": profile.p95_s,
        "p99": profile.p99_s,
        "max": profile.max_s,
    }


def _resilience_dict(stats) -> "dict | None":
    """The lifecycle ledger as a JSON record (``None`` when the run
    had no resilience layer)."""
    if stats is None:
        return None
    return {
        "requests": stats.requests,
        "attempts": stats.attempts,
        "retries": stats.retries,
        "hedges": stats.hedges,
        "hedge_wins": stats.hedge_wins,
        "timeouts": stats.timeouts,
        "cancelled": stats.cancelled,
        "gave_up": stats.gave_up,
        "budget_denied": stats.budget_denied,
        "retry_amplification": stats.retry_amplification,
        "hedge_win_rate": stats.hedge_win_rate,
        "wasted_attempts": stats.wasted_attempts,
        "retry_causes": dict(stats.retry_causes),
    }


def _fidelity_dict(report) -> "dict | None":
    """The hybrid-fidelity error-budget block (``None`` on classic
    full-DES results)."""
    if report is None:
        return None
    return {
        "mode_requested": report.mode_requested,
        "mode_used": report.mode_used,
        "error_budget": report.error_budget,
        "calibration_s": report.calibration_s,
        "calibration_requests": report.calibration_requests,
        "p50_rel_err": report.p50_rel_err,
        "p99_rel_err": report.p99_rel_err,
        "goodput_rel_err": report.goodput_rel_err,
        "ttft_rel_err": report.ttft_rel_err,
        "token_p99_rel_err": report.token_p99_rel_err,
        "within_budget": report.within_budget,
        "warm_forked": report.warm_forked,
    }


def _fidelity_csv_tail(result) -> list:
    """(mode_used, p99_rel_err, ttft_rel_err, token_p99_rel_err) CSV
    columns; blank on classic runs, and the sequence errors stay blank
    on single-step fluid runs."""
    if result.fidelity is None:
        return ["", "", "", ""]
    report = result.fidelity
    return [
        report.mode_used,
        report.p99_rel_err,
        report.ttft_rel_err if report.ttft_rel_err is not None else "",
        (report.token_p99_rel_err
         if report.token_p99_rel_err is not None else ""),
    ]


def _telemetry_dict(result) -> "dict | None":
    """The telemetry block: counters, histograms and the gauge time
    series (``None`` on untelemetered results)."""
    summary = result.telemetry
    if summary is None:
        return None
    ticks = summary.series.times()
    return {
        "policy": summary.policy_label,
        "sample_rate": summary.sample_rate,
        "sampled_requests": summary.sampled_requests,
        "total_requests": summary.total_requests,
        "span_count": summary.span_count,
        "instant_count": len(summary.instants),
        "counters": dict(summary.counters),
        "histograms": {
            name: [
                {"le": upper, "count": count}
                for upper, count in buckets
            ]
            for name, buckets in summary.histograms
        },
        "series": {
            name: [{"t_s": at_s, "value": value}
                   for at_s, value in zip(ticks, values)]
            for name, values in summary.series
        },
    }


def _incidents_list(incidents) -> list[dict]:
    """Per-incident availability records (empty when fault-free)."""
    return [
        {
            "node": incident.node,
            "start_s": incident.start_s,
            "detected_s": incident.detected_s,
            "end_s": incident.end_s,
            "repair_s": incident.repair_s,
            "detection_lag_s": incident.detection_lag_s,
            "resolved": incident.resolved,
        }
        for incident in incidents
    ]


def _fault_windows_list(windows) -> list[dict]:
    """Windowed before/during/after stats."""
    return [
        {
            "label": window.label,
            "start_s": window.start_s,
            "end_s": window.end_s,
            "completed": window.completed,
            "shed": window.shed,
            "slo_violations": window.slo_violations,
            "slo_attainment": window.slo_attainment,
            "goodput_rps": window.goodput_rps,
            "latency_s": _latency_dict(window.latency),
        }
        for window in windows
    ]


def _sequence_dict(result) -> "dict | None":
    """The autoregressive token-metric block (``None`` on single-step
    serving results)."""
    if not result.is_sequence_run:
        return None
    return {
        "ttft_s": _latency_dict(result.ttft) if result.ttft else None,
        "token_latency_s": (
            _latency_dict(result.token_latency)
            if result.token_latency else None
        ),
        "tokens_generated": result.tokens_generated,
        "tokens_per_s": result.tokens_per_s,
        "kv_refusals": result.kv_refusals,
        "kv_peak_bits": result.kv_peak_bits,
        "decode_remaps": result.decode_remaps,
    }


def _sequence_csv_tail(result) -> list:
    """(ttft_p50_s, ttft_p99_s, token_p99_s) columns; blank when the
    run produced no tokens."""
    if not result.is_sequence_run:
        return ["", "", ""]
    ttft = result.ttft
    token = result.token_latency
    return [
        ttft.p50_s if ttft else "",
        ttft.p99_s if ttft else "",
        token.p99_s if token else "",
    ]


def _per_model_list(per_model) -> list[dict]:
    """Per-tenant stat records."""
    return [
        {
            "model": stats.model,
            "slo_s": stats.slo_s,
            "completed": stats.completed,
            "shed": stats.shed,
            "quota_denied": stats.quota_denied,
            "slo_violations": stats.slo_violations,
            "slo_attainment": stats.slo_attainment,
            "goodput_rps": stats.goodput_rps,
            "latency_s": _latency_dict(stats.latency),
        }
        for stats in per_model
    ]


def serving_result_to_dict(result: ServingResult) -> dict:
    """Flatten one serving result to a JSON-safe dictionary."""
    record = {field: getattr(result, field) for field in SERVING_FIELDS}
    record["per_model"] = _per_model_list(result.per_model)
    record["latency_s"] = _latency_dict(result.latency)
    record["queue_delay_s"] = _latency_dict(result.queue_delay)
    record["per_node"] = [
        {
            "node": stats.node,
            "state": stats.state,
            "requests_completed": stats.requests_completed,
            "requests_shed": stats.requests_shed,
            "rerouted_away": stats.rerouted_away,
            "goodput_rps": stats.goodput_rps,
            "mean_compute_utilization": stats.mean_compute_utilization,
            "latency_s": _latency_dict(stats.latency),
        }
        for stats in result.per_node
    ]
    record["channel_utilization"] = [
        {
            "name": stat.name,
            "utilization": stat.utilization,
            "bits_transferred": stat.bits_transferred,
        }
        for stat in result.channel_stats
    ]
    record["hazard_events"] = [
        {
            "kind": event.kind,
            "start_s": event.start_s,
            "end_s": event.end_s,
            "memory_gateways_delta": event.memory_gateways_delta,
            "chiplet_gateways_delta": event.chiplet_gateways_delta,
            "wavelength_fraction": event.wavelength_fraction,
        }
        for event in result.hazard_events
    ]
    record["node_events"] = [
        {
            "kind": event.kind,
            "node": event.node,
            "at_s": event.at_s,
            "rerouted": event.rerouted,
        }
        for event in result.node_events
    ]
    record["fault_windows"] = _fault_windows_list(result.windows)
    record["resilience"] = _resilience_dict(result.resilience)
    record["incidents"] = _incidents_list(result.incidents)
    record["fidelity"] = _fidelity_dict(result.fidelity)
    record["sequence"] = _sequence_dict(result)
    record["telemetry"] = _telemetry_dict(result)
    return record


def study_results_to_json(results: Iterable[ServingResult],
                          indent: int = 2) -> str:
    """Serialise a serving sweep to a JSON array."""
    return json.dumps(
        [serving_result_to_dict(r) for r in results], indent=indent
    )


_NODE_COLUMNS = (
    "node", "node_state", "node_completed", "node_shed",
    "node_rerouted_away", "node_goodput_rps", "node_utilization",
    "node_p99_s",
)

_CSV_HEADER = (
    SERVING_FIELDS
    + ("p50_s", "p95_s", "p99_s",
       "fidelity_mode", "fidelity_p99_err",
       "fidelity_ttft_err", "fidelity_token_p99_err",
       "ttft_p50_s", "ttft_p99_s", "token_p99_s")
    + _NODE_COLUMNS
)


def study_results_to_csv(results: Iterable[ServingResult]) -> str:
    """Serialise a serving sweep to CSV: scalars plus tail latencies.

    Long format: a point a router served adds one row per node after
    its aggregate row (the ``node`` columns are empty on aggregate
    rows), so a single-node point stays one row.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_CSV_HEADER)
    for result in results:
        row = (
            [getattr(result, field) for field in SERVING_FIELDS]
            + [result.latency.p50_s, result.latency.p95_s,
               result.latency.p99_s]
            + _fidelity_csv_tail(result)
            + _sequence_csv_tail(result)
        )
        writer.writerow(row + [""] * len(_NODE_COLUMNS))
        if result.router == "-":
            continue
        for stats in result.per_node:
            writer.writerow(
                row
                + [stats.node, stats.state, stats.requests_completed,
                   stats.requests_shed, stats.rerouted_away,
                   stats.goodput_rps, stats.mean_compute_utilization,
                   stats.latency.p99_s]
            )
    return buffer.getvalue()


def table3_to_csv(table: Table3) -> str:
    """Serialise a regenerated Table 3 to CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(("platform", "power_w", "latency_ms", "epb_nj_per_bit"))
    for row in table.rows:
        writer.writerow(
            (row.platform, row.power_w, row.latency_ms, row.epb_nj_per_bit)
        )
    return buffer.getvalue()


def write_text(path: str, content: str) -> None:
    """Write an export to disk."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)

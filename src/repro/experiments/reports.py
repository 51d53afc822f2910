"""Text reports of serving results: the tables ``repro study`` prints.

They read :class:`~repro.serving.metrics.ServingResult` fields only, so
rendering a study served from the cache loads no simulation layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from ..serving.metrics import ServingResult


def render_slo_summary(results: Sequence[ServingResult],
                       labels: Sequence[str]) -> str:
    """Per-tenant SLO table: one row per (point, model), each ending in
    its point's label.

    Empty string when no result carries per-model stats (classic
    latency–throughput sweeps), so callers can append unconditionally.
    """
    rows = [
        (result, label, stats)
        for result, label in zip(results, labels)
        for stats in result.per_model
    ]
    if not rows:
        return ""
    header = (
        f"{'policy':<16}{'offered/s':>12}  {'model':<18}{'slo(us)':>9}"
        f"{'done':>7}{'shed':>6}{'viol':>6}{'attain':>9}{'p99(us)':>10}"
        "  point"
    )
    lines = [header, "-" * len(header)]
    for result, label, stats in rows:
        slo = "-" if stats.slo_s is None else f"{stats.slo_s * 1e6:.0f}"
        lines.append(
            f"{result.policy:<16}{result.offered_rps:>12.0f}  "
            f"{stats.model:<18}{slo:>9}"
            f"{stats.completed:>7}{stats.shed:>6}{stats.slo_violations:>6}"
            f"{stats.slo_attainment:>9.2%}"
            f"{stats.latency.p99_s * 1e6:>10.1f}  {label}"
        )
    return "\n".join(lines)


def render_sequence_summary(results: Sequence[ServingResult],
                            labels: Sequence[str]) -> str:
    """Autoregressive serving table: one row per sequence-serving point,
    each ending in its point's label.

    Empty string when no result carries token metrics (single-step
    runs), so callers can append unconditionally.
    """
    rows = [
        (result, label)
        for result, label in zip(results, labels)
        if result.is_sequence_run
    ]
    if not rows:
        return ""
    header = (
        f"{'policy':<16}{'offered/s':>12}  {'mix':<26}"
        f"{'ttft p50(us)':>13}{'ttft p99(us)':>13}{'tok p99(us)':>12}"
        f"{'tokens':>9}{'tok/s':>11}{'kv-ref':>7}{'remaps':>7}  point"
    )
    lines = [header, "-" * len(header)]
    for result, label in rows:
        ttft = result.ttft
        token = result.token_latency
        lines.append(
            f"{result.policy:<16}{result.offered_rps:>12.0f}  "
            f"{result.model:<26}"
            f"{(ttft.p50_s * 1e6 if ttft else 0):>13.1f}"
            f"{(ttft.p99_s * 1e6 if ttft else 0):>13.1f}"
            f"{(token.p99_s * 1e6 if token else 0):>12.1f}"
            f"{result.tokens_generated:>9}"
            f"{result.tokens_per_s:>11.0f}"
            f"{result.kv_refusals:>7}"
            f"{result.decode_remaps:>7}  {label}"
        )
    return "\n".join(lines)


def render_fault_windows(results: Sequence[ServingResult],
                         labels: Sequence[str]) -> str:
    """Windowed degradation table: one row per (point, window), each
    ending in its point's label.

    Empty string when no result carries fault windows (fault-free
    runs), so callers can append unconditionally.
    """
    labelled = [
        (result, label)
        for result, label in zip(results, labels)
        if result.windows
    ]
    if not labelled:
        return ""
    header = (
        f"{'policy':<16}{'offered/s':>12}  {'window':<8}{'span(us)':>16}"
        f"{'done':>7}{'shed':>6}{'goodput/s':>12}{'p99(us)':>10}"
        f"{'attain':>9}  point"
    )
    lines = [header, "-" * len(header)]
    for result, label in labelled:
        for window in result.windows:
            span = (
                f"{window.start_s * 1e6:.0f}-{window.end_s * 1e6:.0f}"
            )
            lines.append(
                f"{result.policy:<16}{result.offered_rps:>12.0f}  "
                f"{window.label:<8}{span:>16}"
                f"{window.completed:>7}{window.shed:>6}"
                f"{window.goodput_rps:>12.0f}"
                f"{window.latency.p99_s * 1e6:>10.1f}"
                f"{window.slo_attainment:>9.2%}  {label}"
            )
    for result, label in labelled:
        lines.append(
            f"{result.policy:<16}{result.offered_rps:>12.0f}  "
            f"time degraded: {result.time_degraded_s * 1e6:.0f} us "
            f"({result.platform}, {result.controller})  {label}"
        )
    return "\n".join(lines)


def render_serving_study(results: Sequence[ServingResult],
                         labels: Sequence[str]) -> str:
    """Text latency–throughput table, one row per simulated point, each
    ending in its point's label.

    Points a router served add one row per node beneath their own:
    final state, completed and shed counts, goodput, latency, MAC
    utilization and the requests rerouted away from it.
    """
    header = (
        f"{'platform':<28}{'policy':<12}{'router':<18}{'nodes':>6}"
        f"{'offered/s':>12}{'goodput/s':>12}"
        f"{'p50(us)':>11}{'p95(us)':>11}{'p99(us)':>11}{'util':>8}"
        f"{'mac':>7}{'imbal':>7}{'rerouted':>9}"
    )
    # Five columns past the header hold the saturation flag.
    row_width = len(header) + 5
    header = f"{header:<{row_width}}  point"
    lines = [header, "-" * len(header)]
    ordered = sorted(
        zip(results, labels),
        key=lambda pair: (
            pair[0].platform, pair[0].controller, pair[0].policy,
            pair[0].router, pair[0].n_nodes, pair[0].offered_rps,
        ),
    )
    for result, point in ordered:
        lines.append(f"{result.summary_row():<{row_width}}  {point}")
        if result.router == "-":
            continue
        for stats in result.per_node:
            label = (f"  {stats.node} {stats.state}: "
                     f"{stats.requests_completed} done, "
                     f"{stats.requests_shed} shed")
            # The label spans the platform..offered/s columns (76).
            lines.append(
                f"{label:<76}{stats.goodput_rps:>12.0f}"
                f"{stats.latency.p50_s * 1e6:>11.1f}"
                f"{stats.latency.p95_s * 1e6:>11.1f}"
                f"{stats.latency.p99_s * 1e6:>11.1f}{'':>8}"
                f"{stats.mean_compute_utilization:>7.2f}{'':>7}"
                f"{stats.rerouted_away:>9}"
            )
    return "\n".join(lines)

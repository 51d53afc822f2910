"""Span recording and Chrome trace-event export.

A :class:`TraceRecorder` collects typed spans (sim-time begin/end on a
named track) and instant events while a serving simulation runs.  The
instrumented layers — scheduler, engine, residency, lifecycle, router —
hold an optional recorder reference that is ``None`` on the untraced
path, so the cost of an unarmed run is one attribute comparison per
instrumentation point.

Tracks map onto Chrome trace-event *threads*: one track per sampled
request (its queue wait, execution, prefill and decode nest on it), one
per lifecycle attempt (hedged attempts overlap, so each physical
attempt needs its own timeline), and one per shared facility (the
decode pool, the router).  :func:`chrome_trace_json` renders matched
``B``/``E`` duration pairs plus ``i`` instants and ``C`` counter
samples — the JSON loads directly in Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from ..errors import SimulationError

_KNUTH = 2654435761
"""Multiplicative hash constant: deterministic, seedless per-request
sampling that is identical across worker processes."""


@dataclass(frozen=True, slots=True)
class Span:
    """One closed span: ``name`` ran on ``track`` over [begin, end]."""

    track: str
    name: str
    begin_s: float
    end_s: float
    depth: int = 0
    args: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True, slots=True)
class Instant:
    """One point event on a track (a routing decision, a retry, ...)."""

    track: str
    name: str
    at_s: float
    args: tuple[tuple[str, Any], ...] = ()


def _freeze_args(args: Mapping[str, Any] | None) -> tuple:
    if not args:
        return ()
    return tuple(sorted(args.items()))


@dataclass
class TraceRecorder:
    """Collects spans/instants in sim time; owned by one simulation.

    ``begin``/``end`` follow stack discipline per track (spans on one
    track must nest); ``add`` records an already-closed span whose
    bounds the instrumentation site knows post hoc (e.g. the queue-wait
    span, closed at dispatch).  Depth is tracked so the exporter can
    order same-timestamp begin/end events consistently.
    """

    env: Any
    sample_rate: float = 1.0
    spans: list[Span] = field(default_factory=list)
    instants: list[Instant] = field(default_factory=list)
    sampled_requests: int = 0
    _open: dict[str, list[tuple[str, float, tuple]]] = field(
        default_factory=dict
    )

    def sampled(self, request_id: int) -> bool:
        """Whether this request's lifecycle is traced (deterministic)."""
        if self.sample_rate >= 1.0:
            return True
        bucket = ((request_id * _KNUTH) & 0xFFFFFFFF) / 4294967296.0
        return bucket < self.sample_rate

    def note_sampled(self) -> None:
        """Count one request admitted into the trace."""
        self.sampled_requests += 1

    def begin(self, track: str, name: str,
              args: Mapping[str, Any] | None = None) -> None:
        """Open a span on ``track`` at the current sim time."""
        stack = self._open.setdefault(track, [])
        stack.append((name, self.env.now, _freeze_args(args)))

    def end(self, track: str) -> None:
        """Close the innermost open span on ``track``."""
        stack = self._open.get(track)
        if not stack:
            raise SimulationError(
                f"TraceRecorder.end on track {track!r} with no open span"
            )
        name, begin_s, args = stack.pop()
        self.spans.append(Span(
            track=track, name=name, begin_s=begin_s, end_s=self.env.now,
            depth=len(stack), args=args,
        ))

    def add(self, track: str, name: str, begin_s: float, end_s: float,
            depth: int = 0, args: Mapping[str, Any] | None = None) -> None:
        """Record an already-closed span with known bounds."""
        self.spans.append(Span(
            track=track, name=name, begin_s=begin_s, end_s=end_s,
            depth=depth, args=_freeze_args(args),
        ))

    def instant(self, track: str, name: str,
                args: Mapping[str, Any] | None = None) -> None:
        """Record a point event on ``track`` at the current sim time."""
        self.instants.append(Instant(
            track=track, name=name, at_s=self.env.now,
            args=_freeze_args(args),
        ))

    def close_open_spans(self) -> None:
        """Close any span still open (a request alive at window end)."""
        for track in sorted(self._open):
            while self._open[track]:
                self.end(track)
        self._open.clear()


# ---------------------------------------------------------------------------
# Chrome trace-event export.
# ---------------------------------------------------------------------------


def chrome_trace_events(
    summaries: Sequence[tuple[str, Any]],
) -> list[dict[str, Any]]:
    """Chrome trace events for one or more telemetry summaries.

    ``summaries`` is ``[(process_label, TelemetrySummary), ...]`` — each
    summary becomes one trace *process* (pid) so multi-cell studies load
    as side-by-side processes in Perfetto.  Duration spans render as
    matched ``B``/``E`` pairs, instants as ``i`` events and metric
    series as ``C`` counters; timestamps are sim time in microseconds.
    """
    events: list[dict[str, Any]] = []
    for pid, (label, summary) in enumerate(summaries):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
        tids: dict[str, int] = {}

        def tid_of(track: str, tids=tids, pid=pid) -> int:
            tid = tids.get(track)
            if tid is None:
                tid = tids[track] = len(tids) + 1
                events.append({
                    "name": "thread_name", "ph": "M", "pid": pid,
                    "tid": tid, "args": {"name": track},
                })
            return tid

        # B/E pairs cannot be sorted independently — a zero-width span
        # would close before it opens.  Each track's sequence is instead
        # rebuilt by an interval walk: spans sorted outermost-first, a
        # stack closing every span that ends at-or-before the next
        # span's begin (so an E at t precedes an unrelated B at t while
        # a span still covering t stays open around it).
        by_track: dict[str, list] = {}
        for span in summary.spans:
            by_track.setdefault(span.track, []).append(span)
        timed: list[tuple[tuple, dict[str, Any]]] = []
        for track, spans in by_track.items():
            tid = tid_of(track)
            spans.sort(key=lambda s: (s.begin_s, -s.end_s, s.depth))
            sequence = 0
            stack: list = []

            def close(span, tid=tid) -> dict[str, Any]:
                return {"name": span.name, "ph": "E", "pid": pid,
                        "tid": tid, "ts": span.end_s * 1e6}

            for span in spans:
                while stack and stack[-1].end_s <= span.begin_s:
                    top = stack.pop()
                    timed.append((
                        (tid, top.end_s * 1e6, 0, sequence), close(top)
                    ))
                    sequence += 1
                timed.append((
                    (tid, span.begin_s * 1e6, 0, sequence),
                    {"name": span.name, "ph": "B", "pid": pid,
                     "tid": tid, "ts": span.begin_s * 1e6,
                     "args": dict(span.args)},
                ))
                sequence += 1
                stack.append(span)
            while stack:
                top = stack.pop()
                timed.append((
                    (tid, top.end_s * 1e6, 0, sequence), close(top)
                ))
                sequence += 1
        for inst in summary.instants:
            tid = tid_of(inst.track)
            at_us = inst.at_s * 1e6
            timed.append((
                (tid, at_us, 1, 0),
                {"name": inst.name, "ph": "i", "s": "t", "pid": pid,
                 "tid": tid, "ts": at_us, "args": dict(inst.args)},
            ))
        timed.sort(key=lambda item: item[0])
        events.extend(event for _, event in timed)
        for name, samples in summary.series:
            tid = tid_of(name)
            for at_s, value in samples:
                events.append({
                    "name": name, "ph": "C", "pid": pid, "tid": tid,
                    "ts": at_s * 1e6, "args": {"value": value},
                })
    return events


def chrome_trace_json(summaries: Sequence[tuple[str, Any]]) -> str:
    """The full Chrome trace-event JSON document for ``summaries``."""
    return json.dumps(
        {"traceEvents": chrome_trace_events(summaries),
         "displayTimeUnit": "ns"},
        indent=None, separators=(",", ":"),
    )


def validate_chrome_trace(events: Iterable[Mapping[str, Any]]) -> None:
    """Raise :class:`SimulationError` unless ``events`` is well formed.

    Checks the invariants Perfetto needs: every ``B`` has a matching
    same-name ``E`` on its (pid, tid) track, stack discipline holds, and
    per-track timestamps are monotone non-decreasing.  Used by the
    trace-schema tests and usable against any loaded trace file.
    """
    stacks: dict[tuple, list[tuple[str, float]]] = {}
    last_ts: dict[tuple, float] = {}
    for event in events:
        phase = event.get("ph")
        if phase not in ("B", "E", "i", "C", "M"):
            raise SimulationError(f"unknown trace event phase {phase!r}")
        if phase == "M":
            continue
        key = (event.get("pid"), event.get("tid"))
        ts = float(event["ts"])
        if ts < last_ts.get(key, float("-inf")):
            raise SimulationError(
                f"non-monotone timestamps on track {key}: {ts} after "
                f"{last_ts[key]}"
            )
        last_ts[key] = ts
        if phase == "B":
            stacks.setdefault(key, []).append((event["name"], ts))
        elif phase == "E":
            stack = stacks.get(key)
            if not stack:
                raise SimulationError(
                    f"unmatched E event {event.get('name')!r} on {key}"
                )
            name, begin_ts = stack.pop()
            if name != event["name"]:
                raise SimulationError(
                    f"mismatched span nesting on {key}: E "
                    f"{event['name']!r} closes B {name!r}"
                )
            if ts < begin_ts:
                raise SimulationError(
                    f"span {name!r} on {key} ends before it begins"
                )
    dangling = {key: stack for key, stack in stacks.items() if stack}
    if dangling:
        raise SimulationError(
            f"unclosed B events on tracks: {sorted(dangling)}"
        )

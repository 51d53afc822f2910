"""Span recording and Chrome trace-event export.

A :class:`TraceRecorder` collects typed spans (sim-time begin/end on a
named track) and instant events while a serving simulation runs.  The
instrumented layers — scheduler, engine, residency, lifecycle, router —
hold an optional recorder reference that is ``None`` on the untraced
path, so the cost of an unarmed run is one attribute comparison per
instrumentation point.

Storage is columnar.  Each record is appended straight into typed
columns: ``array('d')`` sim times, ``array('i')`` nesting depth, and
``array('i')`` indexes into intern tables of the tracks, names and
frozen ``args`` tuples its kind has seen, in first-seen order.  A run
therefore keeps no per-record Python object, and the records of one
cell cost a few dozen bytes each.  :meth:`TraceRecorder.freeze_spans`
and :meth:`TraceRecorder.freeze_instants` copy the columns into an
immutable :class:`SpanTable` / :class:`InstantTable` (``bytes``
columns, tuple intern tables) that rides through the result cache;
iterating a table yields one :class:`Span` / :class:`Instant` row per
record, built on access.

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
from array import array
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..errors import SimulationError

_KNUTH = 2654435761
"""Multiplicative hash constant: deterministic, seedless per-request
sampling that is identical across worker processes."""

_INDEX = "i"
"""Typecode of the integer columns: intern-table indexes and depth."""

_TIME = "d"
"""Typecode of the sim-time columns."""


def _column(data: bytes, typecode: str) -> memoryview:
    """Read-only typed view of one frozen column (native byte order)."""
    return memoryview(data).cast(typecode)


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


@dataclass(frozen=True)
class _Table:
    """The columns every record kind shares: interned track, name and
    ``args``.

    ``tracks``, ``names`` and ``args`` are the intern tables in
    first-seen order; ``track_ids``, ``name_ids`` and ``args_ids`` hold
    each record's index into them.  Numeric columns are ``bytes`` so a
    table is immutable, hashable and equal after a pickle round trip.
    """

    NUMBERS = ()
    """``(field, typecode)`` of the kind's numeric columns, in the
    order of :attr:`_Columns.numbers`."""

    tracks: tuple[str, ...] = ()
    names: tuple[str, ...] = ()
    args: tuple[tuple[tuple[str, Any], ...], ...] = ()
    track_ids: bytes = b""
    name_ids: bytes = b""
    args_ids: bytes = b""

    def __len__(self) -> int:
        return len(_column(self.track_ids, _INDEX))

    def _tags(self) -> Iterator[tuple[str, str, tuple]]:
        """``(track, name, args)`` of every record, recording order."""
        tracks, names, args = self.tracks, self.names, self.args
        for track, name, arg in zip(_column(self.track_ids, _INDEX),
                                    _column(self.name_ids, _INDEX),
                                    _column(self.args_ids, _INDEX)):
            yield tracks[track], names[name], args[arg]


@dataclass(frozen=True)
class SpanTable(_Table):
    """Every closed span of one cell, one column per field."""

    NUMBERS = (("begin_s", _TIME), ("end_s", _TIME), ("depth", _INDEX))

    begin_s: bytes = b""
    end_s: bytes = b""
    depth: bytes = b""

    def __iter__(self) -> Iterator[Span]:
        for (track, name, args), begin_s, end_s, depth in zip(
            self._tags(), _column(self.begin_s, _TIME),
            _column(self.end_s, _TIME), _column(self.depth, _INDEX),
        ):
            yield Span(track, name, begin_s, end_s, depth, args)


@dataclass(frozen=True)
class InstantTable(_Table):
    """Every instant event of one cell, one column per field."""

    NUMBERS = (("at_s", _TIME),)

    at_s: bytes = b""

    def __iter__(self) -> Iterator[Instant]:
        for (track, name, args), at_s in zip(self._tags(),
                                              _column(self.at_s, _TIME)):
            yield Instant(track, name, at_s, args)


class _Columns:
    """The growing twin of one frozen table: intern tables plus typed
    columns that records append into.

    An intern table is a dict from value to index; its insertion order
    is first-seen order, so two runs of one cell freeze equal tables.
    :meth:`append` interns a record's track, name and ``args`` with one
    dict lookup each when they were seen before; the recorder appends
    the record's numbers to :attr:`numbers` itself, one column per
    field of the table's ``NUMBERS``.
    """

    __slots__ = ("_table", "_tracks", "_names", "_args", "_arg_values",
                 "_track_ids", "_name_ids", "_args_ids", "numbers")

    def __init__(self, table: type[_Table]) -> None:
        self._table = table
        self._tracks: dict[str, int] = {}
        self._names: dict[str, int] = {}
        # Keyed by repr, because 1, 1.0 and True are one dict key but
        # each exports differently; the empty ``args`` (most records)
        # key as themselves, with no repr.
        self._args: dict[Any, int] = {}
        self._arg_values: list[tuple] = []
        self._track_ids = array(_INDEX)
        self._name_ids = array(_INDEX)
        self._args_ids = array(_INDEX)
        self.numbers = tuple(array(code) for _, code in table.NUMBERS)

    def append(self, track: str, name: str, args: tuple) -> None:
        tracks = self._tracks
        index = tracks.get(track)
        if index is None:
            index = tracks[track] = len(tracks)
        self._track_ids.append(index)
        names = self._names
        index = names.get(name)
        if index is None:
            index = names[name] = len(names)
        self._name_ids.append(index)
        key = repr(args) if args else ()
        interned = self._args
        index = interned.get(key)
        if index is None:
            index = interned[key] = len(interned)
            self._arg_values.append(args)
        self._args_ids.append(index)

    def freeze(self) -> _Table:
        numbers = {
            field_name: column.tobytes()
            for (field_name, _), column in zip(self._table.NUMBERS,
                                               self.numbers)
        }
        return self._table(
            tracks=tuple(self._tracks),
            names=tuple(self._names),
            args=tuple(self._arg_values),
            track_ids=self._track_ids.tobytes(),
            name_ids=self._name_ids.tobytes(),
            args_ids=self._args_ids.tobytes(),
            **numbers,
        )


class TraceRecorder:
    """Collects spans/instants in sim time; owned by one simulation.

    ``begin``/``end`` follow stack discipline per track (spans on one
    track must nest); ``add`` records an already-closed span whose
    bounds the instrumentation site knows post hoc (e.g. the queue-wait
    span, closed at dispatch).  Depth is tracked so the exporter can
    order same-timestamp begin/end events consistently.
    """

    def __init__(self, env: Any, sample_rate: float = 1.0) -> None:
        self.env = env
        self.sample_rate = sample_rate
        self.sampled_requests = 0
        self._spans = _Columns(SpanTable)
        self._instants = _Columns(InstantTable)
        self._begins, self._ends, self._depths = self._spans.numbers
        (self._instant_times,) = self._instants.numbers
        self._open: dict[str, list[tuple[str, float, tuple]]] = {}

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
        self._spans.append(track, name, args)
        self._begins.append(begin_s)
        self._ends.append(self.env.now)
        self._depths.append(len(stack))

    def add(self, track: str, name: str, begin_s: float, end_s: float,
            depth: int = 0, args: Mapping[str, Any] | None = None) -> None:
        """Record an already-closed span with known bounds."""
        self._spans.append(track, name, _freeze_args(args))
        self._begins.append(begin_s)
        self._ends.append(end_s)
        self._depths.append(depth)

    def instant(self, track: str, name: str,
                args: Mapping[str, Any] | None = None) -> None:
        """Record a point event on ``track`` at the current sim time."""
        self._instants.append(track, name, _freeze_args(args))
        self._instant_times.append(self.env.now)

    def close_open_spans(self) -> None:
        """Close any span still open (a request alive at window end)."""
        for track in sorted(self._open):
            while self._open[track]:
                self.end(track)
        self._open.clear()

    def freeze_spans(self) -> SpanTable:
        """The closed spans so far as an immutable table."""
        return self._spans.freeze()

    def freeze_instants(self) -> InstantTable:
        """The instants so far as an immutable table."""
        return self._instants.freeze()


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
        spans = summary.spans
        names, args = spans.names, spans.args
        name_ids = _column(spans.name_ids, _INDEX)
        args_ids = _column(spans.args_ids, _INDEX)
        begins = _column(spans.begin_s, _TIME)
        ends = _column(spans.end_s, _TIME)
        depths = _column(spans.depth, _INDEX)
        # Record indexes grouped by track, tracks in first-seen order.
        by_track: dict[int, list[int]] = {}
        for index, track_id in enumerate(_column(spans.track_ids, _INDEX)):
            by_track.setdefault(track_id, []).append(index)
        timed: list[tuple[tuple, dict[str, Any]]] = []
        for track_id, indexes in by_track.items():
            tid = tid_of(spans.tracks[track_id])
            indexes.sort(key=lambda i: (begins[i], -ends[i], depths[i]))
            sequence = 0
            stack: list[int] = []

            def close(index: int, tid=tid) -> dict[str, Any]:
                return {"name": names[name_ids[index]], "ph": "E",
                        "pid": pid, "tid": tid, "ts": ends[index] * 1e6}

            for index in indexes:
                begin_s = begins[index]
                while stack and ends[stack[-1]] <= begin_s:
                    top = stack.pop()
                    timed.append((
                        (tid, ends[top] * 1e6, 0, sequence), close(top)
                    ))
                    sequence += 1
                timed.append((
                    (tid, begin_s * 1e6, 0, sequence),
                    {"name": names[name_ids[index]], "ph": "B", "pid": pid,
                     "tid": tid, "ts": begin_s * 1e6,
                     "args": dict(args[args_ids[index]])},
                ))
                sequence += 1
                stack.append(index)
            while stack:
                top = stack.pop()
                timed.append((
                    (tid, ends[top] * 1e6, 0, sequence), close(top)
                ))
                sequence += 1
        instants = summary.instants
        for (track, name, inst_args), at_s in zip(
            instants._tags(), _column(instants.at_s, _TIME)
        ):
            tid = tid_of(track)
            at_us = at_s * 1e6
            timed.append((
                (tid, at_us, 1, 0),
                {"name": name, "ph": "i", "s": "t", "pid": pid,
                 "tid": tid, "ts": at_us, "args": dict(inst_args)},
            ))
        timed.sort(key=lambda item: item[0])
        events.extend(event for _, event in timed)
        ticks = summary.series.times()
        for name, values in summary.series:
            tid = tid_of(name)
            for at_s, value in zip(ticks, values):
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

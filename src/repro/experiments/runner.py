"""Experiment orchestration: every simulation is a cell run by one driver.

An :class:`InferenceCell` (one isolated inference) or a
:class:`~repro.experiments.serving_cell.ServingCell` (one serving
window) is a frozen description of a whole simulation, and
:func:`run_cached` is the one driver every study runs its cells
through:

* a **persistent on-disk result cache** (``cache_dir``) keyed by
  :func:`fields_key` — a content hash of every field of the cell —
  so repeated benchmark/figure invocations across processes never
  re-simulate identical cells;
* a **process-pool fan-out** (``jobs=N``) for cold cells — every cell is
  an independent simulation in a fresh :class:`Environment`, so parallel
  results are bit-identical to serial ones.

:class:`ExperimentRunner` adds an in-memory memo on top, so Fig. 7 and
Table 3 share runs within one process.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..config import DEFAULT_PLATFORM, PlatformConfig
from ..dnn import zoo
from ..errors import UnknownNameError
from ..studies.faults import hazard_timeline
from ..studies.registry import MODELS, PLATFORMS
from ..studies.spec import FaultSpec

if TYPE_CHECKING:
    from ..core.metrics import InferenceResult
    from ..dnn.quantization import QuantizationConfig
    from ..dnn.workload import InferenceWorkload

MODEL_NAMES = zoo.TABLE2_MODELS
"""Table 2 model names in paper order."""

PLATFORM_ORDER = (
    "CrossLight",
    "2.5D-CrossLight-Elec",
    "2.5D-CrossLight-SiPh",
)
"""The three simulated platforms, Table 3 order."""

CACHE_SCHEMA_VERSION = 10
"""Bump whenever simulation semantics or the cached result layout
change so stale cached results are never served for new code.

Version 2: every cell kind keys by :func:`fields_key`, so every cached
result re-simulates once.

Version 3: the electrical mesh moves chunks through relay stages that
request their channel the instant a chunk arrives, so requests tied at
one instant queue in a new order and mesh results move (by at most
2e-6 relative on the model zoo).

Version 4: fleets and single nodes share one ``ServingResult`` layout
(fleet fields on every result), so every cached serving result
re-simulates once.

Version 5: telemetry ``Span`` and ``Instant`` records are slotted.  A
version-4 pickle stores them as instance dicts, which a slotted class
loads without error but with every field set to its own name, so each
cached result carrying telemetry must re-simulate.

Version 6: a telemetry summary stores its spans, instants and gauge
samples as typed columns (``SpanTable``, ``InstantTable``,
``GaugeSeries``) instead of one record object per span or sample, so
each cached result carrying telemetry must re-simulate.

Version 7: ``time_degraded_s`` is the union of platform hazards, compute
hazards and node incidents, so a fleet that lost a node no longer reads
0 and overlapping hazards count once.

Version 8: DES and fluid cells reduce one request table: ``per_model``
lists every tenant in mix order, fluid means sum in row order, drained
nodes count as degraded, fluid availability follows the DES definition,
and a fleet's channel stats carry their node's name.

Version 9: SiPh power signals integrate only on change, so photonic
energies move in their last bits (at most 3.6e-14 relative over the
model zoo); a fault-free cell carries the falsy ``FaultSpec()`` in
place of ``None``, so every cell key moves.

Version 10: a comb share applied while a memory-channel PCMC increase
is still switching supersedes the increase, so a result whose
controller hit that case moves; channel and hazard records live in
:mod:`repro.records`, so every cached pickle names a new module."""


# ---------------------------------------------------------------------------
# Content-hash cache keys.
# ---------------------------------------------------------------------------


def config_digest(config: PlatformConfig) -> str:
    """Stable content hash of a platform configuration.

    Hashes the JSON of every dataclass field (nested MAC groups
    included), so two configs with equal contents share a digest no
    matter how they were constructed.
    """
    payload = json.dumps(asdict(config), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cell_key(platform_name: str, model_name: str, controller: str,
             config: PlatformConfig,
             extra: dict[str, Any] | None = None) -> str:
    """Content hash of a platform, model, controller and config.

    ``extra`` extends the hash with everything else that identifies a
    simulation; :func:`fields_key` passes every other cell field.
    """
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "platform": platform_name,
            "model": model_name,
            "controller": controller,
            "config": asdict(config),
            "extra": extra or {},
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _key_value(value):
    """A cell field as JSON-able data: spec sections as dicts, tuples
    element by element (a tuple of sections too), so no key depends on
    a ``repr``."""
    if is_dataclass(value):
        return asdict(value)
    if isinstance(value, tuple):
        return [_key_value(item) for item in value]
    return value


def fields_key(cell) -> str:
    """The one disk-cache key rule every cell kind shares.

    :func:`cell_key` hashes the config itself; every other field of the
    frozen cell goes into its ``extra`` under the cell's type name, so
    two cells share a key only when they are the same kind and every
    field matches.
    """
    return cell_key(
        cell.platform, cell.grid_label, cell.controller, cell.config,
        extra={
            type(cell).__name__: {
                entry.name: _key_value(getattr(cell, entry.name))
                for entry in fields(cell)
                if entry.name != "config"
            },
        },
    )


class ResultCache:
    """Persistent on-disk store of pickled results.

    One file per content-hash key; writes are atomic (temp file +
    ``os.replace``) so concurrent worker processes can share a cache
    directory safely.  Values are any picklable result record —
    :class:`InferenceResult` for the evaluation matrix,
    :class:`~repro.serving.metrics.ServingResult` for serving studies.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise NotADirectoryError(
                f"cache dir {self.directory} exists and is not a directory"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> Any | None:
        """The cached result for ``key``, or None on miss/corruption.

        A file that cannot be unpickled (truncated write, renamed
        classes, garbage bytes) is treated as a miss **and evicted**, so
        one bad entry cannot shadow its key forever.  I/O errors while
        reading (descriptor exhaustion, EIO) are transient, not
        corruption: they miss without deleting.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except (OSError, MemoryError):
            self.misses += 1
            return None
        except (EOFError, ValueError, TypeError, IndexError,
                ImportError, pickle.UnpicklingError, AttributeError):
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            self.evictions += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: Any) -> None:
        """Store a result under ``key`` (atomic, last-writer-wins)."""
        fd, temp_path = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, self._path(key))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))


# ---------------------------------------------------------------------------
# Cell simulation — module-level so the process pool can pickle it.
# ---------------------------------------------------------------------------


def build_platform(platform_name: str, config: PlatformConfig,
                   controller: str = "resipi", faults=None):
    """Construct a simulated platform by its registry (Table 3) name.

    Resolution goes through the platform registry, so unknown names
    fail with a typed did-you-mean error and externally registered
    platforms work everywhere this is called.  ``faults`` is an
    optional :class:`~repro.interposer.photonic.faults.HazardTimeline`
    the platform will attach in ``build_simulation``; platforms without
    a fault model reject it, and factories registered before the hazard
    engine existed only see it when one is actually passed.
    """
    factory = PLATFORMS.get(platform_name)
    if faults is None:
        return factory(config, controller)
    return factory(config, controller, faults=faults)


@dataclass(frozen=True)
class InferenceCell:
    """One isolated (batched) inference of one model on one platform.

    ``faults`` is a fabric fault section (SiPh only; the falsy
    default section when fault-free) and ``quantization`` the model's
    precision (the default 8-bit scheme when ``None``).  The worker
    reads nothing but these fields, so they are the cell's complete
    identity: :meth:`key` hashes all of them.
    """

    platform: str
    model: str
    controller: str
    config: PlatformConfig
    batch_size: int = 1
    faults: FaultSpec = FaultSpec()
    quantization: QuantizationConfig | None = None

    @property
    def grid_label(self) -> str:
        """Dry-run label: the model."""
        return self.model

    def key(self) -> str:
        """Disk-cache key: :func:`fields_key`."""
        return fields_key(self)


def simulate_inference_cell(cell: InferenceCell) -> InferenceResult:
    """Worker body: one full simulation of one inference cell."""
    # Loaded with the platform's module when the study was lowered.
    from ..dnn.workload import extract_workload

    platform = build_platform(
        cell.platform, cell.config, cell.controller,
        faults=hazard_timeline(cell.faults),
    )
    workload = extract_workload(MODELS.get(cell.model)(), cell.quantization)
    return platform.run_workload(workload, batch_size=cell.batch_size)


def parallel_map(fn: Callable, argument_tuples: Sequence[tuple],
                 jobs: int) -> list:
    """``[fn(*args) for args in argument_tuples]`` with process fan-out.

    The single pool-dispatch implementation every study shares: results
    come back in input order regardless of completion order, and
    ``jobs=1`` (or a single task) stays in-process.  ``fn`` and all
    arguments must be picklable module-level objects.
    """
    tasks = list(argument_tuples)
    if jobs > 1 and len(tasks) > 1:
        # Imported here: the pool pulls in multiprocessing and logging,
        # which a serial study never uses, and starting the workers
        # costs far more than the import.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, *args) for args in tasks]
            return [future.result() for future in futures]
    return [fn(*args) for args in tasks]


@dataclass
class CacheStats:
    """Mutable tally of one study run's cache behaviour.

    Pass an instance to :func:`run_cached` (studies thread it through
    from the CLI) and read it back after the run: ``hits`` cells served
    from disk, ``misses`` lookups that found nothing usable,
    ``evictions`` corrupt entries discarded during lookup, and
    ``simulated`` cells actually run (misses, plus every cell when no
    cache directory is configured).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    simulated: int = 0
    cell_times: list = field(default_factory=list)
    """Per-cell wall-time observations: ``(label, seconds, cache_hit)``
    tuples in input order — cache hits record the (tiny) lookup time,
    misses the actual simulate-seconds."""

    def merge(self, cache: "ResultCache", simulated: int) -> None:
        """Fold one cache's counters (and a fan-out tally) in."""
        self.hits += cache.hits
        self.misses += cache.misses
        self.evictions += cache.evictions
        self.simulated += simulated

    def record_cell(self, label: str, seconds: float, hit: bool) -> None:
        """Log one cell's wall time (hit = served from the disk cache)."""
        self.cell_times.append((label, seconds, hit))

    def slowest_cells(self, n: int = 5) -> list:
        """The ``n`` largest wall-time observations, slowest first."""
        return sorted(
            self.cell_times, key=lambda entry: entry[1], reverse=True
        )[:n]

    def render_slowest(self, n: int = 5) -> str:
        """Readable top-``n`` wall-time table (empty without data)."""
        rows = self.slowest_cells(n)
        if not rows:
            return ""
        lines = [f"slowest cells (top {len(rows)}):"]
        for label, seconds, hit in rows:
            tag = "  [cache hit]" if hit else ""
            lines.append(f"  {seconds * 1e3:9.1f} ms  {label}{tag}")
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line report: ``cache: 12 hits, 3 misses (3 simulated)``."""
        line = (
            f"cache: {self.hits} hit{'s' if self.hits != 1 else ''}, "
            f"{self.misses} miss{'es' if self.misses != 1 else ''} "
            f"({self.simulated} simulated)"
        )
        if self.evictions:
            line += f", {self.evictions} corrupt evicted"
        return line


def cell_label(cell, swept: str = "-") -> str:
    """Short human-readable identity of one simulation cell.

    Works across every cell kind without those types having to agree
    on a field set — this only feeds observability output.  ``swept``,
    the cell's grid point as :func:`~repro.studies.compile.point_label`
    renders it, ends the label, so two points of one sweep never share
    one; ``"-"`` (no sweep axes) adds nothing.
    """
    parts = []
    for name in ("platform", "mix_label", "model", "controller"):
        value = getattr(cell, name, "")
        if value and value not in parts:
            parts.append(str(value))
            if name in ("mix_label", "model") and len(parts) >= 2:
                break
    controller = getattr(cell, "controller", "")
    if controller and controller not in parts:
        parts.append(controller)
    policy = getattr(getattr(cell, "scheduler", None), "policy", "")
    if policy:
        parts.append(policy)
    rate = getattr(cell, "rate_rps", None)
    if rate:
        parts.append(f"{rate:g}rps")
    if swept != "-":
        parts.append(swept)
    return "/".join(parts) if parts else type(cell).__name__


def _timed_simulate(simulate_fn: Callable, cell) -> tuple[Any, float]:
    """Worker adapter: run one cell and report its wall time.

    Module-level so process pools can pickle it; the measured span is
    the worker-side simulate time, excluding pool dispatch overhead.
    """
    start = time.perf_counter()
    result = simulate_fn(cell)
    return result, time.perf_counter() - start


class CacheLookup:
    """One pass over the disk cache: which cells hit and which must run.

    Construction looks every cell up (by its ``key()``) and records the
    hits' wall times in ``stats`` under ``labels``; it needs nothing but
    the cells, so a caller can decide what to load for the misses
    (``pending``, indices in input order) before :meth:`fill` runs them.
    Without ``cache_dir`` every cell is pending.
    """

    def __init__(self, cells: Sequence, cache_dir: str | Path | None = None,
                 stats: CacheStats | None = None,
                 labels: Sequence[str] | None = None):
        self.cells = cells
        self.stats = stats
        self.labels = (
            [cell_label(cell) for cell in cells] if labels is None
            else labels
        )
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.results: list = [None] * len(cells)
        self.pending: list[int] = []
        for index, cell in enumerate(cells):
            lookup_start = time.perf_counter()
            hit = (
                self.cache.get(cell.key()) if self.cache is not None
                else None
            )
            if hit is not None:
                self.results[index] = hit
                if stats is not None:
                    stats.record_cell(
                        self.labels[index],
                        time.perf_counter() - lookup_start, hit=True,
                    )
            else:
                self.pending.append(index)

    def fill(self, simulate_fn: Callable | None, jobs: int = 1) -> list:
        """Simulate the pending cells — over worker processes when
        ``jobs > 1`` — back-fill the cache, fold the counters into
        ``stats`` and return every result in input order.
        ``simulate_fn`` is only called when some cell is pending."""
        cells, pending, stats = self.cells, self.pending, self.stats
        fresh = parallel_map(
            _timed_simulate, [(simulate_fn, cells[i]) for i in pending],
            jobs,
        )
        for index, (result, seconds) in zip(pending, fresh):
            self.results[index] = result
            if stats is not None:
                stats.record_cell(self.labels[index], seconds, hit=False)
            if self.cache is not None:
                self.cache.put(cells[index].key(), result)
        if stats is not None:
            if self.cache is not None:
                stats.merge(self.cache, simulated=len(pending))
            else:
                stats.simulated += len(pending)
        return self.results


def run_cached(cells: Sequence, simulate_fn: Callable, jobs: int = 1,
               cache_dir: str | Path | None = None,
               stats: CacheStats | None = None,
               labels: Sequence[str] | None = None) -> list:
    """``[simulate_fn(cell) for cell in cells]``, cached and parallel.

    The one cache-then-fan-out driver every study shares: resolves the
    disk cache first (by each cell's ``key()``), simulates only the misses —
    over worker processes when ``jobs > 1`` — then back-fills the
    cache.  ``simulate_fn`` and the cells must be picklable
    module-level objects; results come back in input order.  ``stats``,
    when given, accumulates the run's hit/miss/eviction counters and
    per-cell wall times under ``labels`` (default :func:`cell_label`).
    """
    return CacheLookup(cells, cache_dir, stats, labels).fill(
        simulate_fn, jobs
    )


# ---------------------------------------------------------------------------
# The runner.
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRunner:
    """Runs and caches inferences across the evaluation matrix.

    Every (platform, model) pair is an :class:`InferenceCell` run
    through :func:`run_cached`, memoised in memory for the runner's
    lifetime.  ``jobs`` sets the default process fan-out of
    :meth:`run_matrix`; ``cache_dir`` enables the persistent on-disk
    result cache.  :attr:`stats` tallies how much work the runner
    actually did (tests assert a warm cache re-run simulates nothing).
    """

    config: PlatformConfig = field(default_factory=lambda: DEFAULT_PLATFORM)
    controller: str = "resipi"
    jobs: int = 1
    cache_dir: str | Path | None = None
    stats: CacheStats = field(default_factory=CacheStats, init=False)
    _workloads: dict[str, InferenceWorkload] = field(default_factory=dict)
    _results: dict[tuple[str, str], InferenceResult] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def workload(self, model_name: str) -> InferenceWorkload:
        """Extract (and cache) the inference workload of a zoo model."""
        from ..dnn.workload import extract_workload

        if model_name not in self._workloads:
            self._workloads[model_name] = extract_workload(
                MODELS.get(model_name)()
            )
        return self._workloads[model_name]

    def _fill(self, pairs: Sequence[tuple[str, str]], jobs: int) -> None:
        """Simulate (or load) every pair the memo does not hold yet."""
        pending = [
            pair for pair in dict.fromkeys(pairs) if pair not in self._results
        ]
        if not pending:
            return
        cells = [
            InferenceCell(platform, model, self.controller, self.config)
            for platform, model in pending
        ]
        results = run_cached(
            cells, simulate_inference_cell, jobs=jobs,
            cache_dir=self.cache_dir, stats=self.stats,
        )
        self._results.update(zip(pending, results))

    def run(self, platform_name: str, model_name: str) -> InferenceResult:
        """Run one (platform, model) cell, cached (memory, then disk)."""
        key = (platform_name, model_name)
        self._fill([key], jobs=1)
        return self._results[key]

    def run_matrix(
        self,
        platforms: tuple[str, ...] = PLATFORM_ORDER,
        models: tuple[str, ...] = MODEL_NAMES,
        jobs: int | None = None,
    ) -> dict[tuple[str, str], InferenceResult]:
        """Run the full evaluation matrix; returns all cells.

        ``jobs`` overrides the runner default for this call.  Cold cells
        fan out over worker processes; every platform still validates
        eagerly (a bad name fails fast, as in serial mode).
        """
        for platform_name in platforms:
            if platform_name not in PLATFORM_ORDER:
                raise UnknownNameError(
                    "matrix platform", platform_name, PLATFORM_ORDER
                )
        pairs = [
            (platform_name, model_name)
            for platform_name in platforms
            for model_name in models
        ]
        self._fill(pairs, self.jobs if jobs is None else jobs)
        return {pair: self._results[pair] for pair in pairs}

    def average(self, platform_name: str, metric: str,
                models: tuple[str, ...] = MODEL_NAMES) -> float:
        """Average a result attribute across models for one platform."""
        values = [
            getattr(self.run(platform_name, model_name), metric)
            for model_name in models
        ]
        return sum(values) / len(values)

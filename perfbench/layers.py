"""Per-layer attribution for the traced run.

Self time comes from the stdlib profiler, started and stopped by the
benchmark around the cold study.  Each profiled function is charged to
the repository module that defines it; functions defined outside the
package (builtins such as ``heappop`` or ``dict.get``, the stdlib, numpy)
are charged to their callers' modules in proportion to the time each
caller spent in them.  Wrapping entry points in timers instead would
charge nearly everything to the kernel, which resumes every generator
and callback.

Counts come from :class:`Probe`, which wraps a few public methods for
the duration of the traced run and restores them afterwards.
"""

from __future__ import annotations

import pstats
from pathlib import Path

LAYERS = (
    "sim.core", "sim.resources", "sim.stats", "sim.traffic",
    "interposer.photonic.fabric", "interposer.photonic.controllers",
    "interposer.photonic.faults", "interposer.photonic.awgr",
    "interposer.electrical.mesh",
    "core.engine", "core.analytic", "core.crosslight",
    "mapping.mapper", "mapping.residency",
    "serving.scheduler", "serving.lifecycle", "serving.metrics",
    "cluster.router",
    "experiments.runner", "experiments.serving_study",
    "experiments.fidelity",
    "studies.compile", "studies.spec",
    "obs.trace", "obs.metrics",
    "dnn", "other",
)
"""Layers that get a ``<layer>.self_s`` metric; ``other`` takes every
repository module not listed and the benchmark's own frames."""


class Attribution:
    """Maps profiler entries onto :data:`LAYERS`."""

    def __init__(self, package_dir: Path):
        self.package_dir = package_dir.resolve()
        self._modules: dict[str, str | None] = {}

    def layer_of_file(self, filename: str) -> str | None:
        """The layer defining code in ``filename``; ``None`` outside the
        package (the caller's layer is charged instead)."""
        if filename not in self._modules:
            self._modules[filename] = self._classify(filename)
        return self._modules[filename]

    def _classify(self, filename: str) -> str | None:
        if filename.startswith(("~", "<")):
            return None
        path = Path(filename).resolve()
        if path.is_relative_to(self.package_dir.parent / "perfbench"):
            return "other"
        if not path.is_relative_to(self.package_dir):
            return None
        parts = path.relative_to(self.package_dir).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        dotted = ".".join(parts)
        for layer in LAYERS:
            if dotted == layer or dotted.startswith(layer + "."):
                return layer
        return "other"

    def self_times(self, stats: pstats.Stats) -> dict[str, float]:
        """Seconds of self time per layer (every layer present)."""
        table = stats.stats
        shares: dict = {}

        def share_of(func, visiting: frozenset) -> dict[str, float]:
            if func in shares:
                return shares[func]
            layer = self.layer_of_file(func[0])
            if layer is not None:
                return {layer: 1.0}
            callers = {
                caller: entry[2] for caller, entry in table[func][4].items()
                if caller != func and caller not in visiting
            }
            total = sum(callers.values())
            if total <= 0.0:
                result = {"other": 1.0}
            else:
                result: dict[str, float] = {}
                for caller, seconds in callers.items():
                    weight = seconds / total
                    for name, part in share_of(
                        caller, visiting | {func}
                    ).items():
                        result[name] = result.get(name, 0.0) + weight * part
            shares[func] = result
            return result

        totals = dict.fromkeys(LAYERS, 0.0)
        for func, (_, _, self_s, _, _) in table.items():
            for layer, part in share_of(func, frozenset()).items():
                totals[layer] = totals.get(layer, 0.0) + self_s * part
        return totals


class Probe:
    """Counting wrappers on public methods, installed for one traced run."""

    def __init__(self):
        self.counts = dict.fromkeys(
            ("transfers", "gateway_calls", "reconfigurations",
             "controller_epochs", "executions", "weight_fetches", "routed"),
            0,
        )
        self._events_done = 0
        self._env_sequence: dict[int, int] = {}
        self._saved: list = []

    @property
    def events(self) -> int:
        """Kernel insertions, summed over every environment seen."""
        return self._events_done + sum(self._env_sequence.values())

    def _patch(self, owner, name: str, make) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def _count(self, key: str):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def _reconfiguring(self, original):
        counts = self.counts

        def wrapper(fabric, *args, **kwargs):
            before = fabric.reconfiguration_count
            counts["gateway_calls"] += 1
            try:
                return original(fabric, *args, **kwargs)
            finally:
                counts["reconfigurations"] += (
                    fabric.reconfiguration_count - before
                )
        return wrapper

    def _fetching(self, original):
        counts = self.counts

        def wrapper(residency, *args, **kwargs):
            before = residency.fetches_issued
            try:
                return original(residency, *args, **kwargs)
            finally:
                counts["weight_fetches"] += (
                    residency.fetches_issued - before
                )
        return wrapper

    def _env_init(self, original):
        sequences = self._env_sequence

        def wrapper(env, *args, **kwargs):
            # A new environment at a recycled id means the old one is
            # gone: bank its final count before the slot is reused.
            self._events_done += sequences.pop(id(env), 0)
            original(env, *args, **kwargs)
        return wrapper

    def _env_run(self, original):
        sequences = self._env_sequence

        def wrapper(env, *args, **kwargs):
            try:
                return original(env, *args, **kwargs)
            finally:
                sequences[id(env)] = env._sequence
        return wrapper

    def install(self) -> None:
        from repro.cluster.router import ClusterRouter
        from repro.core.crosslight import MonolithicFabric
        from repro.core.engine import RequestExecution
        from repro.interposer.electrical.mesh import ElectricalMeshFabric
        from repro.interposer.photonic.awgr import AWGRInterposerFabric
        from repro.interposer.photonic.fabric import PhotonicInterposerFabric
        from repro.mapping.residency import WeightResidency
        from repro.sim.core import Environment
        from repro.sim.stats import EpochTrafficMonitor

        self._patch(Environment, "__init__", self._env_init)
        self._patch(Environment, "run", self._env_run)
        self._patch(Environment, "run_until_event", self._env_run)
        for fabric in (PhotonicInterposerFabric, AWGRInterposerFabric,
                       ElectricalMeshFabric, MonolithicFabric):
            for name in ("read", "write"):
                if name in fabric.__dict__:
                    self._patch(fabric, name, self._count("transfers"))
        for name in ("set_active_memory_gateways",
                     "set_active_chiplet_gateways"):
            self._patch(PhotonicInterposerFabric, name, self._reconfiguring)
        self._patch(PhotonicInterposerFabric, "set_wavelength_fraction",
                    self._count("gateway_calls"))
        self._patch(EpochTrafficMonitor, "close_epoch",
                    self._count("controller_epochs"))
        self._patch(RequestExecution, "start", self._count("executions"))
        self._patch(WeightResidency, "acquire", self._fetching)
        self._patch(ClusterRouter, "submit", self._count("routed"))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

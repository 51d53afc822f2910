"""Cold start: each layer loads on first use.

The probes run in fresh interpreters, because this test session has long
since imported every layer.  They pin two rules:

* an entry point imports only the layers it uses — numpy, the serving
  stack and the paper drivers stay out of inference studies and the CLI;
* lowering a study imports everything its run needs, and only what
  the study names (its platforms' fabrics, its models' zoo modules, the
  hazard layers of a non-empty fault section), so ``run_study`` spends
  no time importing;
* a warm study, every cell in the cache, simulates nothing and loads no
  simulation layer.

The package namespaces re-export their names lazily (PEP 562); the
second half of the file checks that every exported name still resolves.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.studies import (
    FaultEventSpec,
    FaultSpec,
    ModelTraffic,
    PlatformSpec,
    StudySpec,
    SweepAxis,
    SweepSpec,
    WorkloadSpec,
)

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.json"))
PERFBENCH_SPECS = sorted((ROOT / "perfbench" / "specs").glob("*.json"))

SERVING_LAYERS = ("repro.serving", "repro.cluster", "repro.obs")

HAZARD_MODULES = ("repro.interposer.photonic.faults", "repro.cluster.hazards",
                  "repro.photonics.thermal", "repro.photonics.variations")
"""The hazard stack: a fault-free study loads none of it."""

SIMULATION_LAYERS = (
    "repro.sim", "repro.interposer", "repro.core.engine",
    "repro.core.accelerator", "repro.core.siph", "repro.core.elec",
    "repro.core.awgr", "repro.core.crosslight", "repro.mapping",
    "repro.serving.scheduler", "repro.serving.lifecycle",
    "repro.cluster.router", "repro.experiments.serving_study",
    "repro.experiments.fidelity",
)
"""Kernel, fabrics, platforms, engine, mapping, scheduler, lifecycle,
router and the serving workers: a warm study loads none of them."""

PRELUDE = """
import json, sys


def loaded():
    return sorted(m for m in sys.modules
                  if m in ("numpy", "repro") or m.startswith("repro."))
"""
"""Probe prelude: ``loaded()`` lists numpy and every ``repro`` module."""


def _probe(script: str, *args: str, stdin: str = "") -> object:
    """Run ``script`` (after the prelude) in a fresh interpreter; its
    last stdout line is JSON, returned decoded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    out = subprocess.run(
        [sys.executable, "-c", PRELUDE + script, *args], input=stdin,
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _under(modules, *packages: str) -> list[str]:
    return [
        module for module in modules
        if any(module == package or module.startswith(package + ".")
               for package in packages)
    ]


def inference_matrix_spec() -> StudySpec:
    """LeNet5 on all four platforms: the paper matrix in miniature."""
    return StudySpec(
        name="lenet-matrix",
        kind="inference",
        workload=WorkloadSpec(models=(ModelTraffic("LeNet5"),)),
        sweep=SweepSpec(axes=(SweepAxis(
            field="platform.name",
            values=("CrossLight", "2.5D-CrossLight-Elec",
                    "2.5D-CrossLight-SiPh", "2.5D-CrossLight-AWGR"),
        ),)),
    )


def ring_drift_inference_spec() -> StudySpec:
    """One SiPh inference under a ring-drift burst, which samples ring
    deviations with numpy when it fires."""
    return StudySpec(
        name="lenet-ring-drift",
        kind="inference",
        workload=WorkloadSpec(models=(ModelTraffic("LeNet5"),)),
        platform=PlatformSpec(faults=FaultSpec(events=(FaultEventSpec(
            kind="ring-drift", at_s=0.0, duration_s=1e-3,
            temperature_rise_k=4.0,
        ),))),
    )


LOWER_THEN_RUN = """
from repro.studies.compile import load_spec, lower_study, run_study
from repro.studies.spec import StudySpec

if len(sys.argv) > 1:
    spec = load_spec(sys.argv[1])
else:
    spec = StudySpec.from_json(sys.stdin.read())
lower_study(spec)
lowered = loaded()
before = set(sys.modules)
run_study(spec, cache_dir=sys.argv[2] if len(sys.argv) > 2 else None)
print(json.dumps({
    "lowered": lowered,
    "run_imports": sorted(set(sys.modules) - before),
}))
"""
"""Lower a study (a spec file path in argv, else spec JSON on stdin),
then run it (into the cache directory in ``argv[2]``, if given):
reports what lowering loaded and what the run added."""


WARM_RUN = """
from repro.studies.compile import load_spec, run_study

study = run_study(load_spec(sys.argv[1]), cache_dir=sys.argv[2])
stats = study.cache_stats
print(json.dumps({
    "loaded": loaded(),
    "hits": stats.hits,
    "simulated": stats.simulated,
}))
"""
"""Run a study from a cache directory: reports every module loaded and
the cache counters."""


POOL_PROBE = """
from repro.studies.compile import load_spec, lower_study
from repro.studies.spec import StudySpec

if len(sys.argv) > 1:
    spec = load_spec(sys.argv[1])
else:
    spec = StudySpec.from_json(sys.stdin.read())
lower_study(spec)
print(json.dumps(sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("concurrent", "multiprocessing")
)))
"""
"""Lower a study; reports every process-pool module loaded."""


class TestImportFootprint:
    def test_kernel_loads_only_itself(self):
        loaded = _probe("import repro.sim.core\nprint(json.dumps(loaded()))")
        assert loaded == ["repro", "repro.errors", "repro.sim",
                          "repro.sim.core"]

    @pytest.mark.parametrize("entry", ["import", "help"])
    def test_cli_loads_no_simulation_layer(self, entry):
        if entry == "import":
            script = "import repro.cli\n"
        else:
            # ``python -m repro --help``, read after argparse exits.
            script = (
                "import runpy\n"
                "sys.argv = ['repro', '--help']\n"
                "try:\n"
                "    runpy.run_module('repro', run_name='__main__',"
                " alter_sys=True)\n"
                "except SystemExit:\n"
                "    pass\n"
            )
        loaded = _probe(script + "print(json.dumps(loaded()))")
        assert "repro.cli" in loaded
        assert "numpy" not in loaded
        assert _under(loaded, "repro.sim", *SERVING_LAYERS,
                      "repro.experiments", "repro.studies") == []

    def test_export_loads_no_paper_driver(self):
        loaded = _probe(
            "import repro.experiments.export\nprint(json.dumps(loaded()))"
        )
        assert "repro.experiments.export" in loaded
        assert "numpy" not in loaded
        assert _under(loaded, "repro.baselines", "repro.experiments.table3",
                      "repro.dnn.zoo", "repro.interposer",
                      "repro.core.crosslight") == []

    def test_fault_free_inference_loads_no_hazard_module(self):
        report = _probe(LOWER_THEN_RUN,
                        stdin=inference_matrix_spec().to_json())
        assert report["run_imports"] == []
        assert _under(report["lowered"], *HAZARD_MODULES) == []

    def test_lowering_loads_only_the_named_zoo_modules(self):
        loaded = _probe(
            "from repro.studies.compile import load_spec, lower_study\n"
            "lower_study(load_spec(sys.argv[1]))\n"
            "print(json.dumps(loaded()))",
            str(ROOT / "perfbench" / "specs" / "paper_matrix.json"),
        )
        assert _under(loaded, "repro.dnn.zoo") == [
            "repro.dnn.zoo", "repro.dnn.zoo.lenet5",
            "repro.dnn.zoo.mobilenetv2", "repro.dnn.zoo.resnet50",
            "repro.dnn.zoo.vgg16",
        ]

    def test_crosslight_fleet_loads_no_photonic_or_mesh_fabric(self):
        report = _probe(
            LOWER_THEN_RUN,
            str(ROOT / "perfbench" / "specs" / "fleet_failover.json"),
        )
        assert report["run_imports"] == []
        loaded = report["lowered"]
        assert "repro.cluster.hazards" in loaded
        assert _under(loaded, "repro.interposer.photonic",
                      "repro.interposer.electrical", "repro.core.siph",
                      "repro.core.elec", "repro.core.awgr") == []

    def test_inference_study_loads_no_serving_layer(self):
        report = _probe(LOWER_THEN_RUN,
                        stdin=inference_matrix_spec().to_json())
        assert report["run_imports"] == []
        loaded = report["lowered"]
        assert "numpy" not in loaded
        assert _under(loaded, *SERVING_LAYERS) == []
        assert "repro.experiments.serving_study" not in loaded
        assert "repro.experiments.fidelity" not in loaded

    @pytest.mark.parametrize("kind", ("inference", "serving"))
    def test_lowering_loads_no_process_pool(self, kind):
        """A serial study never starts a process pool, so its setup
        imports neither ``concurrent.futures`` nor ``multiprocessing``;
        a ``jobs > 1`` run imports them when it starts its workers."""
        if kind == "inference":
            loaded = _probe(POOL_PROBE,
                            stdin=inference_matrix_spec().to_json())
        else:
            loaded = _probe(POOL_PROBE,
                            str(ROOT / "examples" / "cluster_spec.json"))
        assert loaded == []

    def test_ring_drift_loads_numpy_at_lowering(self):
        report = _probe(LOWER_THEN_RUN,
                        stdin=ring_drift_inference_spec().to_json())
        assert report["run_imports"] == []
        assert "numpy" in report["lowered"]

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
    def test_example_run_imports_nothing(self, path, cold_cache):
        assert cold_cache(path)["run_imports"] == []

    @pytest.mark.parametrize("path", PERFBENCH_SPECS,
                             ids=lambda path: path.stem)
    def test_benchmark_spec_run_imports_nothing(self, path):
        report = _probe(LOWER_THEN_RUN, str(path))
        assert report["run_imports"] == []

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
    def test_warm_example_reads_only_the_cache(self, path, cold_cache):
        cold_cache(path)
        report = _probe(WARM_RUN, str(path), cold_cache.directory(path))
        assert report["simulated"] == 0 and report["hits"] > 0
        loaded = report["loaded"]
        assert "numpy" not in loaded
        assert _under(loaded, *SIMULATION_LAYERS, *HAZARD_MODULES) == []


class _ColdCaches:
    """Each example run cold once (lowered first), into its own cache
    directory; the report of that run is kept for every test."""

    def __init__(self, root: Path):
        self.root = root
        self.reports: dict[Path, dict] = {}

    def directory(self, path: Path) -> str:
        return str(self.root / path.stem)

    def __call__(self, path: Path) -> dict:
        if path not in self.reports:
            self.reports[path] = _probe(
                LOWER_THEN_RUN, str(path), self.directory(path)
            )
        return self.reports[path]


@pytest.fixture(scope="module")
def cold_cache(tmp_path_factory) -> _ColdCaches:
    return _ColdCaches(tmp_path_factory.mktemp("cold-cache"))


# ---------------------------------------------------------------------------
# Lazy re-exports.
# ---------------------------------------------------------------------------


def _packages() -> list:
    return [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]


PACKAGES = [package for package in _packages() if hasattr(package, "__all__")]


class TestLazyExports:
    @pytest.mark.parametrize("package", PACKAGES,
                             ids=lambda package: package.__name__)
    def test_every_export_resolves(self, package):
        listed = dir(package)
        for name in package.__all__:
            assert getattr(package, name) is not None, name
            assert name in listed, name
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    @pytest.mark.parametrize("package", PACKAGES,
                             ids=lambda package: package.__name__)
    def test_unknown_name_raises_attribute_error(self, package):
        with pytest.raises(AttributeError, match=package.__name__):
            package.no_such_export  # noqa: B018

    def test_bare_import_reaches_submodules(self):
        resolved = _probe(
            "import repro\n"
            "print(json.dumps([repro.sim.core.Environment.__name__,"
            " repro.experiments.runner.ResultCache.__name__]))"
        )
        assert resolved == ["Environment", "ResultCache"]

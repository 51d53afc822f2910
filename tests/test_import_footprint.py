"""Cold start: each layer loads on first use.

The probes run in fresh interpreters, because this test session has long
since imported every layer.  They pin two rules:

* an entry point imports only the layers it uses — numpy, the serving
  stack and the paper drivers stay out of inference studies and the CLI;
* lowering a study imports everything its run needs, so ``run_study``
  spends no time importing.

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

SERVING_LAYERS = ("repro.serving", "repro.cluster", "repro.obs")

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
run_study(spec)
print(json.dumps({
    "lowered": lowered,
    "run_imports": sorted(set(sys.modules) - before),
}))
"""
"""Lower a study (a spec file path in argv, else spec JSON on stdin),
then run it: reports what lowering loaded and what the run added."""


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
    def test_example_run_imports_nothing(self, path):
        report = _probe(LOWER_THEN_RUN, str(path))
        assert report["run_imports"] == []


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

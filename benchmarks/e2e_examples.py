#!/usr/bin/env python
"""End-to-end cost of every shipped example study, cold then warm.

Each ``examples/*.json`` study runs as ``python -m repro study SPEC
--cache-dir DIR`` twice, each time in a fresh interpreter and with one
fresh cache directory: cold (every cell simulated), then warm (every
cell read from the cache).  Per example it records exact counters:

* ``warm_repro_modules`` — ``repro`` modules the warm run imported (the
  names are kept in ``warm_modules``), and ``warm_numpy`` — whether it
  imported numpy;
* ``cold_simulated`` / ``warm_simulated`` — cells each run simulated;
* ``cold_insertions`` — kernel insertions of the cold run, summed over
  every :class:`~repro.sim.core.Environment` it built.

Wall times of both runs (``cold_wall_s``, ``warm_wall_s``) are kept as
information only: they move with the host.  ``baseline`` holds the warm
wall times measured the same way before a warm study stopped binding
its layers, for comparison::

    python benchmarks/e2e_examples.py          # measure, check BENCH_e2e.json
    python benchmarks/e2e_examples.py --write  # measure, re-record it

The check exits 1 when a counter rises above its record or a warm run
simulates a cell, and 2 when ``BENCH_e2e.json`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD = REPO_ROOT / "BENCH_e2e.json"
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.json"))

COUNTERS = ("warm_repro_modules", "warm_numpy", "cold_simulated",
            "warm_simulated", "cold_insertions")
"""Exact counters: none may rise above its record."""

PROBE = r"""
import contextlib, io, json, re, runpy, sys

cold = sys.argv[1] == "cold"
environments = []
if cold:
    from repro.sim.core import Environment

    def counting_init(self, *args, _init=Environment.__init__, **kwargs):
        environments.append(self)
        _init(self, *args, **kwargs)

    Environment.__init__ = counting_init
sys.argv = ["repro", "study", sys.argv[2], "--cache-dir", sys.argv[3]]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        if stop.code:
            raise
simulated = re.search(r"\((\d+) simulated\)", out.getvalue())
print(json.dumps({
    "modules": sorted(m for m in sys.modules
                      if m == "repro" or m.startswith("repro.")),
    "numpy": "numpy" in sys.modules,
    "simulated": int(simulated.group(1)),
    "insertions": sum(env._sequence for env in environments),
}))
"""
"""One ``repro study`` run in this interpreter: ``argv`` is the run
(``cold``/``warm``), the spec and the cache directory; prints the
run's modules, numpy, simulated cells and kernel insertions."""


def _run(mode: str, spec: Path, cache: str) -> tuple[dict, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH")))
    )
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", PROBE, mode, str(spec), cache],
        env=env, capture_output=True, text=True, check=True,
    )
    wall = time.perf_counter() - start
    return json.loads(out.stdout.splitlines()[-1]), wall


def measure(spec: Path) -> dict:
    """Cold, then warm, from one fresh cache directory."""
    with tempfile.TemporaryDirectory() as cache:
        cold, cold_wall = _run("cold", spec, cache)
        warm, warm_wall = _run("warm", spec, cache)
    return {
        "warm_repro_modules": len(warm["modules"]),
        "warm_numpy": int(warm["numpy"]),
        "cold_simulated": cold["simulated"],
        "warm_simulated": warm["simulated"],
        "cold_insertions": cold["insertions"],
        "cold_wall_s": round(cold_wall, 3),
        "warm_wall_s": round(warm_wall, 3),
        "warm_modules": warm["modules"],
    }


def problems(measured: dict, record: dict) -> list[str]:
    """Every counter above its record, and every warm run that
    simulated a cell."""
    found = []
    for name, row in measured.items():
        if row["warm_simulated"]:
            found.append(f"{name}: the warm run simulated "
                         f"{row['warm_simulated']} cell(s)")
        recorded = record.get(name)
        if recorded is None:
            found.append(f"{name}: no record")
            continue
        for counter in COUNTERS:
            if row[counter] > recorded[counter]:
                found.append(f"{name}: {counter} {row[counter]} > "
                             f"{recorded[counter]}")
        extra = sorted(set(row["warm_modules"])
                       - set(recorded["warm_modules"]))
        if extra:
            found.append(f"{name}: the warm run imported {extra}")
    return found


def render(measured: dict, baseline: dict) -> str:
    header = (f"{'example':<24}{'cold s':>8}{'warm s':>8}{'was s':>8}"
              f"{'modules':>9}{'numpy':>7}{'simulated':>11}"
              f"{'insertions':>12}")
    lines = [header, "-" * len(header)]
    for name, row in measured.items():
        was = baseline.get(name)
        lines.append(
            f"{name:<24}{row['cold_wall_s']:>8.3f}{row['warm_wall_s']:>8.3f}"
            f"{(f'{was:.3f}' if was is not None else '-'):>8}"
            f"{row['warm_repro_modules']:>9}{row['warm_numpy']:>7}"
            f"{row['cold_simulated']:>5}/{row['warm_simulated']:<5}"
            f"{row['cold_insertions']:>12}"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"re-record {RECORD.name} instead of "
                             "checking against it")
    args = parser.parse_args()
    stored = json.loads(RECORD.read_text()) if RECORD.exists() else None
    baseline = (stored or {}).get("baseline", {"warm_wall_s": {}})
    measured = {spec.stem: measure(spec) for spec in EXAMPLES}
    print(render(measured, baseline["warm_wall_s"]))
    if args.write:
        RECORD.write_text(json.dumps(
            {"examples": measured, "baseline": baseline}, indent=2
        ) + "\n")
        print(f"\nwrote {RECORD.name}")
        return 0
    if stored is None:
        print(f"\nno {RECORD.name} to check against", file=sys.stderr)
        return 2
    found = problems(measured, stored["examples"])
    for line in found:
        print(f"REGRESSION: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Aggregate the simulator microbenchmark suite into ``BENCH_sim.json``.

Runs the pytest-benchmark suite when pytest-benchmark is installed
(statistically robust medians), falling back to the inline
:mod:`repro.bench` runner otherwise, and writes a machine-readable
baseline of median ns/op, kernel insertions and processes started per
microbenchmark::

    python benchmarks/run_all.py                 # writes ./BENCH_sim.json
    python benchmarks/run_all.py --output out.json --repeats 9

Commit the refreshed ``BENCH_sim.json`` whenever simulator performance
intentionally changes; ``python -m repro bench --check`` guards against
unintentional regressions relative to the committed file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import (  # noqa: E402
    BASELINE_FILENAME,
    MICROBENCHMARKS,
    benchmark_id,
    count_kernel_work,
    render_suite,
    run_suite,
    write_baseline,
)

BENCH_FILE = Path(__file__).resolve().parent / "bench_sim_microbenchmarks.py"


def _pytest_benchmark_medians() -> dict[str, float] | None:
    """Medians from a pytest-benchmark run, or None if unavailable."""
    try:
        import pytest_benchmark  # noqa: F401
    except ImportError:
        return None
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        result = subprocess.run(
            [
                sys.executable, "-m", "pytest", str(BENCH_FILE),
                "--benchmark-only", f"--benchmark-json={report}", "-q",
            ],
            env={**__import__("os").environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            text=True,
        )
        if result.returncode != 0 or not report.exists():
            print(result.stdout, file=sys.stderr)
            print(result.stderr, file=sys.stderr)
            return None
        payload = json.loads(report.read_text(encoding="utf-8"))
    # pytest-benchmark names each run by its parameter id; the baseline
    # keeps the registry names.
    names = {benchmark_id(name): name for name in MICROBENCHMARKS}
    medians = {}
    for entry in payload.get("benchmarks", []):
        name = names.get(entry.get("param"))
        if name is not None:
            medians[name] = entry["stats"]["median"] * 1e9
    return medians or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=str(REPO_ROOT / BASELINE_FILENAME),
        help="where to write the baseline JSON",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="repeats per benchmark for the inline fallback runner",
    )
    parser.add_argument(
        "--inline", action="store_true",
        help="skip pytest-benchmark and time inline (faster, noisier)",
    )
    args = parser.parse_args(argv)

    medians = None if args.inline else _pytest_benchmark_medians()
    source = "pytest-benchmark"
    counts: dict[str, dict[str, int]] = {}
    if medians is None:
        medians = run_suite(repeats=args.repeats, counts=counts)
        source = "repro.bench"
    else:
        for name in medians:
            counts[name] = count_kernel_work(MICROBENCHMARKS[name]())

    write_baseline(medians, args.output, source=source, counts=counts)
    print(render_suite(medians, counts=counts))
    print(f"\nwrote {args.output} ({source}, {len(medians)} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

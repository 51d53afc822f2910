"""Self-test: every workload at a tiny scale, on a seed the tuning never used.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload and for both ``--trace`` modes it checks that the
benchmark prints, as its last line, every metric ``BENCHMARK.json``
names — finite, with the declared unit — and that no cell failed
(``error_rate`` 0).  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 20231

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def check(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr[-1500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(
            f"missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}"
        )
    for name, metric in metrics.items():
        if metric["unit"] != declared.get(name):
            problems.append(f"{name}: unit {metric['unit']!r}, declared "
                            f"{declared.get(name)!r}")
        if not math.isfinite(metric["value"]):
            problems.append(f"{name}: value {metric['value']}")
    if trace and metrics.get("error_rate", {}).get("value") != 0:
        problems.append("error_rate is not 0")
    return problems


def main() -> int:
    benchmark = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    declared = {
        trace: {m["name"]: m["unit"] for m in benchmark[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    if {w["name"] for w in benchmark["workloads"]} != set(WORKLOADS):
        print("BENCHMARK.json workloads differ from perfbench/workloads.py")
        return 1
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check(workload, trace, declared[trace])
            print(f"{workload:<16} trace={trace}: "
                  + ("ok" if not problems else "; ".join(problems)),
                  flush=True)
            status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Check the self-time attribution against a known layer shape.

Run from the repository root::

    python3 perfbench/attribution_check.py

Profiles three runs of the full-DES fidelity reference cell of
``repro bench`` (LeNet5, Poisson arrivals, ReSiPI) and prints the layer
shares twice: once the way the benchmark charges them (builtins to their
callers' modules), and once with builtins kept in a bucket of their own.
The second split is how a plain cProfile-by-package table reads.  It is
the one the roadmap's baseline quotes: fabric about 30%, ``sim.core``
about 24%, controllers about 10.5%.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Attribution  # noqa: E402


class _BuiltinsApart(Attribution):
    def layer_of_file(self, filename: str) -> str:
        if filename.startswith("~"):
            return "builtins"
        return super().layer_of_file(filename) or "other"


def main() -> None:
    from repro.bench import make_fidelity_des_reference

    run = make_fidelity_des_reference()
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(3):
        run()
    profiler.disable()
    stats = pstats.Stats(profiler)
    package = ROOT / "src" / "repro"
    for label, attribution in (("builtins charged to callers",
                                Attribution(package)),
                               ("builtins apart", _BuiltinsApart(package))):
        self_s = attribution.self_times(stats)
        total = sum(self_s.values())
        top = sorted(self_s.items(), key=lambda item: -item[1])[:6]
        print(f"{label}: " + ", ".join(
            f"{layer} {100 * seconds / total:.1f}%" for layer, seconds in top
        ))


if __name__ == "__main__":
    main()

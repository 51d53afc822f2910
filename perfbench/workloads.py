"""The benchmark's four study workloads and how a seed becomes their inputs.

Each workload is a study spec under ``specs/`` run through the public
``repro.studies.compile`` API.  The benchmark seed only ever reaches the
studies as ``workload.seed`` values, so it changes the generated arrival
streams and nothing else.  Serving workloads sweep ``workload.seed`` over
``replicates`` seeds derived from the benchmark seed: one arrival draw of
a few hundred requests makes host time swing by tens of percent from seed
to seed, and replicates average that out without lengthening any cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

SPEC_DIR = Path(__file__).resolve().parent / "specs"


@dataclass(frozen=True)
class Workload:
    name: str
    replicates: int
    """Arrival seeds swept per grid point (1 = no seed axis)."""
    has_reference: bool = False
    """Whether a full-DES twin of the grid is run as the accuracy
    reference (outside the timed region)."""


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("siph_serving", replicates=2),
        Workload("fleet_failover", replicates=2),
        Workload("fluid_audit", replicates=1, has_reference=True),
        # Inference cells have no arrivals: the seed has nothing to vary.
        Workload("paper_matrix", replicates=1),
    )
}


def input_seeds(seed: int, rep: int, replicates: int) -> list[int]:
    """Arrival seeds of repetition ``rep`` under one benchmark seed:
    deterministic, and disjoint across seeds, repetitions and
    replicates (``rep`` < 1000, ``replicates`` <= 10)."""
    return [(seed * 1000 + rep) * 10 + index for index in range(replicates)]


def build_spec(name: str, seed: int, rep: int, tiny: bool = False,
               reference: bool = False):
    """The study spec one benchmark run executes.

    ``tiny`` cuts every sweep axis to its first two values (the
    self-test scale); ``reference`` drops the fidelity section, giving
    the full-DES twin of the same grid.
    """
    from repro.studies.compile import load_spec
    from repro.studies.spec import FidelitySpec, SweepAxis

    workload = WORKLOADS[name]
    spec = load_spec(SPEC_DIR / f"{name}.json")
    replicates = min(2, workload.replicates) if tiny else workload.replicates
    seeds = input_seeds(seed, rep, replicates)
    spec = spec.with_override("workload.seed", seeds[0])
    axes = list(spec.sweep.axes)
    if tiny:
        axes = [replace(axis, values=axis.values[:2]) for axis in axes]
    if replicates > 1:
        axes.append(SweepAxis(field="workload.seed", values=tuple(seeds)))
    spec = replace(spec, sweep=replace(spec.sweep, axes=tuple(axes)))
    if reference:
        spec = replace(spec, fidelity=FidelitySpec())
    return spec

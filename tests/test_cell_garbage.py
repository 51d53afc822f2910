"""Finished cells free themselves: no cyclic garbage after a cell.

Each cell worker closes its environment once the result is assembled,
and the links that would tie a closed cell into reference cycles are
cut, so reference counting alone frees a finished simulation.  Each
test runs a cell once to warm every cache, then again with the cyclic
garbage collector off, and expects ``gc.collect()`` to find nothing.
"""

import gc
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.experiments import fidelity
from repro.experiments.runner import InferenceCell, simulate_inference_cell
from repro.experiments.serving_study import simulate_serving_cell
from repro.sim.core import Environment
from repro.studies import TelemetrySpec, load_spec, lower_study

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def example_cells(name: str, **overrides) -> list:
    """Every cell of an example spec, after scalar overrides."""
    spec = load_spec(EXAMPLES / name)
    for path, value in overrides.items():
        spec = spec.with_override(path, value)
    _, cells = lower_study(spec)
    return [cell for group in cells for cell in group]


def cyclic_garbage(run) -> int:
    """Objects the cyclic collector finds after a second ``run()``."""
    run()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("controller", ["resipi", "prowaves"])
def test_siph_node_under_fault_timeline(controller):
    # The faulted point: gateway fail, ring drift, then repair.
    _, cell = example_cells(
        "fault_serving_spec.json", **{
            "platform.controller": controller,
            "workload.duration_s": 1.4e-3,
        }
    )
    assert cell.faults.events
    assert cyclic_garbage(lambda: simulate_serving_cell(cell)) == 0


def test_continuous_batching_sequences():
    cell = example_cells("transformer_spec.json")[0]
    assert cell.sequences and cell.scheduler.policy == "continuous"
    assert cyclic_garbage(lambda: simulate_serving_cell(cell)) == 0


def test_fleet_with_node_faults_resilience_and_telemetry():
    spec = load_spec(EXAMPLES / "resilience_spec.json")
    spec = replace(spec, telemetry=TelemetrySpec(trace=True))
    _, cells = lower_study(spec)
    cell = cells[-1][0]
    assert cell.is_fleet and cell.node_faults
    assert cell.resilience and cell.telemetry
    assert cyclic_garbage(lambda: simulate_serving_cell(cell)) == 0


def test_fluid_mac_degrade_from_an_empty_warm_store():
    cell = example_cells("fidelity_spec.json")[1]
    assert cell.fidelity and cell.faults.events

    def run():
        fidelity.clear_warm_store()
        fidelity._INFLATION_MEMO.clear()
        return simulate_serving_cell(cell)

    try:
        assert cyclic_garbage(run) == 0
    finally:
        fidelity.clear_warm_store()


@pytest.mark.parametrize("platform", [
    "CrossLight", "2.5D-CrossLight-Elec", "2.5D-CrossLight-SiPh",
    "2.5D-CrossLight-AWGR",
])
def test_inference_cell(platform):
    cell = InferenceCell(platform, "LeNet5", "resipi", DEFAULT_PLATFORM)
    assert cyclic_garbage(lambda: simulate_inference_cell(cell)) == 0


@pytest.mark.parametrize("barrier", ["all_of", "any_of"])
def test_closed_barrier_over_an_unfired_event(barrier):
    """A process still waiting on a barrier over a plain event that
    never fires leaves no cycle once its environment closes."""

    def run():
        with Environment() as env:
            wait = getattr(env, barrier)([env.event(), env.timeout(1.0)])

            def waiter():
                yield wait

            env.process(waiter())
            env.run(until=0.5)

    assert cyclic_garbage(run) == 0


"""Contract of the callback request engine (``core/engine.py``).

A :class:`RequestExecution` runs as kernel callbacks with no process of
its own; these tests pin what callers rely on: the completion event, a
lone request's exact latency, compute accounting under overlap, and the
kernel cost of one execution.
"""

import dataclasses

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.core.accelerator import MonolithicCrossLight
from repro.core.engine import (
    ComputeOccupancy,
    ExecutionTrace,
    RequestExecution,
)
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.experiments.runner import (
    InferenceCell,
    build_platform,
    simulate_inference_cell,
)
from repro.mapping.mapper import ModelMapping
from repro.serving.scheduler import RequestScheduler
from repro.sim.core import Environment
from repro.studies.registry import MODELS, PLATFORMS

LENET5 = extract_workload(zoo.build("LeNet5"))


def crosslight(env):
    sim = MonolithicCrossLight().build_simulation(env)
    return sim, sim.map_workload(LENET5)


def execution(env, sim, mapping, trace=None, **kwargs):
    return RequestExecution(
        env, sim.platform.config, sim.fabric, mapping,
        trace if trace is not None else ExecutionTrace(),
        mac_rate_hz=sim.mac_rate_hz, **kwargs,
    )


@pytest.mark.parametrize("platform", PLATFORMS.names())
@pytest.mark.parametrize("model", ["LeNet5", "ResNet50", "MobileNetV2"])
def test_lone_request_ends_at_its_inference_cell_latency(platform, model):
    """Residency and compute occupancy cost a lone request nothing: it
    finishes at exactly the one-shot inference latency."""
    expected = simulate_inference_cell(InferenceCell(
        platform=platform, model=model, controller="resipi",
        config=DEFAULT_PLATFORM,
    )).latency_s
    env = Environment()
    sim = build_platform(
        platform, DEFAULT_PLATFORM, "resipi"
    ).build_simulation(env)
    workload = extract_workload(MODELS.get(model)())
    scheduler = RequestScheduler(sim, sim.map_workload(workload), model)
    done = env.event()
    handle = scheduler.submit(done=done)
    env.run_until_event(done, limit=sim.time_limit_s)
    assert handle.record.arrival_s == 0.0
    assert handle.record.finish_s == expected


def test_empty_mapping_completes_at_the_current_instant():
    env = Environment()
    sim, mapping = crosslight(env)
    env.run(until=2.5)
    trace = ExecutionTrace()
    done = execution(
        env, sim, ModelMapping(mapping.workload, ()), trace
    ).start()
    assert done.triggered
    env.run_until_event(done)
    assert env.now == 2.5
    assert trace.layer_timings == []
    assert sim.fabric.bits_read == 0.0


@pytest.mark.parametrize("occupancy", [False, True])
def test_zero_output_allocations_still_complete_their_layers(occupancy):
    """A share with nothing to write ends its layer at its compute end."""
    env = Environment()
    sim, mapping = crosslight(env)
    silent = ModelMapping(mapping.workload, tuple(
        dataclasses.replace(layer, allocations=tuple(
            dataclasses.replace(alloc, output_bits=0)
            for alloc in layer.allocations
        ))
        for layer in mapping.layers
    ))
    trace = ExecutionTrace()
    compute = ComputeOccupancy(env) if occupancy else None
    done = execution(env, sim, silent, trace, compute=compute).start()
    env.run_until_event(done, limit=sim.time_limit_s)
    assert [t.name for t in trace.layer_timings] == [
        layer.layer.name for layer in mapping.layers
    ]
    for timing in trace.layer_timings:
        assert timing.end_s == timing.compute_done_s
    assert sim.fabric.bits_written == 0.0
    if compute is not None:
        assert all(
            compute.resource(chiplet).in_use == 0
            for layer in mapping.layers for chiplet in layer.chiplet_ids
        )


def test_overlapping_executions_accumulate_compute_exactly():
    n = 4
    lone_env = Environment()
    lone_sim, lone_mapping = crosslight(lone_env)
    lone = ExecutionTrace()
    done = execution(lone_env, lone_sim, lone_mapping, lone,
                     compute=ComputeOccupancy(lone_env)).start()
    lone_env.run_until_event(done, limit=lone_sim.time_limit_s)

    env = Environment()
    sim, mapping = crosslight(env)
    compute = ComputeOccupancy(env)
    shared = ExecutionTrace()
    finished = [
        execution(env, sim, mapping, shared, compute=compute).start()
        for _ in range(n)
    ]
    env.run_until_event(env.all_of(finished), limit=sim.time_limit_s)
    assert shared.lane_ops_by_kind == {
        kind: n * ops for kind, ops in lone.lane_ops_by_kind.items()
    }
    assert shared.vector_ops_by_kind == {
        kind: n * ops for kind, ops in lone.vector_ops_by_kind.items()
    }
    assert env.now > lone_env.now
    chiplets = {c for layer in mapping.layers for c in layer.chiplet_ids}
    for chiplet in chiplets:
        assert 0.0 < compute.utilization(chiplet) <= 1.0
        assert compute.resource(chiplet).in_use == 0
    assert 0.0 < compute.mean_utilization() <= 1.0


def test_lone_execution_kernel_cost_is_pinned():
    """LeNet5 on CrossLight with compute occupancy, 5 layers of one
    share each: 16 chunk timeouts, 15 transfer completions, 5 weight
    barriers, 5 compute timeouts and the execution's completion.  No
    process, MAC grant, layer barrier or resume hop."""
    env = Environment()
    sim, mapping = crosslight(env)
    done = execution(env, sim, mapping,
                     compute=ComputeOccupancy(env)).start()
    env.run_until_event(done, limit=sim.time_limit_s)
    assert env._sequence == 42

"""The one serving window: every front injects, serves and drains alike.

The single-node scheduler, the cluster router and the lifecycle driver
all inherit :class:`~repro.serving.window.ServingWindow`.  These tests
drive each of them through a closed-loop client population.
"""

import itertools

import pytest

from repro.cluster.router import ClusterNode, ClusterRouter
from repro.core.accelerator import MonolithicCrossLight
from repro.core.engine import ExecutionTrace
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.errors import ConfigurationError, SimulationError
from repro.mapping.residency import WeightResidency
from repro.serving.lifecycle import LifecycleDriver
from repro.serving.scheduler import RequestScheduler
from repro.sim.core import Environment
from repro.sim.traffic import ClosedLoopClients
from repro.studies.registry import ROUTERS
from repro.studies.spec import ResilienceSpec, SchedulerSpec

WORKLOAD = extract_workload(zoo.build("LeNet5"))
DURATION_S = 0.2e-3


def make_nodes(n):
    env = Environment()
    platform = MonolithicCrossLight()
    nodes = []
    for index in range(n):
        sim = platform.build_simulation(env)
        scheduler = RequestScheduler(
            sim, sim.map_workload(WORKLOAD), "LeNet5",
            policy=SchedulerSpec(max_inflight=2),
            residency=WeightResidency(env), trace=ExecutionTrace(),
        )
        nodes.append(ClusterNode(
            index=index, platform=platform, sim=sim, scheduler=scheduler,
            residency=scheduler.residency,
        ))
    return nodes


def scheduler_front():
    nodes = make_nodes(1)
    return nodes[0].scheduler, nodes


def router_front():
    nodes = make_nodes(2)
    return ClusterRouter(nodes, ROUTERS.get("round-robin")(2, ())), nodes


def lifecycle_front():
    router, nodes = router_front()
    # Tight enough that requests hedge, time out, retry and give up.
    policy = ResilienceSpec(timeout_s=2e-6, max_retries=1,
                            hedge_delay_s=0.5e-6)
    return LifecycleDriver(router, policy, seed=2), nodes


FRONTS = {
    "scheduler": scheduler_front,
    "router": router_front,
    "lifecycle": lifecycle_front,
}


def tally(front, nodes):
    """(injected, completed, shed) from each front's public counters."""
    if isinstance(front, LifecycleDriver):
        return (front.requests_injected, front.requests_completed,
                front.requests_gave_up)
    injected = (
        front.requests_routed if isinstance(front, ClusterRouter)
        else front.requests_injected
    )
    return (
        injected,
        sum(node.scheduler.requests_completed for node in nodes),
        sum(node.scheduler.requests_shed for node in nodes),
    )


def records(front, nodes):
    if isinstance(front, LifecycleDriver):
        return list(front.records)
    return [record for node in nodes for record in node.scheduler.records]


def serve_closed_loop(build):
    front, nodes = build()
    clients = ClosedLoopClients(n_clients=4, think_time_s=10e-6, seed=3)
    front.serve(clients, DURATION_S, models=itertools.repeat("LeNet5"))
    return front, nodes


@pytest.mark.parametrize("name", list(FRONTS))
class TestClosedLoopFronts:
    def test_requests_are_conserved(self, name):
        front, nodes = serve_closed_loop(FRONTS[name])
        injected, completed, shed = tally(front, nodes)
        # Four clients think about 10 us between requests over 200 us:
        # each goes round its loop many times.
        assert injected > 4 * 3
        assert completed > 0
        assert injected == completed + shed
        assert front.env.now >= DURATION_S

    def test_two_runs_give_identical_records(self, name):
        first = records(*serve_closed_loop(FRONTS[name]))
        second = records(*serve_closed_loop(FRONTS[name]))
        assert first and first == second

    def test_serve_is_single_shot(self, name):
        front, _ = serve_closed_loop(FRONTS[name])
        clients = ClosedLoopClients(n_clients=4, think_time_s=10e-6, seed=3)
        with pytest.raises(SimulationError, match="single-shot"):
            front.serve(clients, DURATION_S)

    def test_rejects_unknown_arrivals_and_empty_windows(self, name):
        front, _ = FRONTS[name]()
        with pytest.raises(ConfigurationError, match="positive"):
            front.serve(ClosedLoopClients(n_clients=1, think_time_s=1e-5),
                        0.0)
        with pytest.raises(ConfigurationError, match="unsupported"):
            front.serve(object(), DURATION_S)

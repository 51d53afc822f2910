"""The serving cell: one serving simulation point as spec data.

Lowering builds one per serving grid point, from spec data alone, and
its key follows from its fields; :mod:`repro.experiments.serving_study`
simulates it.  It lives apart from that worker, and from the inference
cell, so keying, probing and rendering a serving study load neither the
serving layers nor, in an inference study, this class.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import PlatformConfig
from ..studies.registry import ARRIVALS
from ..studies.spec import (
    FaultSpec,
    FidelitySpec,
    NodeOverrideSpec,
    ResilienceSpec,
    SchedulerSpec,
    TelemetrySpec,
)
from .runner import fields_key


@dataclass(frozen=True)
class ServingCell:
    """One serving simulation point: a traffic mix on a fleet of nodes.

    ``models`` is the mix as ``(name, fraction, slo_s, priority)``
    tuples; the first entry is each scheduler's primary model.
    ``scheduler`` is the point's scheduler section, which every node's
    scheduler reads.  ``faults`` is the platform fault section applied
    to every node.  ``sequences`` marks an autoregressive scenario: one
    ``(prompt_tokens, output_tokens)`` pair per mix entry, ``(0, 0)``
    for single-step tenants, with ``length_distribution`` naming the
    per-request sampler.  ``quotas`` caps each tenant's outstanding
    requests per node (``None`` per entry = uncapped).

    The fleet fields default to one node: ``replicas`` platform copies
    behind the ``router`` policy (``weights`` parameterise the weighted
    one), per-node ``node_overrides`` (the cluster section's entries),
    the node-level ``node_faults`` timeline and ``reroute_on_fail``.
    The ``faults``, ``node_faults``, ``resilience``, ``fidelity`` and
    ``telemetry`` sections are the point's own, each defaulting to its
    degenerate (falsy) section;
    armed, they run the request lifecycle or the router's signal path,
    the fluid fast path and the recording session.

    The worker reads nothing but these fields, so they are the cell's
    complete identity: :meth:`key` hashes all of them.
    """

    platform: str
    models: tuple[tuple[str, float, "float | None", int], ...]
    controller: str
    scheduler: SchedulerSpec
    arrival_kind: str
    rate_rps: float
    duration_s: float
    seed: int
    config: PlatformConfig
    burstiness: float = 4.0
    dwell_s: float = 20e-6
    think_time_s: float = 10e-6
    residency_capacity_bits: float | None = None
    faults: FaultSpec = FaultSpec()
    resilience: ResilienceSpec = ResilienceSpec()
    fidelity: FidelitySpec = FidelitySpec()
    sequences: tuple[tuple[int, int], ...] = ()
    length_distribution: str = "fixed"
    quotas: tuple[int | None, ...] = ()
    telemetry: TelemetrySpec = TelemetrySpec()
    replicas: int = 1
    router: str = "round-robin"
    weights: tuple[float, ...] = ()
    reroute_on_fail: bool = True
    node_overrides: tuple[NodeOverrideSpec, ...] = ()
    node_faults: FaultSpec = FaultSpec()

    @property
    def mix_label(self) -> str:
        """Readable mix name: ``70%LeNet5+30%ResNet50`` (or the model)."""
        if len(self.models) == 1:
            return self.models[0][0]
        return "+".join(
            f"{fraction * 100:.0f}%{name}"
            for name, fraction, _, _ in self.models
        )

    @property
    def tenants(self) -> tuple[tuple[str, "float | None"], ...]:
        """Each tenant's model and SLO, in mix order (a
        :class:`~repro.serving.metrics.RequestTable`'s ``tenants``)."""
        return tuple((name, slo_s) for name, _, slo_s, _ in self.models)

    @property
    def is_fleet(self) -> bool:
        """Whether a router fronts the nodes.

        Only several replicas, node hazards or per-node overrides need
        one.  Otherwise the single node serves the arrival stream
        directly — the 1-replica identity, which adds no kernel events.
        """
        return (
            self.replicas > 1
            or bool(self.node_faults)
            or bool(self.node_overrides)
        )

    @property
    def grid_label(self) -> str:
        """Dry-run label: the mix, plus the fleet shape for fleets."""
        if self.is_fleet:
            return f"{self.replicas}x[{self.router}] {self.mix_label}"
        return self.mix_label

    def arrival_process(self):
        """Instantiate the cell's arrival process (via the registry)."""
        return ARRIVALS.get(self.arrival_kind)(
            self.rate_rps, self.seed, burstiness=self.burstiness,
            dwell_s=self.dwell_s, think_time_s=self.think_time_s,
        )

    def key(self) -> str:
        """Disk-cache key: :func:`~repro.experiments.runner.fields_key`."""
        return fields_key(self)

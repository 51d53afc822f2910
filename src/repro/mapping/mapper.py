"""Layer-to-chiplet mapping policies.

The paper attributes part of the 2.5D platform's win to "the ability to
select appropriate chiplets to map layers of each DNN model".  The
default policy here implements that: for each layer it ranks MAC-unit
kinds by packing efficiency (kernel-matching kinds rank highest), takes
every kind within an efficiency threshold of the best, and splits the
layer's work across those chiplets proportionally to their effective
throughput.  Small layers are deliberately kept on few chiplets to avoid
paying broadcast and gateway overheads for no parallelism (the LeNet5
effect in Fig. 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ..config import MacGroupConfig, PlatformConfig
from ..dnn.workload import InferenceWorkload, LayerWorkload
from ..errors import MappingError
from ..interposer.topology import Floorplan
from .tiling import TilingResult, tile_layer


@dataclass(frozen=True)
class Allocation:
    """One chiplet's share of a layer."""

    chiplet_id: str
    kind: str
    n_macs: int
    vector_length: int
    vector_ops: int
    weight_bits: int
    output_bits: int

    @property
    def lane_ops(self) -> int:
        """Lane-level operations (vector ops x lanes), for energy."""
        return self.vector_ops * self.vector_length


@dataclass(frozen=True)
class LayerMapping:
    """All allocations of one layer plus its shared input traffic."""

    layer: LayerWorkload
    allocations: tuple[Allocation, ...]
    tiling: TilingResult

    @cached_property
    def chiplet_ids(self) -> tuple[str, ...]:
        """The allocated chiplets, in allocation order (built once: the
        engine reads it for every layer it executes)."""
        return tuple(alloc.chiplet_id for alloc in self.allocations)

    @property
    def replication(self) -> int:
        """How many chiplets need a copy of the input activations."""
        return len(self.allocations)

    @property
    def total_vector_ops(self) -> int:
        return sum(alloc.vector_ops for alloc in self.allocations)


@dataclass(frozen=True)
class ModelMapping:
    """Mapping of an entire inference workload."""

    workload: InferenceWorkload
    layers: tuple[LayerMapping, ...]

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class KernelMatchMapper:
    """Efficiency-ranked, threshold-gated heterogeneous mapper."""

    def __init__(
        self,
        config: PlatformConfig,
        floorplan: Floorplan,
        efficiency_threshold: float = 0.75,
        min_vector_ops_per_chiplet: int = 4096,
        strict_kernel_match: bool = False,
    ):
        """``strict_kernel_match`` restricts conv layers to spatial
        dataflow on conv units (no channel-major spillover, no conv work
        on dense units) — the pure form of the paper's heterogeneity
        argument.  The default allows spillover; see DESIGN.md."""
        if not 0.0 < efficiency_threshold <= 1.0:
            raise MappingError(
                "efficiency threshold must be in (0, 1], got "
                f"{efficiency_threshold}"
            )
        self.config = config
        self.floorplan = floorplan
        self.efficiency_threshold = efficiency_threshold
        self.min_vector_ops_per_chiplet = min_vector_ops_per_chiplet
        self.strict_kernel_match = strict_kernel_match
        self._chiplets_by_kind: dict[str, list[str]] = {}
        for site in floorplan.compute_sites:
            self._chiplets_by_kind.setdefault(site.kind, []).append(
                site.chiplet_id
            )

    # -- per-layer mapping ---------------------------------------------------------

    def _rank_groups(
        self, layer: LayerWorkload
    ) -> list[tuple[MacGroupConfig, TilingResult]]:
        """Eligible groups sorted by packing efficiency, best first."""
        ranked = []
        for group in self.config.mac_groups:
            if self.strict_kernel_match and layer.kernel_size >= 2:
                # Conv work runs on conv units only, window dataflow only.
                if group.kernel_size == 0:
                    continue
                tiling = tile_layer(
                    layer, group.vector_length, group.kernel_size,
                    spatial_only=True,
                )
            else:
                tiling = tile_layer(
                    layer, group.vector_length, group.kernel_size
                )
            ranked.append((group, tiling))
        if not ranked:
            raise MappingError(
                f"no MAC group is eligible for layer {layer.name!r}"
            )
        ranked.sort(key=lambda pair: pair[1].efficiency, reverse=True)
        return ranked

    def map_layer(self, layer: LayerWorkload) -> LayerMapping:
        """Choose chiplets and split the layer's work among them."""
        ranked = self._rank_groups(layer)
        best_efficiency = ranked[0][1].efficiency
        chosen = [
            (group, tiling)
            for group, tiling in ranked
            if tiling.efficiency >= self.efficiency_threshold * best_efficiency
        ]

        # Candidate chiplets with their per-chiplet effective throughput.
        candidates: list[tuple[str, MacGroupConfig, TilingResult, float]] = []
        for group, tiling in chosen:
            for chiplet_id in self._chiplets_by_kind[group.kind]:
                throughput = (
                    group.macs_per_chiplet
                    * group.vector_length
                    * tiling.efficiency
                )
                candidates.append((chiplet_id, group, tiling, throughput))
        if not candidates:
            raise MappingError(f"no chiplet can serve layer {layer.name!r}")
        candidates.sort(key=lambda item: item[3], reverse=True)

        # Use only as many chiplets as the layer's size justifies.
        reference_tiling = chosen[0][1]
        wanted = max(
            1,
            math.ceil(
                reference_tiling.vector_ops / self.min_vector_ops_per_chiplet
            ),
        )
        selected = candidates[: min(wanted, len(candidates))]

        total_throughput = sum(item[3] for item in selected)
        allocations: list[Allocation] = []
        remaining_ops: dict[str, int] = {}
        for chiplet_id, group, tiling, throughput in selected:
            share = throughput / total_throughput
            # Each chiplet runs its share of the layer's dots with its own
            # group's tiling (vector op count differs per group).
            ops = math.ceil(tiling.vector_ops * share)
            remaining_ops[chiplet_id] = ops
            allocations.append(
                Allocation(
                    chiplet_id=chiplet_id,
                    kind=group.kind,
                    n_macs=group.macs_per_chiplet,
                    vector_length=group.vector_length,
                    vector_ops=ops,
                    weight_bits=int(round(layer.weight_bits * share)),
                    output_bits=int(round(layer.output_bits * share)),
                )
            )
        return LayerMapping(
            layer=layer,
            allocations=tuple(allocations),
            tiling=reference_tiling,
        )

    def map_workload(self, workload: InferenceWorkload) -> ModelMapping:
        """Map every compute layer of a workload."""
        return ModelMapping(
            workload=workload,
            layers=tuple(self.map_layer(layer) for layer in workload),
        )

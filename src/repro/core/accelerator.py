"""Platform models: the three accelerators the paper evaluates.

* :class:`CrossLight25DSiPh` — 2.5D CrossLight with the ReSiPI-style
  silicon-photonic interposer (the paper's proposal),
* :class:`CrossLight25DElec` — the same chiplets on an electrical mesh
  interposer,
* :class:`MonolithicCrossLight` — the original single-chip CrossLight.

Each platform can stand up a **live simulation context**
(:meth:`build_simulation`): a fabric plus its reconfiguration
controller inside a caller-owned :class:`Environment`.  The one-shot
:meth:`run_workload` path builds a fresh context, drives a single
:class:`InferenceEngine` through it and assembles the energy ledger;
the serving layer (:mod:`repro.serving`) builds the same context once
and streams many concurrent requests through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import DEFAULT_PLATFORM, PlatformConfig
from ..dnn.model import Model
from ..dnn.quantization import QuantizationConfig
from ..dnn.workload import InferenceWorkload, extract_workload
from ..errors import UnknownNameError
from ..interposer.base import InterposerFabric
from ..interposer.electrical.mesh import ElectricalMeshFabric
from ..interposer.photonic.awgr import AWGRInterposerFabric
from ..interposer.photonic.controllers import CONTROLLER_FACTORIES
from ..interposer.photonic.fabric import PhotonicInterposerFabric
from ..interposer.photonic.faults import HazardEngine, HazardTimeline
from ..interposer.topology import build_floorplan
from ..mapping.mapper import KernelMatchMapper, ModelMapping
from ..photonics import constants as ph
from ..photonics.microring import MicroringResonator, TuningMechanism
from ..power import params as ep
from ..power.compute_power import mac_fabric_power
from ..sim.core import Environment
from .crosslight import MonolithicFabric, monolithic_mapping
from .engine import ExecutionTrace, InferenceEngine
from .mac_unit import MacUnitSpec, PhotonicMacUnit
from .metrics import EnergyBreakdown, InferenceResult

TUNING_HOLD_ENERGY_J_PER_LANE_OP = 1e-12
"""EO weight-tuning hold energy per lane per vector pass (~2 mW over a
0.5 ns cycle)."""


@dataclass(frozen=True)
class _ComputeEnergy:
    static_w: float
    dynamic_j: float


@dataclass
class PlatformSimulation:
    """A live simulation context a platform stood up in a caller's env.

    Holds everything an execution needs to run requests against the
    platform: the shared fabric, the (optional) reconfiguration
    controller keeping it alive, the MAC rate, the mapping function and
    the simulated-time hang guard the platform wants.
    """

    platform: "_PlatformBase"
    env: Environment
    fabric: InterposerFabric
    controller: object | None
    mac_rate_hz: float
    map_workload: Callable[[InferenceWorkload], ModelMapping]
    time_limit_s: float = 100.0
    hazards: HazardEngine | None = None

    @property
    def reconfigurations(self) -> int:
        """Fabric reconfiguration count so far (0 for passive fabrics)."""
        return getattr(self.fabric, "reconfiguration_count", 0)


class _PlatformBase:
    """Shared run/report plumbing for all three platforms."""

    name: str = "platform"

    def __init__(self, config: PlatformConfig | None = None):
        self.config = config or DEFAULT_PLATFORM

    # -- entry points ---------------------------------------------------------

    def build_simulation(self, env: Environment) -> PlatformSimulation:
        """Stand up the platform's fabric (+ controller) in ``env``."""
        raise NotImplementedError

    def run_model(self, model: Model,
                  quantization: QuantizationConfig | None = None,
                  batch_size: int = 1) -> InferenceResult:
        """Simulate one (batched) inference of a DNN model description."""
        workload = extract_workload(model, quantization)
        return self.run_workload(workload, batch_size=batch_size)

    def run_workload(self, workload: InferenceWorkload,
                     batch_size: int = 1) -> InferenceResult:
        """One isolated inference on a cold fabric: the one-request case."""
        with Environment() as env:
            sim = self.build_simulation(env)
            engine = InferenceEngine(
                env, self.config, sim.fabric,
                mac_rate_hz=sim.mac_rate_hz, batch_size=batch_size,
            )
            mapping = sim.map_workload(workload)
            latency = engine.run(mapping, time_limit_s=sim.time_limit_s)
            compute = self._compute_energy(engine.trace, latency)
            return self._assemble_result(
                workload, engine.trace, sim.fabric, latency, compute,
                self._logic_static_w,
                reconfigurations=sim.reconfigurations,
                batch_size=batch_size,
            )

    # -- energy assembly --------------------------------------------------------

    def _compute_energy(self, trace: ExecutionTrace,
                        elapsed_s: float) -> _ComputeEnergy:
        raise NotImplementedError

    @property
    def _logic_static_w(self) -> float:
        raise NotImplementedError

    def trace_compute_energy_j(self, trace: ExecutionTrace,
                               elapsed_s: float) -> float:
        """Total compute-side energy of a trace over ``elapsed_s``.

        Static fabric + chiplet-logic power integrated over the elapsed
        window plus the dynamic energy of every recorded vector op —
        the serving layer's compute ledger for multi-request runs.
        """
        compute = self._compute_energy(trace, elapsed_s)
        return (
            compute.static_w * elapsed_s
            + compute.dynamic_j
            + self._logic_static_w * elapsed_s
        )

    def _vector_op_energy_j(self, vector_length: int) -> float:
        spec = MacUnitSpec(vector_length=vector_length)
        unit = PhotonicMacUnit(spec)
        return (
            unit.energy_per_vector_op_j()
            + vector_length * TUNING_HOLD_ENERGY_J_PER_LANE_OP
        )

    def _assemble_result(self, workload, trace: ExecutionTrace, fabric,
                         latency, compute: _ComputeEnergy,
                         logic_static_w: float,
                         reconfigurations: int = 0,
                         batch_size: int = 1) -> InferenceResult:
        network = fabric.energy_report()
        trace.record_channel_stats(fabric)
        energy = EnergyBreakdown(
            network_static_j=network.static_energy_j,
            network_dynamic_j=network.dynamic_energy_j,
            compute_static_j=compute.static_w * latency,
            compute_dynamic_j=compute.dynamic_j,
            logic_static_j=logic_static_w * latency,
            detail_j=dict(network.breakdown_j),
        )
        return InferenceResult(
            platform=self.name,
            model=workload.model_name,
            latency_s=latency,
            energy=energy,
            traffic_bits=workload.total_traffic_bits * batch_size,
            layer_timeline=tuple(trace.layer_timings),
            reconfigurations=reconfigurations,
            batch_size=batch_size,
            channel_stats=trace.channel_stats,
        )


class _CrossLight25DBase(_PlatformBase):
    """Common 2.5D machinery: floorplan, mapper, chiplet compute power."""

    def __init__(self, config: PlatformConfig | None = None,
                 mapper: KernelMatchMapper | None = None):
        super().__init__(config)
        self.floorplan = build_floorplan(self.config)
        self.mapper = mapper or KernelMatchMapper(self.config, self.floorplan)

    def map(self, workload: InferenceWorkload) -> ModelMapping:
        """Expose the mapping for inspection and tests."""
        return self.mapper.map_workload(workload)

    def _compute_energy(self, trace: ExecutionTrace,
                        elapsed_s: float) -> _ComputeEnergy:
        static_w = 0.0
        for group in self.config.mac_groups:
            breakdown = mac_fabric_power(
                n_units=group.total_macs,
                vector_length=group.vector_length,
                mac_rate_hz=self.config.mac_rate_hz,
                activity=0.0,
                waveguide_length_m=2e-3,
                trimming=TuningMechanism.ELECTRO_OPTIC,
            )
            static_w += breakdown.total_w
        dynamic_j = 0.0
        for kind, vector_ops in trace.vector_ops_by_kind.items():
            group = self.config.group_by_kind(kind)
            dynamic_j += vector_ops * self._vector_op_energy_j(
                group.vector_length
            )
        return _ComputeEnergy(static_w=static_w, dynamic_j=dynamic_j)

    @property
    def _logic_static_w(self) -> float:
        return (
            self.config.n_compute_chiplets * ep.CHIPLET_LOGIC_STATIC_POWER_W
        )


class CrossLight25DSiPh(_CrossLight25DBase):
    """2.5D CrossLight with the silicon-photonic ReSiPI interposer."""

    def __init__(self, config: PlatformConfig | None = None,
                 controller: str = "resipi",
                 mapper: KernelMatchMapper | None = None,
                 faults: HazardTimeline | None = None):
        super().__init__(config, mapper)
        if controller not in CONTROLLER_FACTORIES:
            raise UnknownNameError(
                "controller", controller, sorted(CONTROLLER_FACTORIES)
            )
        self.controller_name = controller
        self.faults = faults
        self.name = "2.5D-CrossLight-SiPh"
        if controller != "resipi":
            self.name += f"[{controller}]"

    def build_simulation(self, env: Environment) -> PlatformSimulation:
        fabric = PhotonicInterposerFabric(env, self.config, self.floorplan)
        # Hazards attach before the controller boots: the ``t=0`` events
        # of a static fault set constrain the controller's very first
        # decision.
        hazards = (
            HazardEngine(fabric, self.faults) if self.faults else None
        )
        controller = CONTROLLER_FACTORIES[self.controller_name](
            env, fabric, self.config
        )
        return PlatformSimulation(
            platform=self, env=env, fabric=fabric, controller=controller,
            mac_rate_hz=self.config.mac_rate_hz, map_workload=self.map,
            hazards=hazards,
        )


class CrossLight25DElec(_CrossLight25DBase):
    """2.5D CrossLight on the electrical mesh interposer baseline."""

    def __init__(self, config: PlatformConfig | None = None,
                 mapper: KernelMatchMapper | None = None):
        super().__init__(config, mapper)
        self.name = "2.5D-CrossLight-Elec"

    def build_simulation(self, env: Environment) -> PlatformSimulation:
        fabric = ElectricalMeshFabric(env, self.config, self.floorplan)
        return PlatformSimulation(
            platform=self, env=env, fabric=fabric, controller=None,
            mac_rate_hz=self.config.mac_rate_hz, map_workload=self.map,
            time_limit_s=1000.0,
        )


class CrossLight25DAWGR(_CrossLight25DBase):
    """2.5D CrossLight on an AWGR all-to-all interposer ([10]-style).

    Topology ablation baseline: passive cyclic wavelength routing gives
    every chiplet pair a fixed comb slice, with no reconfiguration and
    no broadcast — see :mod:`repro.interposer.photonic.awgr`.
    """

    def __init__(self, config: PlatformConfig | None = None,
                 mapper: KernelMatchMapper | None = None):
        super().__init__(config, mapper)
        self.name = "2.5D-CrossLight-AWGR"

    def build_simulation(self, env: Environment) -> PlatformSimulation:
        fabric = AWGRInterposerFabric(env, self.config, self.floorplan)
        return PlatformSimulation(
            platform=self, env=env, fabric=fabric, controller=None,
            mac_rate_hz=self.config.mac_rate_hz, map_workload=self.map,
        )


class MonolithicCrossLight(_PlatformBase):
    """The original single-chip CrossLight [21]."""

    def __init__(self, config: PlatformConfig | None = None):
        super().__init__(config)
        self.name = "CrossLight"

    def build_simulation(self, env: Environment) -> PlatformSimulation:
        fabric = MonolithicFabric(env, self.config)

        def map_workload(workload: InferenceWorkload) -> ModelMapping:
            return monolithic_mapping(workload, self.config)

        return PlatformSimulation(
            platform=self, env=env, fabric=fabric, controller=None,
            mac_rate_hz=self.config.mono_mac_rate_hz,
            map_workload=map_workload,
        )

    def _compute_energy(self, trace: ExecutionTrace,
                        elapsed_s: float) -> _ComputeEnergy:
        breakdown = mac_fabric_power(
            n_units=self.config.mono_n_vdp_units,
            vector_length=self.config.mono_vector_length,
            mac_rate_hz=self.config.mono_mac_rate_hz,
            activity=0.0,
            waveguide_length_m=self.config.mono_die_edge_mm * 1e-3,
            trimming=TuningMechanism.THERMO_OPTIC,
        )
        dynamic_j = trace.total_vector_ops * self._vector_op_energy_j(
            self.config.mono_vector_length
        )
        return _ComputeEnergy(
            static_w=breakdown.total_w, dynamic_j=dynamic_j
        )

    @property
    def _logic_static_w(self) -> float:
        return ep.MONO_LOGIC_STATIC_POWER_W


ALL_PLATFORMS = {
    "CrossLight": MonolithicCrossLight,
    "2.5D-CrossLight-Elec": CrossLight25DElec,
    "2.5D-CrossLight-SiPh": CrossLight25DSiPh,
}
"""Platform constructors keyed by the names Table 3 uses."""

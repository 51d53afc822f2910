"""2.5D CrossLight on the silicon-photonic ReSiPI interposer: the
paper's proposal, with its reconfiguration controller and, when a
fault section names them, the photonic hazard engine."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import PlatformConfig
from ..errors import UnknownNameError
from ..interposer.photonic.controllers import CONTROLLER_FACTORIES
from ..interposer.photonic.fabric import PhotonicInterposerFabric
from ..mapping.mapper import KernelMatchMapper
from ..sim.core import Environment
from .accelerator import PlatformSimulation, _CrossLight25DBase

if TYPE_CHECKING:
    from ..interposer.photonic.faults import HazardTimeline


class CrossLight25DSiPh(_CrossLight25DBase):
    """2.5D CrossLight with the silicon-photonic ReSiPI interposer.

    Lowering a fault section loads the hazard engine that ``faults``
    needs, so a fault-free platform never imports it.
    """

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
        hazards = None
        if self.faults:
            from ..interposer.photonic.faults import HazardEngine

            hazards = HazardEngine(fabric, self.faults)
        controller = CONTROLLER_FACTORIES[self.controller_name](
            env, fabric, self.config
        )
        return PlatformSimulation(
            platform=self, env=env, fabric=fabric, controller=controller,
            mac_rate_hz=self.config.mac_rate_hz, map_workload=self.map,
            hazards=hazards,
        )


def build_25d_siph(config: PlatformConfig, controller: str,
                   faults: HazardTimeline | None = None):
    """``PLATFORMS`` factory: the only platform with a fault model."""
    return CrossLight25DSiPh(config, controller=controller, faults=faults)

"""2.5D CrossLight on the electrical mesh interposer baseline."""

from __future__ import annotations

from ..config import PlatformConfig
from ..interposer.electrical.mesh import ElectricalMeshFabric
from ..mapping.mapper import KernelMatchMapper
from ..sim.core import Environment
from .accelerator import PlatformSimulation, _CrossLight25DBase, reject_faults


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


def build_25d_elec(config: PlatformConfig, controller: str, faults=None):
    """``PLATFORMS`` factory (the controller name is ignored)."""
    reject_faults("2.5D-CrossLight-Elec", faults)
    return CrossLight25DElec(config)

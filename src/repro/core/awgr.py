"""2.5D CrossLight on an AWGR all-to-all interposer ([10]-style)."""

from __future__ import annotations

from ..config import PlatformConfig
from ..interposer.photonic.awgr import AWGRInterposerFabric
from ..mapping.mapper import KernelMatchMapper
from ..sim.core import Environment
from .accelerator import PlatformSimulation, _CrossLight25DBase, reject_faults


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


def build_25d_awgr(config: PlatformConfig, controller: str, faults=None):
    """``PLATFORMS`` factory (the controller name is ignored)."""
    reject_faults("2.5D-CrossLight-AWGR", faults)
    return CrossLight25DAWGR(config)

"""Reconfiguration controllers for the photonic interposer.

Three policies, matching Section IV of the paper:

* :class:`ReSiPIController` [37] — monitors per-chiplet traffic in time
  epochs and tunes the **number of active gateways** through PCM
  couplers; laser power follows the active-gateway count.
* :class:`ProwavesController` [11] — tunes the **number of active
  wavelengths** globally with respect to traffic load.
* :class:`StaticController` — everything always on (the passive-network
  upper bound on performance and power; ablation baseline).

Each controller is a kernel entry of its own, like a bandwidth
channel: it wakes at every epoch boundary, closes the fabric's traffic
epoch, applies its decision (PCMC/laser switching costs are charged by
the fabric), and queues itself for the next boundary.  No process,
generator or timeout is involved.
"""

from __future__ import annotations

import heapq
import math

from ...config import PlatformConfig
from ...sim.core import Entry, Environment
from .fabric import PhotonicInterposerFabric

_heappush = heapq.heappush


class _EpochController(Entry):
    """A controller that queues itself once per epoch.

    :meth:`_boot` queues an immediate entry at construction, where a
    process's bootstrap was, so the first epoch keeps its sequence
    position.  Every step ends in :meth:`_next_epoch`, which queues the
    entry one epoch later with :meth:`_step` as its action — where a
    process's ``yield env.timeout(epoch)`` inserted its timeout.
    """

    def _boot(self, env: Environment, epoch_s: float) -> None:
        self.env = env
        self.epoch_s = epoch_s
        self._processed = False
        self._action = type(self)._step
        self.callbacks = _EpochController._next_epoch
        seq = env._sequence = env._sequence + 1
        env._immediate.append((seq, self))

    def _next_epoch(self) -> None:
        self.callbacks = self._action
        env = self.env
        seq = env._sequence = env._sequence + 1
        _heappush(env._queue, (env._now + self.epoch_s, seq, self))


class ReSiPIController(_EpochController):
    """Epoch-driven gateway scaling via PCM couplers (ReSiPI [37])."""

    def __init__(
        self,
        env: Environment,
        fabric: PhotonicInterposerFabric,
        config: PlatformConfig,
        headroom: float = 1.25,
    ):
        self.fabric = fabric
        self.config = config
        self.headroom = headroom
        self.decision_log: list[dict[str, int]] = []
        # Per chiplet, in inventory order: its id, its monitor keys and
        # its inventory.
        self._chiplets = [
            (chiplet_id, f"write:{chiplet_id}", f"read:{chiplet_id}",
             inventory.n_write_gateways, inventory.n_read_gateways)
            for chiplet_id, inventory in fabric.inventories.items()
        ]
        # A silent epoch wants one gateway everywhere.
        self._idle_counts = [(1, 1)] * len(self._chiplets)
        self._idle_decisions = {"mem": 1,
                                **dict.fromkeys(fabric.inventories, 2)}
        # Start minimal: one gateway everywhere; traffic wakes more up.
        fabric.configure_gateways(1, self._idle_counts)
        self._boot(env, config.resipi_epoch_s)

    def _gateways_for_demand(self, demand_bps: float, maximum: int) -> int:
        """Gateways needed to serve a demand with headroom, at least one."""
        if demand_bps <= 0.0:
            return 1
        gateway_bw = self.config.gateway_bandwidth_bps
        needed = math.ceil(self.headroom * demand_bps / gateway_bw)
        return max(1, min(maximum, needed))

    def _step(self) -> None:
        fabric = self.fabric
        monitor = fabric.monitor
        traffic = monitor.close_epoch()
        if not traffic:
            fabric.configure_gateways(1, self._idle_counts)
            self.decision_log.append(self._idle_decisions.copy())
            self._next_epoch()
            return
        # Demand is each key's bits over the epoch, as
        # ``monitor.demanded_bandwidth_bps`` divides them; a key without
        # traffic this epoch wants one gateway.
        epoch_s = monitor.epoch_length_s
        gateways = self._gateways_for_demand
        bits = traffic.get("mem_read")
        n_memory = 1 if bits is None else gateways(
            bits / epoch_s, self.config.n_memory_write_gateways
        )
        decisions = {"mem": n_memory}
        counts = []
        for chiplet_id, write_key, read_key, max_write, max_read in (
            self._chiplets
        ):
            bits = traffic.get(write_key)
            n_write = 1 if bits is None else gateways(bits / epoch_s,
                                                      max_write)
            bits = traffic.get(read_key)
            n_read = 1 if bits is None else gateways(bits / epoch_s,
                                                     max_read)
            counts.append((n_write, n_read))
            decisions[chiplet_id] = n_read + n_write
        # The fabric pays only for the banks this decision changes.
        fabric.configure_gateways(n_memory, counts)
        self.decision_log.append(decisions)
        self._next_epoch()


class ProwavesController(_EpochController):
    """Epoch-driven wavelength scaling (PROWAVES [11]).

    All gateways stay active; the controller scales the active share of
    the wavelength comb to match the *peak* per-channel demand, because
    every channel shares the comb of the single laser source.
    """

    def __init__(
        self,
        env: Environment,
        fabric: PhotonicInterposerFabric,
        config: PlatformConfig,
        headroom: float = 1.25,
    ):
        self.fabric = fabric
        self.config = config
        self.headroom = headroom
        self.decision_log: list[float] = []
        # Gateways sharing each monitored channel's load.
        self._gateways = {"mem_read": config.n_memory_write_gateways}
        for chiplet_id, inventory in fabric.inventories.items():
            self._gateways[f"read:{chiplet_id}"] = inventory.n_read_gateways
            self._gateways[f"write:{chiplet_id}"] = (
                inventory.n_write_gateways
            )
        fabric.set_wavelength_fraction(1.0 / config.n_wavelengths)
        self._boot(env, config.resipi_epoch_s)

    def _step(self) -> None:
        fabric = self.fabric
        monitor = fabric.monitor
        traffic = monitor.close_epoch()
        n_lambda = self.config.n_wavelengths
        # Peak per-gateway demand across channels sets the comb size;
        # channels without traffic this epoch cannot raise it, so a
        # silent epoch wants one comb line.
        peak = 0.0
        if traffic:
            epoch_s = monitor.epoch_length_s
            gateways = self._gateways
            for key, bits in traffic.items():
                demand = bits / epoch_s / gateways[key]
                if demand > peak:  # max(peak, demand)
                    peak = demand
        wanted = math.ceil(
            self.headroom * peak / self.config.wavelength_data_rate_bps
        )
        fraction = max(1, min(n_lambda, wanted)) / n_lambda
        fabric.set_wavelength_fraction(fraction)
        self.decision_log.append(fraction)
        self._next_epoch()


class StaticController(_EpochController):
    """No reconfiguration: all gateways and wavelengths always active."""

    def __init__(
        self,
        env: Environment,
        fabric: PhotonicInterposerFabric,
        config: PlatformConfig,
    ):
        self.fabric = fabric
        self.decision_log: list[None] = []
        # The fabric boots fully active; drain epochs so monitors don't grow.
        self._boot(env, config.resipi_epoch_s)

    def _step(self) -> None:
        self.fabric.monitor.close_epoch()
        self._next_epoch()


CONTROLLER_FACTORIES = {
    "resipi": ReSiPIController,
    "prowaves": ProwavesController,
    "static": StaticController,
}
"""Controller constructors keyed by policy name."""

EPOCH_CONTROLLERS = ("resipi", "prowaves")
"""Controllers whose decisions fire on the config's epoch length
(``resipi_epoch_s``): the spec-level ``platform.controller_epoch_s``
knob applies only to these — the static controller drains monitors on
the same period but never acts on it, so the knob would be inert."""

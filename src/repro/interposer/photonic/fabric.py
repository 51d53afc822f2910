"""Silicon-photonic interposer fabric (Section V, Fig. 6).

Transfer paths are staged pipelines of bandwidth channels:

* **read** (memory -> compute): HBM internal port -> memory writer
  gateways (SWMR channels, aggregated elastically) -> destination
  chiplet's reader gateways.  Multicast charges the shared stages once.
* **write** (compute -> memory): source chiplet's writer gateways (SWSR
  channels) -> HBM internal port.

Gateway counts are *elastic*: a reconfiguration controller (ReSiPI,
PROWAVES, or a static policy) owns how many gateways/wavelengths are
active, and the fabric exposes ``set_*``/``configure_gateways`` hooks
that rescale the channel bandwidths and the power-accounting signals.
Hazards own how many gateways are alive and how much of the comb is
usable (``fail_gateways``, ``repair_gateways``,
``set_usable_wavelength_fraction``); the fabric clamps every controller
decision to them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from ...config import PlatformConfig
from ...errors import ConfigurationError
from ...photonics import constants as ph
from ...photonics.laser import LaserSource
from ...photonics.photodetector import Photodetector
from ...power import params as ep
from ...sim.core import Entry, Environment, Event
from ...sim.resources import (
    BandwidthChannel,
    Transfer,
    check_payload,
    send_payload,
)
from ...sim.stats import EpochTrafficMonitor, TimeWeightedValue
from ..base import DEFAULT_CHUNK_BITS, InterposerFabric, NetworkEnergyReport
from ..topology import Floorplan
from .links import swmr_read_budget, worst_case_write_budget

PHOTONIC_DYNAMIC_J_PER_BIT = (
    2.0 * ph.SERDES_ENERGY_J_PER_BIT
    + ph.MODULATOR_DRIVER_ENERGY_J_PER_BIT
    + 2.0 * ep.MICROBUMP_ENERGY_J_PER_BIT
)
"""Per-bit dynamic energy of one interposer traversal: serialize +
modulate + receive + deserialize + two microbump crossings."""

_heappush = heapq.heappush


@dataclass(frozen=True)
class GatewayInventory:
    """Gateway counts for one compute chiplet."""

    chiplet_id: str
    n_write_gateways: int
    n_read_gateways: int


class _ChipletGateways:
    """One compute chiplet's writer and reader banks, as the fabric drives
    them.

    ``n_write``/``n_read`` are the active counts (``*_signal`` integrate
    them for power accounting) and ``cap_*`` the gateways still alive.
    ``settled_scale`` is the per-gateway rate both channels are known to
    run at for the active counts, with no PCMC switch pending; ``None``
    after a count change, until a configuration confirms it.
    """

    __slots__ = ("chiplet_id", "max_write", "max_read", "cap_write",
                 "cap_read", "n_write", "n_read", "write_channel",
                 "read_channel", "write_signal", "read_signal",
                 "settled_scale")

    def __init__(self, env: Environment, inventory: GatewayInventory,
                 write_channel: BandwidthChannel,
                 read_channel: BandwidthChannel):
        self.chiplet_id = inventory.chiplet_id
        self.max_write = self.cap_write = self.n_write = (
            inventory.n_write_gateways
        )
        self.max_read = self.cap_read = self.n_read = (
            inventory.n_read_gateways
        )
        self.write_channel = write_channel
        self.read_channel = read_channel
        self.write_signal = TimeWeightedValue(env, float(self.n_write))
        self.read_signal = TimeWeightedValue(env, float(self.n_read))
        self.settled_scale: float | None = None


class _PcmcSwitch(Entry):
    """One capacity increase still switching in the PCM cells.

    A kernel entry of its own, no process.  It is queued in the
    immediate queue when the increase is decided; when that entry fires
    it queues itself ``PCMC_SWITCHING_TIME_S`` later.  The switch time
    equals the default 1 us epoch, so queuing the timer only then keeps
    the switch behind the next epoch's decision, as a process's
    bootstrap did.  It then applies its rate unless a newer decision
    superseded it.
    """

    __slots__ = ("fabric", "channel", "target_bps")

    def __init__(self, fabric: "PhotonicInterposerFabric",
                 channel: BandwidthChannel, target_bps: float):
        self.fabric = fabric
        self.channel = channel
        self.target_bps = target_bps
        self._processed = False
        self.callbacks = _PcmcSwitch._start
        env = fabric.env
        seq = env._sequence = env._sequence + 1
        env._immediate.append((seq, self))

    def _start(self) -> None:
        self.callbacks = _PcmcSwitch._land
        env = self.fabric.env
        seq = env._sequence = env._sequence + 1
        _heappush(env._queue,
                  (env._now + ph.PCMC_SWITCHING_TIME_S, seq, self))

    def _land(self) -> None:
        fabric = self.fabric
        channel = self.channel
        target = self.target_bps
        if (fabric._desired_bandwidth.get(channel.name) == target
                and channel._bandwidth_bps != target):
            channel.set_bandwidth(target)
            fabric._unsettle()


class PhotonicInterposerFabric(InterposerFabric):
    """The reconfigurable photonic interposer network."""

    def __init__(
        self,
        env: Environment,
        config: PlatformConfig,
        floorplan: Floorplan,
        chunk_bits: float = DEFAULT_CHUNK_BITS,
    ):
        super().__init__(env)
        self.config = config
        self.floorplan = floorplan
        self.chunk_bits = chunk_bits
        self._gateway_bw = config.gateway_bandwidth_bps
        # The comb share the channels run at: the controller's request,
        # cut while a hazard holds part of the comb out of lock.
        self._wavelength_fraction = 1.0
        self._controller_fraction = 1.0
        self._usable_fraction = 1.0

        # -- channels -----------------------------------------------------
        self.hbm_channel = BandwidthChannel(
            env, config.hbm_internal_bandwidth_bps, name="hbm"
        )
        self.memory_write_channel = BandwidthChannel(
            env,
            config.n_memory_write_gateways * self._gateway_bw,
            name="mem-write-gateways",
        )
        self.chiplet_read_channels: dict[str, BandwidthChannel] = {}
        self.chiplet_write_channels: dict[str, BandwidthChannel] = {}
        self.inventories: dict[str, GatewayInventory] = {}
        for site in floorplan.compute_sites:
            group = config.group_by_kind(site.kind)
            inventory = GatewayInventory(
                chiplet_id=site.chiplet_id,
                n_write_gateways=group.gateways_per_chiplet,
                n_read_gateways=group.gateways_per_chiplet,
            )
            self.inventories[site.chiplet_id] = inventory
            self.chiplet_read_channels[site.chiplet_id] = BandwidthChannel(
                env,
                inventory.n_read_gateways * self._gateway_bw,
                name=f"{site.chiplet_id}-read",
            )
            self.chiplet_write_channels[site.chiplet_id] = BandwidthChannel(
                env,
                inventory.n_write_gateways * self._gateway_bw,
                name=f"{site.chiplet_id}-write",
            )

        # -- controller-visible state ------------------------------------------
        self.active_memory_gateways = TimeWeightedValue(
            env, float(config.n_memory_write_gateways)
        )
        self._chiplets = {
            chiplet_id: _ChipletGateways(
                env, inventory, self.chiplet_write_channels[chiplet_id],
                self.chiplet_read_channels[chiplet_id],
            )
            for chiplet_id, inventory in self.inventories.items()
        }
        self.active_write_gateways: dict[str, TimeWeightedValue] = {
            chiplet_id: bank.write_signal
            for chiplet_id, bank in self._chiplets.items()
        }
        self.active_read_gateways: dict[str, TimeWeightedValue] = {
            chiplet_id: bank.read_signal
            for chiplet_id, bank in self._chiplets.items()
        }
        # Memory writer gateways still alive (hazards lower it).
        self._memory_cap = config.n_memory_write_gateways
        self.monitor = EpochTrafficMonitor(env, config.resipi_epoch_s)
        self.pcmc_energy_j = 0.0
        self.reconfiguration_count = 0
        self._desired_bandwidth: dict[str, float] = {}
        # The decision and the comb share known to leave the fabric as
        # it is when applied again (see :meth:`configure_gateways` and
        # :meth:`set_wavelength_fraction`); ``None`` until one is.
        self._settled_memory: int | None = None
        self._settled_chiplets: list[tuple[int, int]] | None = None
        self._settled_share: float | None = None

        # -- power-model ingredients ---------------------------------------------
        detector = Photodetector()
        laser = LaserSource.off_chip()
        read_budget = swmr_read_budget(config, floorplan)
        write_budget = worst_case_write_budget(config, floorplan)
        self._laser_w_per_mem_gateway = laser.electrical_power_w(
            read_budget.required_on_chip_power_w(detector)
            * config.n_wavelengths
        )
        self._laser_w_per_compute_gateway = laser.electrical_power_w(
            write_budget.required_on_chip_power_w(detector)
            * config.n_wavelengths
        )
        self._propagation_delay_s = (
            floorplan.broadcast_waveguide_length_m("mem-0")
            * ph.GROUP_INDEX_SOI
            / 299_792_458.0
        )
        self._transfer_tail_s = (
            self._propagation_delay_s
            + config.gateway_conversion_latency_s
            + config.gateway_protocol_overhead_s
        )

        # Routes as (channels, epoch-monitor key per channel): a read
        # crosses the HBM port, the SWMR writer stage and the reader
        # gateways; a multicast read shares the first two and fans out
        # over one reader leg per destination.
        self._read_head = (
            (self.hbm_channel, self.memory_write_channel), (None, "mem_read")
        )
        self._read_routes: dict[str, tuple] = {}
        self._reader_legs: dict[str, tuple] = {}
        self._write_routes: dict[str, tuple] = {}
        for chiplet_id, reader in self.chiplet_read_channels.items():
            read_key = f"read:{chiplet_id}"
            self._read_routes[chiplet_id] = (
                self._read_head[0] + (reader,),
                self._read_head[1] + (read_key,),
            )
            self._reader_legs[chiplet_id] = ((reader,), (read_key,))
            self._write_routes[chiplet_id] = (
                (self.chiplet_write_channels[chiplet_id], self.hbm_channel),
                (f"write:{chiplet_id}", None),
            )

    # -- controller hooks ---------------------------------------------------------

    def _apply_bandwidth(self, channel: BandwidthChannel, target_bps: float,
                         increase: bool) -> None:
        """Apply a channel bandwidth change, honouring PCMC write time.

        Capacity reductions are immediate (light simply stops being
        delivered); capacity increases only take effect once the PCM
        cells have been re-amorphised (~1 us), so a demand spike pays one
        epoch of lag — the ReSiPI behaviour.
        """
        if (channel._bandwidth_bps == target_bps
                and self._desired_bandwidth.get(channel.name) == target_bps):
            # Already at (and settled on) this rate: re-asserting it is
            # a no-op either way.
            return
        self._desired_bandwidth[channel.name] = target_bps
        if not increase:
            channel.set_bandwidth(target_bps)
            return
        _PcmcSwitch(self, channel, target_bps)

    def _unsettle(self) -> None:
        """End both shortcuts: the next decision and the next comb share
        take the full path."""
        self._settled_memory = self._settled_chiplets = None
        self._settled_share = None

    def set_active_memory_gateways(self, count: int) -> None:
        """Rescale the memory-side SWMR write capacity.

        ``count`` must lie within the inventory; it is clamped to the
        gateways still alive (see :meth:`fail_gateways`).
        """
        maximum = self.config.n_memory_write_gateways
        if not 1 <= count <= maximum:
            raise ConfigurationError(
                f"memory gateways must be in [1, {maximum}], got {count}"
            )
        count = min(count, self._memory_cap)
        previous = int(self.active_memory_gateways.value)
        self._unsettle()
        if count != previous:
            self.reconfiguration_count += 1
            self.pcmc_energy_j += ph.PCMC_SWITCHING_ENERGY_J * abs(
                count - previous
            )
            self.active_memory_gateways.set(float(count))
        self._apply_bandwidth(
            self.memory_write_channel,
            count * self._gateway_bw * self._wavelength_fraction,
            increase=count > previous,
        )

    def set_active_chiplet_gateways(
        self, chiplet_id: str, n_write: int, n_read: int
    ) -> None:
        """Rescale one compute chiplet's gateway counts.

        Counts must lie within the chiplet's inventory; they are clamped
        to the gateways still alive (see :meth:`fail_gateways`).
        """
        bank = self._chiplets[chiplet_id]
        if not 1 <= n_write <= bank.max_write:
            raise ConfigurationError(
                f"{chiplet_id}: write gateways must be in "
                f"[1, {bank.max_write}], got {n_write}"
            )
        if not 1 <= n_read <= bank.max_read:
            raise ConfigurationError(
                f"{chiplet_id}: read gateways must be in "
                f"[1, {bank.max_read}], got {n_read}"
            )
        n_write = min(n_write, bank.cap_write)
        n_read = min(n_read, bank.cap_read)
        previous_write = bank.n_write
        previous_read = bank.n_read
        self._unsettle()
        delta = abs(n_write - previous_write) + abs(n_read - previous_read)
        if delta:
            self.reconfiguration_count += 1
            self.pcmc_energy_j += ph.PCMC_SWITCHING_ENERGY_J * delta
            bank.n_write = n_write
            bank.n_read = n_read
            bank.write_signal.set(float(n_write))
            bank.read_signal.set(float(n_read))
        bank.settled_scale = None
        scale = self._gateway_bw * self._wavelength_fraction
        self._apply_bandwidth(
            bank.write_channel, n_write * scale,
            increase=n_write > previous_write,
        )
        self._apply_bandwidth(
            bank.read_channel, n_read * scale,
            increase=n_read > previous_read,
        )

    def configure_gateways(self, n_memory: int,
                           chiplets: Sequence[tuple[int, int]]) -> None:
        """Apply a whole-fabric gateway configuration (one epoch decision).

        ``chiplets`` holds one ``(n_write, n_read)`` pair per compute
        chiplet, in :attr:`inventories` order.  The effect is exactly
        ``set_active_memory_gateways(n_memory)`` followed by
        ``set_active_chiplet_gateways`` for every chiplet, but only
        chiplet banks whose count changes take that path; the rest
        retune their channels if the comb share moved.

        Most epochs repeat the last decision.  One that asks for the
        active counts, with every bank settled at the current comb share
        and the memory channel at its target with no PCMC switch
        pending, returns after one comparison: applying it would change
        nothing.  A full pass that changes no count leaves the fabric in
        that state; any other hook call, hazard or landing switch that
        moves a rate ends it.
        """
        if (chiplets == self._settled_chiplets
                and n_memory == self._settled_memory):
            return
        if len(chiplets) != len(self._chiplets):
            raise ConfigurationError(
                f"configuration names {len(chiplets)} chiplet(s); the "
                f"fabric has {len(self._chiplets)}"
            )
        settled = n_memory == self.active_memory_gateways.value
        self.set_active_memory_gateways(n_memory)
        scale = self._gateway_bw * self._wavelength_fraction
        for bank, (n_write, n_read) in zip(self._chiplets.values(), chiplets):
            if n_write != bank.n_write or n_read != bank.n_read:
                self.set_active_chiplet_gateways(
                    bank.chiplet_id, n_write, n_read
                )
                settled = False
            elif bank.settled_scale != scale:
                self._settle(bank, scale)
        if settled:
            self._settled_memory = n_memory
            self._settled_chiplets = list(chiplets)

    def _settle(self, bank: _ChipletGateways, scale: float) -> None:
        """Run both channels of ``bank`` at its active counts × ``scale``.

        With the counts unchanged nothing waits on a PCMC switch: a new
        comb share, or an increase still switching, applies at once (a
        switch still in flight then lands on the rate it finds, or finds
        itself superseded).  Exactly ``_apply_bandwidth(channel, count *
        scale, increase=False)`` for each channel, inline; the rates are
        written directly, as counts of at least one gateway and a
        positive comb share keep them positive.
        """
        desired = self._desired_bandwidth
        channel = bank.write_channel
        desired[channel.name] = channel._bandwidth_bps = bank.n_write * scale
        channel = bank.read_channel
        desired[channel.name] = channel._bandwidth_bps = bank.n_read * scale
        bank.settled_scale = scale

    def set_wavelength_fraction(self, fraction: float) -> None:
        """Scale every channel's active wavelength share (PROWAVES).

        While a hazard holds part of the comb out of lock (see
        :meth:`set_usable_wavelength_fraction`), the channels run at this
        request times the usable share, never below one comb line.  A
        share already in force, with every bank settled on it, returns
        at once.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"wavelength fraction must be in (0, 1], got {fraction}"
            )
        if fraction == self._settled_share:
            return
        self._controller_fraction = fraction
        self._apply_wavelength_fraction()

    # -- hazard hooks ------------------------------------------------------------

    def fail_gateways(self, memory: int,
                      chiplets: Iterable[tuple[str, int, int]]) -> None:
        """Gateways die: ``memory`` memory-side writers, and chiplet
        writers/readers per ``(chiplet_id, n_write, n_read)``.

        Every later decision is clamped to the survivors, and the active
        configuration is re-applied through the new caps at once.
        """
        self._shift_caps(-1, memory, chiplets)
        self.set_active_memory_gateways(
            int(self.active_memory_gateways.value)
        )
        for bank in self._chiplets.values():
            self.set_active_chiplet_gateways(
                bank.chiplet_id, bank.n_write, bank.n_read
            )

    def repair_gateways(self, memory: int,
                        chiplets: Iterable[tuple[str, int, int]]) -> None:
        """Failed gateways come back (same arguments as
        :meth:`fail_gateways`).

        Capacity is restored, not activity: the controller scales the
        channels back up on its next decision.
        """
        self._shift_caps(1, memory, chiplets)

    def surviving_memory_gateways(self) -> int:
        """Memory writer gateways still alive."""
        return self._memory_cap

    def surviving_chiplet_gateways(self, chiplet_id: str) -> tuple[int, int]:
        """(write, read) gateways of one chiplet still alive."""
        bank = self._chiplets[chiplet_id]
        return bank.cap_write, bank.cap_read

    def _shift_caps(self, sign: int, memory: int,
                    chiplets: Iterable[tuple[str, int, int]]) -> None:
        self._unsettle()
        self._memory_cap += sign * memory
        for chiplet_id, n_write, n_read in chiplets:
            bank = self._chiplets[chiplet_id]
            bank.cap_write += sign * n_write
            bank.cap_read += sign * n_read

    def set_usable_wavelength_fraction(self, fraction: float) -> None:
        """Set the share of the comb still locked and lit (1.0 = all)."""
        self._usable_fraction = fraction
        self._apply_wavelength_fraction()

    def _apply_wavelength_fraction(self) -> None:
        """Retune every channel to the comb share now in force, each
        channel once."""
        fraction = self._controller_fraction
        if self._usable_fraction < 1.0:
            fraction = max(1.0 / self.config.n_wavelengths,
                           fraction * self._usable_fraction)
        self._wavelength_fraction = fraction
        self.memory_write_channel.set_bandwidth(
            self.active_memory_gateways.value * self._gateway_bw * fraction
        )
        scale = self._gateway_bw * fraction
        for bank in self._chiplets.values():
            if bank.settled_scale != scale:
                self._settle(bank, scale)
        self._unsettle()
        self._settled_share = self._controller_fraction

    def iter_channels(self):
        """HBM port, SWMR writer stage, then per-chiplet reader/writers."""
        yield self.hbm_channel
        yield self.memory_write_channel
        yield from self.chiplet_read_channels.values()
        yield from self.chiplet_write_channels.values()

    # -- transfers -------------------------------------------------------------------

    def read(self, dst_chiplet: str, bits: float,
             multicast: tuple[str, ...] | None = None) -> Event:
        """Memory -> chiplet(s) transfer; multicast shares the SWMR stage.

        The payload crosses the HBM port, then the SWMR writer stage
        (recorded as ``mem_read``), which fans out to each destination's
        reader gateways (recorded as ``read:<chiplet>``); one
        propagation/conversion tail follows once every destination has
        drained.  Traffic is recorded per chunk as it is served, so the
        epoch monitor sees *sustained* load while a long message drains
        — the signal the reconfiguration controllers ramp on.
        """
        check_payload(bits)
        destinations = multicast if multicast else (dst_chiplet,)
        self.bits_read += bits  # shared-medium payload charged once
        done = Transfer(self.env, len(destinations), self._transfer_tail_s)
        if bits == 0:
            done.succeed()
        elif len(destinations) == 1:
            route, keys = self._read_routes[destinations[0]]
            send_payload(done, bits, self.chunk_bits, route, keys,
                         self.monitor)
        else:
            route, keys = self._read_head
            send_payload(
                done, bits, self.chunk_bits, route, keys, self.monitor,
                branches=tuple(self._reader_legs[destination]
                               for destination in destinations),
            )
        return done

    def write(self, src_chiplet: str, bits: float) -> Event:
        """Chiplet -> memory transfer over the chiplet's SWSR channels."""
        check_payload(bits)
        self.bits_written += bits
        done = Transfer(self.env, 1, self._transfer_tail_s)
        if bits == 0:
            done.succeed()
        else:
            route, keys = self._write_routes[src_chiplet]
            send_payload(done, bits, self.chunk_bits, route, keys,
                         self.monitor)
        return done

    # -- energy ------------------------------------------------------------------------

    def energy_report(self) -> NetworkEnergyReport:
        """Integrate static power signals and dynamic per-bit energies."""
        elapsed = self.env.now
        n_lambda = self.config.n_wavelengths * self._wavelength_fraction

        # Laser: proportional to active writer gateways on each side.
        laser_j = (
            self.active_memory_gateways.integral()
            * self._laser_w_per_mem_gateway
        )
        compute_writer_integral = sum(
            signal.integral() for signal in self.active_write_gateways.values()
        )
        laser_j += compute_writer_integral * self._laser_w_per_compute_gateway

        # Per-active-gateway electronics (writer: modulators + buffers;
        # reader: TIAs + buffers), per wavelength where applicable.
        writer_static_w = (
            ph.MODULATOR_STATIC_POWER_W * n_lambda
            + ph.GATEWAY_BUFFER_STATIC_POWER_W
        )
        reader_static_w = (
            ph.PD_TIA_POWER_W * n_lambda + ph.GATEWAY_BUFFER_STATIC_POWER_W
        )
        writer_integral = (
            self.active_memory_gateways.integral() + compute_writer_integral
        )
        reader_integral = sum(
            signal.integral() for signal in self.active_read_gateways.values()
        )
        # Memory-side filter rows listen to compute writers: one row per
        # active compute writer gateway.
        reader_integral += compute_writer_integral
        electronics_j = (
            writer_integral * writer_static_w
            + reader_integral * reader_static_w
        )

        # Ring trimming on active gateway rows.  MRG rows are held on the
        # DWDM grid with thermo-optic trimming (ReSiPI's PCMs gate optical
        # power; they do not replace resonance trimming), which is why the
        # photonic interposer carries a notable power overhead (Table 3).
        trim_per_row_w = (
            n_lambda
            * ph.MR_TO_TUNING_POWER_W_PER_NM
            * ph.MR_THERMAL_TRIMMING_NM
        )
        trimming_j = (writer_integral + reader_integral) * trim_per_row_w

        controller_j = ep.RESIPI_CONTROLLER_POWER_W * elapsed

        dynamic_j = (
            self.total_bits_moved * PHOTONIC_DYNAMIC_J_PER_BIT
            + (self.bits_read + self.bits_written) * ep.HBM_ENERGY_J_PER_BIT
            + self.pcmc_energy_j
        )
        static_j = (
            laser_j
            + electronics_j
            + trimming_j
            + controller_j
            + ep.HBM_STATIC_POWER_W * elapsed
            + ep.MEMORY_CHIPLET_LOGIC_STATIC_POWER_W * elapsed
        )
        return NetworkEnergyReport(
            elapsed_s=elapsed,
            static_energy_j=static_j,
            dynamic_energy_j=dynamic_j,
            breakdown_j={
                "laser": laser_j,
                "gateway_electronics": electronics_j,
                "ring_trimming": trimming_j,
                "controller": controller_j,
                "hbm_static": ep.HBM_STATIC_POWER_W * elapsed,
                "hbm_dynamic": (self.bits_read + self.bits_written)
                * ep.HBM_ENERGY_J_PER_BIT,
                "serdes_modulate_receive": self.total_bits_moved
                * PHOTONIC_DYNAMIC_J_PER_BIT,
                "pcmc_switching": self.pcmc_energy_j,
            },
        )

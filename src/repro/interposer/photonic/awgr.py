"""AWGR-based photonic interposer (the [10] alternative).

Section IV describes arrayed-waveguide-grating-router interposers as the
other photonic option: an N x N AWGR provides passive all-to-all
connectivity by cyclic wavelength routing — wavelength ``w`` entering
input port ``p`` exits output port ``(p + w) mod N``.  Every chiplet
pair owns a fixed ``n_lambda / N`` wavelength slice, with no arbitration
and no reconfiguration.

The contrast with the ReSiPI fabric is architectural: the AWGR is
non-blocking for *uniform all-to-all* traffic, but DNN inference traffic
is a memory hub pattern — every chiplet mostly talks to the HBM chiplet
— so the fixed per-pair slice (e.g. 7 of 64 wavelengths = 84 Gb/s)
becomes the bottleneck while most of the comb idles.  The topology
ablation (``benchmarks/bench_awgr_comparison.py``) quantifies this,
motivating the paper's choice of SWMR/SWSR trees rooted at memory.
"""

from __future__ import annotations

from ...config import PlatformConfig
from ...photonics import constants as ph
from ...photonics.laser import LaserSource
from ...photonics.link_budget import LinkBudget
from ...photonics.photodetector import Photodetector
from ...power import params as ep
from ...sim.core import Environment, Event
from ...sim.resources import BandwidthChannel, check_payload, relay_payload
from ..base import DEFAULT_CHUNK_BITS, InterposerFabric, NetworkEnergyReport
from ..topology import Floorplan
from .fabric import PHOTONIC_DYNAMIC_J_PER_BIT

AWGR_INSERTION_LOSS_DB = 3.0
"""Insertion loss through the AWGR star (dB); typical silicon AWGR."""


def awgr_link_budget(config: PlatformConfig,
                     floorplan: Floorplan) -> LinkBudget:
    """Worst-case laser-to-PD budget through the AWGR."""
    budget = LinkBudget()
    budget.add("fiber_coupler", ph.GRATING_COUPLER_LOSS_DB)
    budget.add("modulator_insertion", ph.MR_MODULATION_INSERTION_LOSS_DB)
    budget.add(
        "writer_row_passby", ph.MR_THROUGH_LOSS_DB,
        count=max(0, config.n_wavelengths - 1),
    )
    # Port waveguides to/from the central AWGR plus the device itself.
    longest_mm = max(
        floorplan.manhattan_distance_mm("mem-0", site.chiplet_id)
        for site in floorplan.compute_sites
    )
    budget.add("port_waveguides", 0.05 * longest_mm)  # 0.5 dB/cm
    budget.add("awgr", AWGR_INSERTION_LOSS_DB)
    budget.add("filter_drop", ph.MR_DROP_LOSS_DB)
    return budget


class AWGRInterposerFabric(InterposerFabric):
    """Passive all-to-all wavelength-routed interposer."""

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
        self.n_ports = len(floorplan.sites)
        self.wavelengths_per_pair = max(
            1, config.n_wavelengths // self.n_ports
        )
        pair_bw = (
            self.wavelengths_per_pair * config.wavelength_data_rate_bps
        )
        # One dedicated channel per ordered chiplet pair touching memory
        # (DNN traffic only uses the memory hub; lazily created).
        self._pair_bw = pair_bw
        self.channels: dict[tuple[str, str], BandwidthChannel] = {}
        self.hbm_channel = BandwidthChannel(
            env, config.hbm_internal_bandwidth_bps, name="hbm"
        )
        self._transfer_tail_s = (
            config.gateway_conversion_latency_s
            + config.gateway_protocol_overhead_s
        )

    def _channel(self, src: str, dst: str) -> BandwidthChannel:
        key = (src, dst)
        if key not in self.channels:
            self.channels[key] = BandwidthChannel(
                self.env, self._pair_bw, name=f"awgr:{src}->{dst}"
            )
        return self.channels[key]

    def iter_channels(self):
        """HBM port plus every pair channel the run actually touched."""
        yield self.hbm_channel
        yield from self.channels.values()

    def read(self, dst_chiplet: str, bits: float,
             multicast: tuple[str, ...] | None = None) -> Event:
        """Memory -> chiplet(s); each destination uses its own fixed
        wavelength slice (no shared broadcast medium).

        Every destination is its own two-stage pipeline, HBM port ->
        pair channel, then conversion + protocol tail; the read
        completes once the last destination's tail has passed.
        """
        check_payload(bits)
        destinations = multicast if multicast else (dst_chiplet,)
        self.bits_read += bits * len(destinations)
        return relay_payload(self.env, bits, self.chunk_bits, [
            ((self.hbm_channel, self._channel("mem-0", destination)),
             self._transfer_tail_s)
            for destination in destinations
        ])

    def write(self, src_chiplet: str, bits: float) -> Event:
        """Chiplet -> memory: pair channel -> HBM port, then the tail."""
        check_payload(bits)
        self.bits_written += bits
        return relay_payload(self.env, bits, self.chunk_bits, [
            ((self._channel(src_chiplet, "mem-0"), self.hbm_channel),
             self._transfer_tail_s)
        ])

    def energy_report(self) -> NetworkEnergyReport:
        """Always-on energy: a passive AWGR cannot gate anything."""
        elapsed = self.env.now
        n_lambda = self.config.n_wavelengths
        detector = Photodetector()
        laser = LaserSource.off_chip()
        budget = awgr_link_budget(self.config, self.floorplan)
        laser_w = self.n_ports * laser.electrical_power_w(
            budget.required_on_chip_power_w(detector) * n_lambda
        )
        writer_w = self.n_ports * (
            ph.MODULATOR_STATIC_POWER_W * n_lambda
            + ph.GATEWAY_BUFFER_STATIC_POWER_W
        )
        reader_w = self.n_ports * (
            ph.PD_TIA_POWER_W * n_lambda + ph.GATEWAY_BUFFER_STATIC_POWER_W
        )
        trimming_w = (
            2.0 * self.n_ports * n_lambda
            * ph.MR_TO_TUNING_POWER_W_PER_NM * ph.MR_THERMAL_TRIMMING_NM
        )
        static_w = (
            laser_w + writer_w + reader_w + trimming_w
            + ep.HBM_STATIC_POWER_W
            + ep.MEMORY_CHIPLET_LOGIC_STATIC_POWER_W
        )
        dynamic_j = self.total_bits_moved * (
            PHOTONIC_DYNAMIC_J_PER_BIT + ep.HBM_ENERGY_J_PER_BIT
        )
        return NetworkEnergyReport(
            elapsed_s=elapsed,
            static_energy_j=static_w * elapsed,
            dynamic_energy_j=dynamic_j,
            breakdown_j={
                "laser": laser_w * elapsed,
                "gateway_electronics": (writer_w + reader_w) * elapsed,
                "ring_trimming": trimming_w * elapsed,
                "serdes_modulate_receive": dynamic_j,
            },
        )

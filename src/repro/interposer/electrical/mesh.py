"""Electrical mesh interposer fabric (the 2.5D-CrossLight-Elec baseline).

A 2-D mesh of routers on the interposer, one router per chiplet site,
XY (dimension-ordered) routing.  Transfers are chunked and forwarded
store-and-forward per hop; every link and every chiplet
injection/ejection port is a FIFO bandwidth resource, so hot spots around
the memory chiplet queue realistically.  Routes go through
:func:`~repro.sim.resources.relay_payload`: a chunk requests each
channel at the instant it reaches it, so requests that tie at one
instant queue in kernel firing order.

Two modelling notes (see DESIGN.md, calibration):

* Interposer traces cannot be clocked pipelined at the on-chiplet NoC
  rate; the effective link bandwidth is the raw ``128 bit x 2 GHz``
  derated by ``config.mesh_link_efficiency``.
* The mesh has no broadcast: multicast reads are replicated unicasts,
  which is exactly the disadvantage the paper attributes to electrical
  interposers for DNN traffic.
"""

from __future__ import annotations

from ...config import PlatformConfig
from ...power import params as ep
from ...sim.core import Environment, Event
from ...sim.resources import BandwidthChannel, check_payload, relay_payload
from ..base import DEFAULT_CHUNK_BITS, InterposerFabric, NetworkEnergyReport
from ..topology import Floorplan


class ElectricalMeshFabric(InterposerFabric):
    """XY-routed mesh over the interposer floorplan."""

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
        link_bw = config.mesh_effective_link_bandwidth_bps

        # Directed links between adjacent grid slots.
        self.links: dict[tuple[tuple[int, int], tuple[int, int]],
                         BandwidthChannel] = {}
        for site in floorplan.sites:
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = site.grid_x + dx, site.grid_y + dy
                if 0 <= nx < floorplan.grid_width and (
                    0 <= ny < floorplan.grid_height
                ):
                    key = ((site.grid_x, site.grid_y), (nx, ny))
                    self.links[key] = BandwidthChannel(
                        env, link_bw, name=f"link{key}"
                    )
        # Injection/ejection ports (chiplet <-> its router).
        self.ports: dict[str, BandwidthChannel] = {}
        for site in floorplan.sites:
            self.ports[f"inj:{site.chiplet_id}"] = BandwidthChannel(
                env, link_bw, name=f"inj:{site.chiplet_id}"
            )
            self.ports[f"ej:{site.chiplet_id}"] = BandwidthChannel(
                env, link_bw, name=f"ej:{site.chiplet_id}"
            )
        self.hbm_channel = BandwidthChannel(
            env, config.hbm_internal_bandwidth_bps, name="hbm"
        )
        self.hop_bits = 0.0  # bits x hops, for wire/router energy
        self.mm_bits = 0.0   # bits x mm, for wire energy

    # -- routing --------------------------------------------------------------------

    def _xy_route(self, src: str, dst: str) -> list[BandwidthChannel]:
        """Ordered channel list: inject, links along XY path, eject."""
        a = self.floorplan.site(src)
        b = self.floorplan.site(dst)
        path = [self.ports[f"inj:{src}"]]
        x, y = a.grid_x, a.grid_y
        while x != b.grid_x:
            step = 1 if b.grid_x > x else -1
            path.append(self.links[((x, y), (x + step, y))])
            x += step
        while y != b.grid_y:
            step = 1 if b.grid_y > y else -1
            path.append(self.links[((x, y), (x, y + step))])
            y += step
        path.append(self.ports[f"ej:{dst}"])
        return path

    def iter_channels(self):
        """HBM port, chiplet inj/ej ports, then the directed mesh links."""
        yield self.hbm_channel
        yield from self.ports.values()
        yield from self.links.values()

    def _per_hop_latency_s(self) -> float:
        """Router traversal + wire flight per hop."""
        return (
            self.config.mesh_router_latency_s
            + self.config.mesh_wire_latency_s_per_mm
            * self.config.chiplet_pitch_mm
        )

    def _route(self, src: str, dst: str, bits: float, reading: bool
               ) -> tuple[list[BandwidthChannel], float]:
        """One destination's relay route and its per-hop latency tail.

        The HBM port is the first stage of a read and the last of a
        write.  Charges the payload's router hops and wire millimetres.
        """
        route = self._xy_route(src, dst)
        if reading:
            route = [self.hbm_channel] + route
        else:
            route = route + [self.hbm_channel]
        self.hop_bits += bits * max(1, len(route) - 2)
        self.mm_bits += bits * self.floorplan.manhattan_distance_mm(src, dst)
        tail_s = self._per_hop_latency_s() * max(
            1, self.floorplan.manhattan_hops(src, dst)
        )
        return route, tail_s

    # -- fabric interface -------------------------------------------------------------

    def read(self, dst_chiplet: str, bits: float,
             multicast: tuple[str, ...] | None = None) -> Event:
        """Memory -> chiplet(s): replicated unicasts (no native broadcast)."""
        check_payload(bits)
        destinations = multicast if multicast else (dst_chiplet,)
        self.bits_read += bits * len(destinations)
        return relay_payload(self.env, bits, self.chunk_bits, [
            self._route("mem-0", destination, bits, reading=True)
            for destination in destinations
        ])

    def write(self, src_chiplet: str, bits: float) -> Event:
        check_payload(bits)
        self.bits_written += bits
        return relay_payload(self.env, bits, self.chunk_bits, [
            self._route(src_chiplet, "mem-0", bits, reading=False)
        ])

    # -- energy -----------------------------------------------------------------------

    def energy_report(self) -> NetworkEnergyReport:
        elapsed = self.env.now
        n_routers = len(self.floorplan.sites)
        router_static_j = n_routers * ep.ROUTER_STATIC_POWER_W * elapsed
        router_dynamic_j = self.hop_bits * ep.ROUTER_ENERGY_J_PER_BIT
        wire_j = self.mm_bits * ep.INTERPOSER_WIRE_ENERGY_J_PER_BIT_PER_MM
        bump_j = (
            self.total_bits_moved * 2.0 * ep.MICROBUMP_ENERGY_J_PER_BIT
        )
        hbm_j = (
            self.total_bits_moved * ep.HBM_ENERGY_J_PER_BIT
            + ep.HBM_STATIC_POWER_W * elapsed
        )
        logic_j = ep.MEMORY_CHIPLET_LOGIC_STATIC_POWER_W * elapsed
        return NetworkEnergyReport(
            elapsed_s=elapsed,
            static_energy_j=router_static_j
            + ep.HBM_STATIC_POWER_W * elapsed
            + logic_j,
            dynamic_energy_j=router_dynamic_j
            + wire_j
            + bump_j
            + self.total_bits_moved * ep.HBM_ENERGY_J_PER_BIT,
            breakdown_j={
                "router_static": router_static_j,
                "router_dynamic": router_dynamic_j,
                "interposer_wires": wire_j,
                "microbumps": bump_j,
                "hbm": hbm_j,
            },
        )

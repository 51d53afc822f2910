"""Hazard engine: time-varying faults and thermal events for the fabric.

The paper builds on fault-tolerance work ([39] SiPterposer, [40] DeFT):
2.5D integration must survive defective interconnect resources, and at
scale the dominant reliability tax is photonic — microring resonances
drift with temperature and the shared comb laser ages (Al-Qadasi et
al.).  The ReSiPI fabric has natural redundancy — each chiplet owns
several gateways, the memory chiplet several writer gateways, and every
channel several comb lines — so a failed resource can be masked by
deactivating it, at a bandwidth cost the controller then works around.

This module models those hazards as a **timeline of typed events** that
runs as an ordinary process inside the shared simulation
:class:`~repro.sim.core.Environment`:

* :class:`GatewayFail` / :class:`GatewayRepair` — gateway resources die
  (and may later be repaired) at a point in simulated time;
* :class:`RingDriftBurst` — a transient thermal excursion drifts the
  microring banks (:mod:`repro.photonics.thermal` drift coefficient,
  :mod:`repro.photonics.variations` per-ring deviations) so a share of
  comb lines falls out of lock for the burst's duration;
* :class:`LaserDegradation` — the comb pump degrades to a fraction of
  its nominal electrical drive for a while; the linear wall-plug model
  of :class:`~repro.photonics.laser.LaserSource` means only the same
  fraction of comb lines still closes its link budget.

:class:`HazardEngine` applies a :class:`HazardTimeline` to a live
fabric **mid-simulation**, through the fabric's hazard hooks (gateway
failures and repairs, usable comb share) — so ReSiPI/PROWAVES
controllers re-adapt on their next epoch instead of being configured
around a frozen fault plan.  The legacy static :class:`FaultPlan` is
the degenerate all-events-at-``t=0`` case
(:meth:`HazardTimeline.from_plan`), applied synchronously at
construction and therefore bit-identical to the historical
:class:`FaultInjector`, which survives as a thin wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Union

import numpy as np

from ...errors import ConfigurationError, UnknownNameError
from ...photonics.laser import LaserSource
from ...photonics.thermal import RING_DRIFT_NM_PER_K
from ...photonics.variations import VariationModel
from .fabric import PhotonicInterposerFabric

RING_LOCK_RANGE_NM = 1.0
"""Resonance excursion beyond which a ring cannot be trimmed back onto
its comb line mid-operation (matches the trimming range assumed by
:func:`repro.photonics.variations.trimming_report`)."""


# ---------------------------------------------------------------------------
# The legacy static plan (still the API for one-shot studies).
# ---------------------------------------------------------------------------


@dataclass
class FaultPlan:
    """Which gateway resources are dead from the start of the run.

    ``memory_gateways_failed`` removes memory-side writer gateways;
    ``chiplet_gateways_failed`` maps chiplet id -> (write, read) failed
    counts.  A plan is the degenerate hazard timeline whose every event
    fires at ``t=0`` — see :meth:`HazardTimeline.from_plan`.
    """

    memory_gateways_failed: int = 0
    chiplet_gateways_failed: dict[str, tuple[int, int]] = field(
        default_factory=dict
    )

    @property
    def total_failed(self) -> int:
        return self.memory_gateways_failed + sum(
            w + r for w, r in self.chiplet_gateways_failed.values()
        )


# ---------------------------------------------------------------------------
# Typed hazard events.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GatewayFail:
    """Gateway resources die at ``at_s`` (until a matching repair)."""

    at_s: float
    memory_gateways: int = 0
    chiplet_gateways: tuple[tuple[str, int, int], ...] = ()

    kind: ClassVar[str] = "gateway-fail"

    @property
    def total_gateways(self) -> int:
        return self.memory_gateways + sum(
            w + r for _, w, r in self.chiplet_gateways
        )


@dataclass(frozen=True)
class GatewayRepair:
    """Previously failed gateway resources come back at ``at_s``.

    Repair only restores *capacity*: the fabric's active counts stay
    where the controller left them until its next epoch decision, which
    is when recovery becomes visible in the channels.
    """

    at_s: float
    memory_gateways: int = 0
    chiplet_gateways: tuple[tuple[str, int, int], ...] = ()

    kind: ClassVar[str] = "gateway-repair"

    @property
    def total_gateways(self) -> int:
        return self.memory_gateways + sum(
            w + r for _, w, r in self.chiplet_gateways
        )


@dataclass(frozen=True)
class RingDriftBurst:
    """A transient thermal excursion drifts every microring bank.

    For ``duration_s`` starting at ``at_s`` the dies run
    ``temperature_rise_k`` hotter, shifting each ring by the SOI drift
    coefficient; rings whose fabrication deviation (sampled from
    :class:`~repro.photonics.variations.VariationModel` with ``seed``)
    plus the thermal shift exceeds :data:`RING_LOCK_RANGE_NM` fall out
    of lock, and their comb lines carry no data until the burst ends.
    """

    at_s: float
    duration_s: float
    temperature_rise_k: float
    seed: int = 0

    kind: ClassVar[str] = "ring-drift"

    def usable_fraction(self, n_wavelengths: int) -> float:
        """Share of comb lines still locked during the burst."""
        drift_nm = self.temperature_rise_k * RING_DRIFT_NM_PER_K
        deviations = VariationModel(seed=self.seed).sample_deviations_nm(
            n_wavelengths
        )
        unlocked = np.abs(deviations + drift_nm) > RING_LOCK_RANGE_NM
        usable = 1.0 - float(np.mean(unlocked))
        return max(usable, 1.0 / n_wavelengths)


@dataclass(frozen=True)
class LaserDegradation:
    """The comb pump runs at a fraction of nominal drive for a while.

    :class:`~repro.photonics.laser.LaserSource` is linear: emitted
    optical power is electrical drive times the wall-plug efficiency,
    and every comb line needs the same fixed on-chip power to close its
    link budget — so a pump at ``power_fraction`` of nominal sustains
    only that fraction of the comb (rounded down, one line minimum).
    """

    at_s: float
    duration_s: float
    power_fraction: float

    kind: ClassVar[str] = "laser-degradation"

    def usable_fraction(self, n_wavelengths: int,
                        laser: LaserSource | None = None) -> float:
        """Share of comb lines the degraded pump still closes."""
        laser = laser or LaserSource.off_chip()
        reference_on_chip_w = 1e-3  # cancels: the model is linear
        per_line_w = laser.electrical_power_w(reference_on_chip_w)
        budget_w = self.power_fraction * n_wavelengths * per_line_w
        # Epsilon before flooring: 0.7 of a 10-line comb must keep 7
        # lines, not 6.999... binary-float noise floored to 6.
        lines = int(budget_w / per_line_w + 1e-9)
        return max(1, min(lines, n_wavelengths)) / n_wavelengths


@dataclass(frozen=True)
class ChipletMacDegrade:
    """The MAC arrays run at a fraction of nominal throughput.

    A **compute-side** hazard: thermal crosstalk, analog drift or
    post-calibration guard-banding leaves every chiplet's photonic MAC
    array sustaining only ``mac_fraction`` of its nominal rate for
    ``duration_s`` starting at ``at_s`` (``duration_s=None`` =
    permanent).  The serving layer applies it through
    :class:`~repro.core.engine.ComputeOccupancy` — compute time scales
    by ``1/mac_fraction`` while the event is active — so it lives in
    ``platform.faults`` next to the fabric kinds but never touches the
    photonic channels.
    """

    at_s: float
    mac_fraction: float
    duration_s: float | None = None

    kind: ClassVar[str] = "chiplet-mac-degrade"


HazardEvent = Union[GatewayFail, GatewayRepair, RingDriftBurst,
                    LaserDegradation]
"""Any event a :class:`HazardTimeline` can carry."""

COMPUTE_HAZARD_KINDS = ("chiplet-mac-degrade",)
"""Hazard kinds that act on the compute path (serving layer) rather
than the photonic fabric."""


# ---------------------------------------------------------------------------
# Event factories (the HAZARDS registry entries).
# ---------------------------------------------------------------------------


def _reject_inert(kind: str, **inert: bool) -> None:
    """Spec knobs that would silently no-op raise instead (they would
    still move cache digests without moving behavior)."""
    set_fields = [name for name, is_set in inert.items() if is_set]
    if set_fields:
        raise ConfigurationError(
            f"{', '.join(set_fields)} do(es) not apply to {kind!r} events"
        )


def _gateway_tuples(
    chiplet_gateways,
) -> tuple[tuple[str, int, int], ...]:
    entries = []
    for entry in chiplet_gateways:
        chiplet_id, n_write, n_read = entry
        if n_write < 0 or n_read < 0:
            raise ConfigurationError(
                f"{chiplet_id}: gateway counts must be >= 0, got "
                f"({n_write}, {n_read})"
            )
        entries.append((str(chiplet_id), int(n_write), int(n_read)))
    return tuple(entries)


def _make_gateway_event(cls, kind: str, at_s: float,
                        duration_s: float | None = None,
                        memory_gateways: int = 0,
                        chiplet_gateways=(),
                        temperature_rise_k: float = 0.0,
                        power_fraction: float = 1.0,
                        seed: int = 0,
                        node: int | None = None,
                        nodes=(),
                        mac_fraction: float = 1.0):
    _reject_inert(
        kind,
        duration_s=duration_s is not None,
        temperature_rise_k=temperature_rise_k != 0.0,
        power_fraction=power_fraction != 1.0,
        seed=seed != 0,
        node=node is not None,
        nodes=bool(nodes),
        mac_fraction=mac_fraction != 1.0,
    )
    if memory_gateways < 0:
        raise ConfigurationError(
            f"memory gateway count must be >= 0, got {memory_gateways}"
        )
    event = cls(
        at_s=at_s,
        memory_gateways=memory_gateways,
        chiplet_gateways=_gateway_tuples(chiplet_gateways),
    )
    if event.total_gateways == 0:
        raise ConfigurationError(
            f"{kind} at t={at_s}s names no gateways; set memory_gateways "
            "and/or chiplet_gateways"
        )
    return event


def make_gateway_fail(at_s: float, **fields) -> GatewayFail:
    """``gateway-fail`` factory: validates the generic spec field set."""
    return _make_gateway_event(GatewayFail, "gateway-fail", at_s, **fields)


def make_gateway_repair(at_s: float, **fields) -> GatewayRepair:
    """``gateway-repair`` factory."""
    return _make_gateway_event(
        GatewayRepair, "gateway-repair", at_s, **fields
    )


def make_ring_drift(at_s: float, duration_s: float | None = None,
                    memory_gateways: int = 0, chiplet_gateways=(),
                    temperature_rise_k: float = 0.0,
                    power_fraction: float = 1.0,
                    seed: int = 0,
                    node: int | None = None,
                    nodes=(),
                    mac_fraction: float = 1.0) -> RingDriftBurst:
    """``ring-drift`` factory."""
    _reject_inert(
        "ring-drift",
        memory_gateways=memory_gateways != 0,
        chiplet_gateways=bool(chiplet_gateways),
        power_fraction=power_fraction != 1.0,
        node=node is not None,
        nodes=bool(nodes),
        mac_fraction=mac_fraction != 1.0,
    )
    if duration_s is None or duration_s <= 0:
        raise ConfigurationError(
            f"ring-drift needs a positive duration_s, got {duration_s}"
        )
    if temperature_rise_k <= 0:
        raise ConfigurationError(
            f"ring-drift needs a positive temperature_rise_k, got "
            f"{temperature_rise_k}"
        )
    return RingDriftBurst(
        at_s=at_s, duration_s=duration_s,
        temperature_rise_k=temperature_rise_k, seed=seed,
    )


def make_laser_degradation(at_s: float, duration_s: float | None = None,
                           memory_gateways: int = 0, chiplet_gateways=(),
                           temperature_rise_k: float = 0.0,
                           power_fraction: float = 1.0,
                           seed: int = 0,
                           node: int | None = None,
                           nodes=(),
                           mac_fraction: float = 1.0) -> LaserDegradation:
    """``laser-degradation`` factory."""
    _reject_inert(
        "laser-degradation",
        memory_gateways=memory_gateways != 0,
        chiplet_gateways=bool(chiplet_gateways),
        temperature_rise_k=temperature_rise_k != 0.0,
        seed=seed != 0,
        node=node is not None,
        nodes=bool(nodes),
        mac_fraction=mac_fraction != 1.0,
    )
    if duration_s is None or duration_s <= 0:
        raise ConfigurationError(
            f"laser-degradation needs a positive duration_s, got "
            f"{duration_s}"
        )
    if not 0.0 < power_fraction < 1.0:
        raise ConfigurationError(
            f"laser-degradation needs power_fraction in (0, 1) — 1.0 "
            f"(the spec default) means no degradation; got "
            f"{power_fraction}"
        )
    return LaserDegradation(
        at_s=at_s, duration_s=duration_s, power_fraction=power_fraction
    )


def make_mac_degrade(at_s: float, duration_s: float | None = None,
                     memory_gateways: int = 0, chiplet_gateways=(),
                     temperature_rise_k: float = 0.0,
                     power_fraction: float = 1.0,
                     seed: int = 0,
                     node: int | None = None,
                     nodes=(),
                     mac_fraction: float = 1.0) -> ChipletMacDegrade:
    """``chiplet-mac-degrade`` factory."""
    _reject_inert(
        "chiplet-mac-degrade",
        memory_gateways=memory_gateways != 0,
        chiplet_gateways=bool(chiplet_gateways),
        temperature_rise_k=temperature_rise_k != 0.0,
        power_fraction=power_fraction != 1.0,
        seed=seed != 0,
        node=node is not None,
        nodes=bool(nodes),
    )
    if duration_s is not None and duration_s <= 0:
        raise ConfigurationError(
            f"chiplet-mac-degrade needs a positive duration_s (or none "
            f"for a permanent degradation), got {duration_s}"
        )
    if not 0.0 < mac_fraction < 1.0:
        raise ConfigurationError(
            f"chiplet-mac-degrade needs mac_fraction in (0, 1) — 1.0 "
            f"(the spec default) means no degradation; got {mac_fraction}"
        )
    return ChipletMacDegrade(
        at_s=at_s, mac_fraction=mac_fraction, duration_s=duration_s
    )


HAZARD_FACTORIES: dict[str, Callable[..., HazardEvent]] = {
    "gateway-fail": make_gateway_fail,
    "gateway-repair": make_gateway_repair,
    "ring-drift": make_ring_drift,
    "laser-degradation": make_laser_degradation,
    "chiplet-mac-degrade": make_mac_degrade,
}
"""Hazard-event factories keyed by spec kind.  The ``HAZARDS`` registry
(:mod:`repro.studies.registry`) shares this dict, so externally
registered hazard kinds are buildable from specs."""


# ---------------------------------------------------------------------------
# The timeline.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HazardTimeline:
    """Chronologically ordered hazard events for one simulation run."""

    events: tuple[HazardEvent, ...] = ()

    def __post_init__(self) -> None:
        previous = 0.0
        for event in self.events:
            if event.at_s < 0:
                raise ConfigurationError(
                    f"hazard event times must be >= 0, got {event.at_s}"
                )
            if event.at_s < previous:
                raise ConfigurationError(
                    "hazard events must be listed chronologically: "
                    f"{event.kind} at t={event.at_s}s follows "
                    f"t={previous}s"
                )
            previous = event.at_s

    def __bool__(self) -> bool:
        return bool(self.events)

    @classmethod
    def from_plan(cls, plan: FaultPlan) -> "HazardTimeline":
        """The static plan as a timeline: one fail event at ``t=0``."""
        if plan.memory_gateways_failed < 0:
            raise ConfigurationError(
                "memory gateway failures must be >= 0, got "
                f"{plan.memory_gateways_failed}"
            )
        if plan.total_failed == 0:
            return cls()
        return cls((GatewayFail(
            at_s=0.0,
            memory_gateways=plan.memory_gateways_failed,
            chiplet_gateways=tuple(
                (chiplet_id, write, read)
                for chiplet_id, (write, read)
                in plan.chiplet_gateways_failed.items()
            ),
        ),))


# ---------------------------------------------------------------------------
# Degradation accounting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HazardRecord:
    """One applied hazard event and its capacity delta.

    Plain picklable data: serving results carry these through the
    cache and the JSON/CSV export path.  Gateway deltas are negative
    for failures and positive for repairs; ``wavelength_fraction`` is
    the hazard multiplier on every channel's comb after this event
    (1.0 = full comb).  ``end_s`` is set for transient events.
    """

    kind: str
    start_s: float
    end_s: float | None = None
    memory_gateways_delta: int = 0
    chiplet_gateways_delta: int = 0
    wavelength_fraction: float = 1.0


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


class HazardEngine:
    """Applies a hazard timeline to a live fabric, mid-simulation.

    The engine reports gateway failures and repairs to the fabric, which
    clamps every controller decision to the *currently* surviving
    gateways, and sets the usable share of the comb.  It applies every
    ``t=0`` event synchronously at construction (the static-plan case
    therefore reduces exactly to the historical
    :class:`FaultInjector` behaviour), and schedules later events as an
    ordinary process in the fabric's environment — capacities change
    while requests are in flight, and the reconfiguration controllers
    re-adapt on their next epoch.
    """

    def __init__(self, fabric: PhotonicInterposerFabric,
                 timeline: HazardTimeline):
        self.fabric = fabric
        self.env = fabric.env
        self.timeline = timeline
        self.records: list[HazardRecord] = []
        self._active_fractions: dict[int, float] = {}
        self._degraded_since: float | None = None
        self._degraded_intervals: list[tuple[float, float]] = []
        self._validate()
        actions = self._actions()
        for at_s, _, apply in actions:
            if at_s > 0.0:
                break
            apply()
        pending = [action for action in actions if action[0] > 0.0]
        if pending:
            self._process = self.env.process(self._run(pending))

    # -- validation ---------------------------------------------------------------

    def _known_chiplet(self, chiplet_id: str):
        inventory = self.fabric.inventories.get(chiplet_id)
        if inventory is None:
            raise UnknownNameError(
                "chiplet", chiplet_id, sorted(self.fabric.inventories)
            )
        return inventory

    def _validate(self) -> None:
        """Walk the timeline once: every instant must leave survivors.

        Error messages carry observed vs allowed counts so a bad spec
        is fixable without reading the floorplan source.
        """
        config = self.fabric.config
        failed_memory = 0
        failed = {cid: [0, 0] for cid in self.fabric.inventories}
        for event in self.timeline.events:
            if isinstance(event, (GatewayFail, GatewayRepair)):
                if event.memory_gateways < 0:
                    raise ConfigurationError(
                        f"{event.kind} at t={event.at_s}s: memory gateway "
                        f"count must be >= 0, got {event.memory_gateways}"
                    )
                for chiplet_id, n_write, n_read in event.chiplet_gateways:
                    if n_write < 0 or n_read < 0:
                        raise ConfigurationError(
                            f"{chiplet_id}: {event.kind} at "
                            f"t={event.at_s}s gateway counts must be "
                            f">= 0, got ({n_write}, {n_read})"
                        )
            if isinstance(event, GatewayFail):
                failed_memory += event.memory_gateways
                if failed_memory >= config.n_memory_write_gateways:
                    raise ConfigurationError(
                        f"gateway-fail at t={event.at_s}s leaves no memory "
                        f"writer gateway alive: {failed_memory} cumulative "
                        f"failure(s) of {config.n_memory_write_gateways} "
                        f"gateways (at most "
                        f"{config.n_memory_write_gateways - 1} may be down)"
                    )
                for chiplet_id, n_write, n_read in event.chiplet_gateways:
                    inventory = self._known_chiplet(chiplet_id)
                    failed[chiplet_id][0] += n_write
                    failed[chiplet_id][1] += n_read
                    if failed[chiplet_id][0] >= inventory.n_write_gateways:
                        raise ConfigurationError(
                            f"{chiplet_id}: gateway-fail at t={event.at_s}s "
                            f"leaves no write gateway alive: "
                            f"{failed[chiplet_id][0]} cumulative failure(s) "
                            f"of {inventory.n_write_gateways} gateways (at "
                            f"most {inventory.n_write_gateways - 1} may be "
                            "down)"
                        )
                    if failed[chiplet_id][1] >= inventory.n_read_gateways:
                        raise ConfigurationError(
                            f"{chiplet_id}: gateway-fail at t={event.at_s}s "
                            f"leaves no read gateway alive: "
                            f"{failed[chiplet_id][1]} cumulative failure(s) "
                            f"of {inventory.n_read_gateways} gateways (at "
                            f"most {inventory.n_read_gateways - 1} may be "
                            "down)"
                        )
            elif isinstance(event, GatewayRepair):
                if event.memory_gateways > failed_memory:
                    raise ConfigurationError(
                        f"gateway-repair at t={event.at_s}s repairs "
                        f"{event.memory_gateways} memory gateway(s) but "
                        f"only {failed_memory} is/are failed at that point"
                    )
                failed_memory -= event.memory_gateways
                for chiplet_id, n_write, n_read in event.chiplet_gateways:
                    self._known_chiplet(chiplet_id)
                    if (n_write > failed[chiplet_id][0]
                            or n_read > failed[chiplet_id][1]):
                        raise ConfigurationError(
                            f"{chiplet_id}: gateway-repair at "
                            f"t={event.at_s}s repairs ({n_write}, {n_read}) "
                            f"gateway(s) but only "
                            f"({failed[chiplet_id][0]}, "
                            f"{failed[chiplet_id][1]}) is/are failed at "
                            "that point"
                        )
                    failed[chiplet_id][0] -= n_write
                    failed[chiplet_id][1] -= n_read

    # -- surviving capacity -------------------------------------------------------

    def surviving_memory_gateways(self) -> int:
        return self.fabric.surviving_memory_gateways()

    def surviving_chiplet_gateways(self, chiplet_id: str) -> tuple[int, int]:
        return self.fabric.surviving_chiplet_gateways(chiplet_id)

    @property
    def hazard_wavelength_fraction(self) -> float:
        """Product of every active transient's comb multiplier."""
        fraction = 1.0
        for multiplier in self._active_fractions.values():
            fraction *= multiplier
        return fraction

    # -- event application --------------------------------------------------------

    def _update_degraded(self) -> None:
        inventories = self.fabric.inventories
        degraded = (
            self.surviving_memory_gateways()
            < self.fabric.config.n_memory_write_gateways
            or any(
                self.surviving_chiplet_gateways(chiplet_id)
                != (inventory.n_write_gateways, inventory.n_read_gateways)
                for chiplet_id, inventory in inventories.items()
            )
            or self.hazard_wavelength_fraction < 1.0
        )
        now = self.env.now
        if degraded and self._degraded_since is None:
            self._degraded_since = now
        elif not degraded and self._degraded_since is not None:
            self._degraded_intervals.append((self._degraded_since, now))
            self._degraded_since = None

    def _apply_gateway_fail(self, event: GatewayFail) -> None:
        self.fabric.fail_gateways(event.memory_gateways,
                                  event.chiplet_gateways)
        self.records.append(HazardRecord(
            kind=event.kind,
            start_s=self.env.now,
            memory_gateways_delta=-event.memory_gateways,
            chiplet_gateways_delta=-sum(
                w + r for _, w, r in event.chiplet_gateways
            ),
            wavelength_fraction=self.hazard_wavelength_fraction,
        ))
        self._update_degraded()

    def _apply_gateway_repair(self, event: GatewayRepair) -> None:
        self.fabric.repair_gateways(event.memory_gateways,
                                    event.chiplet_gateways)
        self.records.append(HazardRecord(
            kind=event.kind,
            start_s=self.env.now,
            memory_gateways_delta=event.memory_gateways,
            chiplet_gateways_delta=event.total_gateways
            - event.memory_gateways,
            wavelength_fraction=self.hazard_wavelength_fraction,
        ))
        self._update_degraded()

    def _apply_transient_begin(self, index: int, event) -> None:
        usable = event.usable_fraction(self.fabric.config.n_wavelengths)
        self._active_fractions[index] = usable
        self.fabric.set_usable_wavelength_fraction(
            self.hazard_wavelength_fraction
        )
        self.records.append(HazardRecord(
            kind=event.kind,
            start_s=self.env.now,
            end_s=self.env.now + event.duration_s,
            wavelength_fraction=self.hazard_wavelength_fraction,
        ))
        self._update_degraded()

    def _apply_transient_end(self, index: int) -> None:
        self._active_fractions.pop(index, None)
        self.fabric.set_usable_wavelength_fraction(
            self.hazard_wavelength_fraction
        )
        self._update_degraded()

    # -- scheduling ---------------------------------------------------------------

    def _actions(self) -> list[tuple[float, int, Callable[[], None]]]:
        """(time, sequence, apply) actions, chronologically sorted."""
        actions: list[tuple[float, int, Callable[[], None]]] = []
        sequence = 0
        for index, event in enumerate(self.timeline.events):
            if isinstance(event, GatewayFail):
                apply = (lambda e=event: self._apply_gateway_fail(e))
            elif isinstance(event, GatewayRepair):
                apply = (lambda e=event: self._apply_gateway_repair(e))
            else:
                apply = (lambda i=index, e=event:
                         self._apply_transient_begin(i, e))
                actions.append((
                    event.at_s + event.duration_s, sequence + 1,
                    lambda i=index: self._apply_transient_end(i),
                ))
            actions.append((event.at_s, sequence, apply))
            sequence += 2
        actions.sort(key=lambda action: (action[0], action[1]))
        return actions

    def _run(self, pending):
        for at_s, _, apply in pending:
            delay = at_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            apply()

    # -- degradation summary ------------------------------------------------------

    def degraded_intervals(
        self, elapsed_s: float | None = None
    ) -> list[tuple[float, float]]:
        """Closed (start, end) spans during which capacity was reduced."""
        intervals = list(self._degraded_intervals)
        if self._degraded_since is not None:
            end = self.env.now if elapsed_s is None else elapsed_s
            intervals.append(
                (self._degraded_since, max(end, self._degraded_since))
            )
        return intervals

    def time_degraded_s(self, elapsed_s: float | None = None) -> float:
        """Total simulated time spent with reduced capacity."""
        return sum(
            end - start for start, end in self.degraded_intervals(elapsed_s)
        )

    def fault_window(
        self, elapsed_s: float | None = None
    ) -> tuple[float, float] | None:
        """(first degradation onset, last recovery) — or None if clean."""
        intervals = self.degraded_intervals(elapsed_s)
        if not intervals:
            return None
        return intervals[0][0], intervals[-1][1]


class FaultInjector:
    """Static fault injection: the degenerate hazard timeline.

    Kept as the one-shot API — applies a :class:`FaultPlan` by running a
    :class:`HazardEngine` over :meth:`HazardTimeline.from_plan`, which
    fires everything synchronously at construction: bit-identical to the
    pre-hazard-engine injector this class used to implement directly.
    """

    def __init__(self, fabric: PhotonicInterposerFabric, plan: FaultPlan):
        self.fabric = fabric
        self.plan = plan
        self.engine = HazardEngine(fabric, HazardTimeline.from_plan(plan))

    def surviving_memory_gateways(self) -> int:
        return self.engine.surviving_memory_gateways()

    def surviving_chiplet_gateways(self, chiplet_id: str) -> tuple[int, int]:
        return self.engine.surviving_chiplet_gateways(chiplet_id)


def uniform_fault_plan(fabric: PhotonicInterposerFabric,
                       n_failures: int) -> FaultPlan:
    """Spread ``n_failures`` dead gateways round-robin over the system.

    Deterministic: memory gateways fail first (they are the shared
    resource, i.e. the worst case), then one write gateway per chiplet
    in floorplan order.
    """
    if n_failures < 0:
        raise ConfigurationError("failure count must be >= 0")
    config = fabric.config
    memory_failures = min(n_failures,
                          config.n_memory_write_gateways - 1)
    remaining = n_failures - memory_failures
    chiplet_failures: dict[str, tuple[int, int]] = {}
    chiplet_ids = sorted(fabric.inventories)
    index = 0
    while remaining > 0 and chiplet_ids:
        chiplet_id = chiplet_ids[index % len(chiplet_ids)]
        inventory = fabric.inventories[chiplet_id]
        write, read = chiplet_failures.get(chiplet_id, (0, 0))
        if write < inventory.n_write_gateways - 1:
            chiplet_failures[chiplet_id] = (write + 1, read)
            remaining -= 1
        index += 1
        if index > 10 * len(chiplet_ids):
            raise ConfigurationError(
                f"cannot place {n_failures} failures with one survivor "
                "per resource"
            )
    return FaultPlan(
        memory_gateways_failed=memory_failures,
        chiplet_gateways_failed=chiplet_failures,
    )

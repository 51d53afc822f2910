"""Plugin-style registries: every name the study layer can look up.

One :class:`Registry` per extension point — platforms, models,
interposer controllers, hazards, arrival processes and routers — replaces
the name→builder dictionaries that used to be scattered across
``experiments/runner.py``, ``experiments/serving_study.py`` and
``cli.py``.  A failed lookup raises
:class:`~repro.errors.UnknownNameError` with a did-you-mean suggestion
instead of a bare ``KeyError``, and downstream code (including external
plugins) can ``register`` new entries without touching any other layer.

Every registry knows its names without loading a layer: the platform,
model and hazard tables name each factory as ``"module:attribute"``,
imported by the first :meth:`Registry.get` of that name, and the
registries shared with another layer's dict (``CONTROLLERS``,
``ARRIVALS``, ``ROUTERS``) answer from the static tables of
:mod:`repro.names` until their first ``get`` or ``register`` binds
them.  So importing this module loads no simulation layer, checking a
spec's names loads none either, and resolving a name loads exactly the
layer behind it.  Dispatch policies are no registry: the scheduler
implements a fixed set, which ``SchedulerSpec.policy`` names as its
choices.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Iterator, Mapping

from ..dnn.zoo import MODEL_HOMES
from ..errors import ConfigurationError, UnknownNameError
from ..names import ARRIVAL_NAMES, CONTROLLER_NAMES, ROUTER_NAMES


class Registry:
    """Ordered name→factory map with typed lookup errors.

    ``entries`` are copied; a value may be a factory or its
    ``"module:attribute"`` home, which the first :meth:`get` of that
    name imports.  ``bind`` instead returns a mutable dict the registry
    shares, so registrations through the registry become visible to
    code reading that dict directly (and vice versa); it is called on
    the registry's first :meth:`get` or :meth:`register`, so the module
    defining a registry need not import the layer that owns the dict.
    Until then ``names`` (the dict's keys, listed statically) answer
    :meth:`names`, membership and :meth:`check`.  ``label`` is the
    registry's own name (``"ROUTERS"``): lookup errors carry it so
    multi-registry specs say *which* table rejected a name.
    """

    def __init__(self, kind: str,
                 entries: Mapping[str, Callable | str] | None = None,
                 label: str | None = None,
                 bind: Callable[[], dict[str, Callable]] | None = None,
                 names: tuple[str, ...] = ()):
        self.kind = kind
        self.label = label
        if entries is not None and bind is not None:
            raise ConfigurationError(
                "pass either entries (copied) or bind (shared, resolved "
                "on first use)"
            )
        self._bind = bind
        self._static = names
        self._entries = None if bind is not None else dict(entries or {})

    def _table(self) -> dict[str, Callable | str]:
        """The name→factory dict, bound on first use."""
        if self._entries is None:
            self._entries = self._bind()
        return self._entries

    def register(self, name: str, factory: Callable,
                 overwrite: bool = False) -> Callable:
        """Add an entry; refuses silent shadowing unless ``overwrite``."""
        table = self._table()
        if name in table and not overwrite:
            raise ConfigurationError(
                f"{self.kind} {name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        table[name] = factory
        return factory

    def get(self, name: str) -> Callable:
        """The factory under ``name``, importing its home on first use;
        typed error with suggestions."""
        table = self._table()
        try:
            factory = table[name]
        except KeyError:
            raise UnknownNameError(
                self.kind, name, self.names(), registry=self.label
            ) from None
        if isinstance(factory, str):
            module, _, attribute = factory.partition(":")
            factory = table[name] = getattr(import_module(module), attribute)
        return factory

    def check(self, name: str) -> None:
        """Raise :meth:`get`'s typed error unless ``name`` is
        registered, without binding the registry or importing a
        factory."""
        if name not in self.names():
            raise UnknownNameError(
                self.kind, name, self.names(), registry=self.label
            )

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        if self._entries is None:
            return self._static
        return tuple(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self.names()

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())


# ---------------------------------------------------------------------------
# Platforms (Table 3 names + the AWGR topology baseline).
# ---------------------------------------------------------------------------


PLATFORMS = Registry("platform", label="PLATFORMS", entries={
    "CrossLight": "repro.core.crosslight:build_crosslight",
    "2.5D-CrossLight-Elec": "repro.core.elec:build_25d_elec",
    "2.5D-CrossLight-SiPh": "repro.core.siph:build_25d_siph",
    "2.5D-CrossLight-AWGR": "repro.core.awgr:build_25d_awgr",
})
"""Platform factories ``(config, controller, faults=None) -> platform``;
only the SiPh interposer consumes the controller name and a fault
timeline.  Each lives in its platform's module, which imports that
platform's fabric (and controllers) only."""


MODELS = Registry("model", label="MODELS", entries=MODEL_HOMES)
"""DNN builders by zoo name (Table 2, the extended zoo, and the
transformer zoo for autoregressive serving); each loads its own zoo
module."""


def _controller_factories() -> dict[str, Callable]:
    from ..interposer.photonic.controllers import CONTROLLER_FACTORIES

    return CONTROLLER_FACTORIES


CONTROLLERS = Registry("controller", label="CONTROLLERS",
                       bind=_controller_factories, names=CONTROLLER_NAMES)
"""Interposer reconfiguration controllers (SiPh platform).

Shares the factory dict the SiPh platform constructs from, so a
controller registered here is buildable — not just spec-valid."""


_FABRIC_HAZARDS = "repro.interposer.photonic.faults"
_NODE_HAZARDS = "repro.cluster.hazards"

HAZARDS = Registry("hazard", label="HAZARDS", entries={
    "gateway-fail": f"{_FABRIC_HAZARDS}:make_gateway_fail",
    "gateway-repair": f"{_FABRIC_HAZARDS}:make_gateway_repair",
    "ring-drift": f"{_FABRIC_HAZARDS}:make_ring_drift",
    "laser-degradation": f"{_FABRIC_HAZARDS}:make_laser_degradation",
    "chiplet-mac-degrade": f"{_FABRIC_HAZARDS}:make_mac_degrade",
    "node-fail": f"{_NODE_HAZARDS}:make_node_fail",
    "node-drain": f"{_NODE_HAZARDS}:make_node_drain",
    "node-repair": f"{_NODE_HAZARDS}:make_node_repair",
    "rack-fail": f"{_NODE_HAZARDS}:make_rack_fail",
    "rack-repair": f"{_NODE_HAZARDS}:make_rack_repair",
})
"""Hazard-event factories for the platform and cluster fault timelines.

Each factory takes the full :class:`~repro.studies.spec.FaultEventSpec`
field set (minus ``kind``) and returns a typed hazard event, rejecting
knobs that do not apply to its kind.  The fabric and compute kinds load
the photonic hazard module, the node kinds the cluster's; the fault
lowering (:mod:`repro.studies.faults`) resolves every kind here, so
externally registered hazard kinds are buildable from JSON specs."""


# ---------------------------------------------------------------------------
# Arrival processes: factories from (rate, seed, spec knobs).
# ---------------------------------------------------------------------------


def _arrival_factories() -> dict[str, Callable]:
    from ..sim.traffic import ClosedLoopClients, MMPPArrivals, PoissonArrivals

    def poisson(rate_rps: float, seed: int, **_: Any) -> PoissonArrivals:
        return PoissonArrivals(rate_rps=rate_rps, seed=seed)

    def mmpp(rate_rps: float, seed: int, burstiness: float = 4.0,
             dwell_s: float = 20e-6, **_: Any) -> MMPPArrivals:
        return MMPPArrivals(rate_rps=rate_rps, burstiness=burstiness,
                            dwell_s=dwell_s, seed=seed)

    def closed(rate_rps: float, seed: int, think_time_s: float = 10e-6,
               **_: Any) -> ClosedLoopClients:
        # Closed loop: the rate sets the client population via the
        # zero-service-time bound n = rate * think.
        n_clients = max(1, round(rate_rps * think_time_s))
        return ClosedLoopClients(n_clients=n_clients,
                                 think_time_s=think_time_s, seed=seed)

    return {"poisson": poisson, "mmpp": mmpp, "closed": closed}


ARRIVALS = Registry("arrival process", label="ARRIVALS",
                    bind=_arrival_factories, names=ARRIVAL_NAMES)
"""Arrival-process factories ``(rate_rps, seed, **knobs) -> process``."""


# ---------------------------------------------------------------------------
# Cluster routing policies.
# ---------------------------------------------------------------------------


def _router_factories() -> dict[str, Callable]:
    from ..cluster.router import ROUTER_FACTORIES

    return ROUTER_FACTORIES


ROUTERS = Registry("router", label="ROUTERS", bind=_router_factories,
                   names=ROUTER_NAMES)
"""Cluster routing-policy factories ``(n_nodes, weights) -> policy``.

Shares the factory dict the cluster router builds from, so a router
registered here is buildable — not just spec-valid."""

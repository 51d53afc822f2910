"""Plugin-style registries: every name the study layer can look up.

One :class:`Registry` per extension point — platforms, models,
interposer controllers, hazards, arrival processes and routers — replaces
the name→builder dictionaries that used to be scattered across
``experiments/runner.py``, ``experiments/serving_study.py`` and
``cli.py``.  A failed lookup raises
:class:`~repro.errors.UnknownNameError` with a did-you-mean suggestion
instead of a bare ``KeyError``, and downstream code (including external
plugins) can ``register`` new entries without touching any other layer.

Registries whose factories live in another layer bind on first use
(``CONTROLLERS``, ``HAZARDS``, ``ARRIVALS``, ``ROUTERS``): importing
this module loads only the platform and model layers an inference study
runs.  Dispatch policies are no registry: the scheduler implements a
fixed set, which ``SchedulerSpec.policy`` names as its choices.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

from ..config import PlatformConfig
from ..core.accelerator import (
    CrossLight25DAWGR,
    CrossLight25DElec,
    CrossLight25DSiPh,
    MonolithicCrossLight,
)
from ..dnn.zoo import (
    EXTENDED_BUILDERS,
    MODEL_BUILDERS,
    TRANSFORMER_BUILDERS,
)
from ..errors import ConfigurationError, UnknownNameError


class Registry:
    """Ordered name→factory map with typed lookup errors.

    ``entries`` are copied.  ``bind`` instead returns a mutable dict
    the registry shares, so registrations through the registry become
    visible to code reading that dict directly (and vice versa); it is
    called on the registry's first use, so the module defining a
    registry need not import the layer that owns the dict.  ``label``
    is the registry's own name (``"ROUTERS"``): lookup errors carry it
    so multi-registry specs say *which* table rejected a name.
    """

    def __init__(self, kind: str,
                 entries: Mapping[str, Callable] | None = None,
                 label: str | None = None,
                 bind: Callable[[], dict[str, Callable]] | None = None):
        self.kind = kind
        self.label = label
        if entries is not None and bind is not None:
            raise ConfigurationError(
                "pass either entries (copied) or bind (shared, resolved "
                "on first use)"
            )
        self._bind = bind
        self._entries = None if bind is not None else dict(entries or {})

    def _table(self) -> dict[str, Callable]:
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
        """The factory under ``name``; typed error with suggestions."""
        try:
            return self._table()[name]
        except KeyError:
            raise UnknownNameError(
                self.kind, name, self.names(), registry=self.label
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._table())

    def __contains__(self, name: object) -> bool:
        return name in self._table()

    def __iter__(self) -> Iterator[str]:
        return iter(self._table())

    def __len__(self) -> int:
        return len(self._table())


# ---------------------------------------------------------------------------
# Platforms (Table 3 names + the AWGR topology baseline).
# ---------------------------------------------------------------------------


def _reject_faults(name: str, faults) -> None:
    if faults is not None:
        raise ConfigurationError(
            f"platform {name!r} has no fault model; hazard timelines "
            "apply to the photonic interposer platform "
            "('2.5D-CrossLight-SiPh')"
        )


def _build_crosslight(config: PlatformConfig, controller: str, faults=None):
    _reject_faults("CrossLight", faults)
    return MonolithicCrossLight(config)


def _build_25d_elec(config: PlatformConfig, controller: str, faults=None):
    _reject_faults("2.5D-CrossLight-Elec", faults)
    return CrossLight25DElec(config)


def _build_25d_siph(config: PlatformConfig, controller: str, faults=None):
    return CrossLight25DSiPh(config, controller=controller, faults=faults)


def _build_25d_awgr(config: PlatformConfig, controller: str, faults=None):
    _reject_faults("2.5D-CrossLight-AWGR", faults)
    return CrossLight25DAWGR(config)


PLATFORMS = Registry("platform", label="PLATFORMS", entries={
    "CrossLight": _build_crosslight,
    "2.5D-CrossLight-Elec": _build_25d_elec,
    "2.5D-CrossLight-SiPh": _build_25d_siph,
    "2.5D-CrossLight-AWGR": _build_25d_awgr,
})
"""Platform factories ``(config, controller) -> platform``; only the
SiPh interposer actually consumes the controller name."""


MODELS = Registry("model", label="MODELS",
                  entries={**MODEL_BUILDERS, **EXTENDED_BUILDERS,
                           **TRANSFORMER_BUILDERS})
"""DNN builders by zoo name (Table 2, the extended zoo, and the
transformer zoo for autoregressive serving)."""


def _controller_factories() -> dict[str, Callable]:
    from ..interposer.photonic.controllers import CONTROLLER_FACTORIES

    return CONTROLLER_FACTORIES


CONTROLLERS = Registry("controller", label="CONTROLLERS",
                       bind=_controller_factories)
"""Interposer reconfiguration controllers (SiPh platform).

Shares the factory dict the SiPh platform constructs from, so a
controller registered here is buildable — not just spec-valid."""


def _hazard_factories() -> dict[str, Callable]:
    from ..cluster import hazards  # noqa: F401  (registers the node-* kinds)
    from ..interposer.photonic.faults import HAZARD_FACTORIES

    return HAZARD_FACTORIES


HAZARDS = Registry("hazard", label="HAZARDS", bind=_hazard_factories)
"""Hazard-event factories for the platform fault timeline.

Each factory takes the full :class:`~repro.studies.spec.FaultEventSpec`
field set (minus ``kind``) and returns a typed hazard event, rejecting
knobs that do not apply to its kind.  Shares the factory dict the
hazard engine's spec lowering reads, so externally registered hazard
kinds are buildable from JSON specs; binding it also registers the
cluster layer's node-level kinds in that dict."""


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
                    bind=_arrival_factories)
"""Arrival-process factories ``(rate_rps, seed, **knobs) -> process``."""


# ---------------------------------------------------------------------------
# Cluster routing policies.
# ---------------------------------------------------------------------------


def _router_factories() -> dict[str, Callable]:
    from ..cluster.router import ROUTER_FACTORIES

    return ROUTER_FACTORIES


ROUTERS = Registry("router", label="ROUTERS", bind=_router_factories)
"""Cluster routing-policy factories ``(n_nodes, weights) -> policy``.

Shares the factory dict the cluster router builds from, so a router
registered here is buildable — not just spec-valid."""

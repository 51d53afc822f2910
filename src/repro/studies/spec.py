"""Declarative, serializable scenario specs: one schema for every study.

A :class:`StudySpec` is a frozen, JSON-round-trippable description of a
complete experiment — *what* to serve or measure (:class:`WorkloadSpec`:
the traffic mix with per-model fractions, SLOs and priorities, plus the
arrival process), *where* (:class:`PlatformSpec`), *how*
(:class:`SchedulerSpec`) and *across which grid*
(:class:`SweepSpec`).  Specs validate on construction, reject unknown
JSON fields (typos never silently no-op) and hash to a stable
:func:`spec_digest` (``--dry-run`` prints it per grid point).  The
digest identifies a spec, not a simulation: cache keys hash the cells
a spec lowers onto, so two specs that lower to equal cells share
cached results.

The spec layer deliberately knows nothing about simulators: lowering a
spec onto the cell machinery lives in :mod:`repro.studies.compile`, and
name resolution (platforms, models, controllers, arrivals) happens
against :mod:`repro.studies.registry` at compile time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from functools import cache
from typing import Any, ClassVar, Mapping, get_args, get_type_hints

from ..errors import SpecError

SPEC_SCHEMA_VERSION = 7
"""Bump when the spec schema changes meaning: digests move with it.

Cache keys do not embed the digest — they hash the lowered cells (see
:func:`repro.experiments.runner.fields_key`) — so a schema bump alone
invalidates no cached result.

Version 2: :class:`PlatformSpec` grew a ``faults`` section
(:class:`FaultSpec`).

Version 3: :class:`StudySpec` grew a ``cluster`` section
(:class:`ClusterSpec`: replicas, router, per-node overrides, node-level
hazards) and :class:`FaultEventSpec` a ``node`` field.

Version 4: :class:`StudySpec` grew a ``resilience`` section
(:class:`ResilienceSpec`: per-request timeouts, retries with backoff
and a retry budget, hedged requests, health-checked routing signals)
and :class:`FaultEventSpec` grew ``nodes`` (correlated multi-node
outage groups) and ``mac_fraction`` (compute-side MAC degradation).

Version 5: :class:`StudySpec` grew a ``fidelity`` section
(:class:`FidelitySpec`: the hybrid-fidelity engine — fluid fast path,
calibration error budget, automatic DES fallback).  The degenerate
``des`` default lowers to a cell with no fidelity policy.

Version 6: autoregressive (transformer) serving.
:class:`WorkloadSpec` grew sequence-length knobs (``prompt_tokens`` /
``output_tokens`` / ``length_distribution``), :class:`ModelTraffic`
per-tenant length overrides plus an admission ``quota``,
:class:`SchedulerSpec` a ``starvation_age_s`` guard for the priority
policy, and :class:`PlatformSpec` a sweepable ``controller_epoch_s``.
Single-step (CNN) specs lower to cells with no sequence lengths.

Version 7: :class:`StudySpec` grew a ``telemetry`` section
(:class:`TelemetrySpec`: request span tracing with a configurable
sample rate, and sim-time-sampled gauge metrics).  The degenerate
default lowers to a cell with no telemetry policy."""

LENGTH_DISTRIBUTIONS = ("fixed", "geometric")
"""Sequence-length samplers: every request uses the configured token
counts exactly (``fixed``) or draws each from a seeded geometric
distribution with that mean (``geometric``, minimum one token)."""

STUDY_KINDS = ("inference", "serving")
"""Study kinds the compiler can lower."""


# ---------------------------------------------------------------------------
# (De)serialisation helpers shared by every spec class.
# ---------------------------------------------------------------------------


def _check_fields(cls: type, data: Mapping[str, Any], where: str) -> None:
    """Reject unknown JSON fields with a precise, typed error."""
    if not isinstance(data, Mapping):
        raise SpecError(
            f"{where} must be a JSON object, got {type(data).__name__}"
        )
    known = {field.name for field in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            f"unknown field(s) {', '.join(map(repr, unknown))} in {where}; "
            f"known fields: {', '.join(sorted(known))}"
        )


def _reject_constant(literal: str) -> None:
    """``json.loads`` hook for the non-standard ``NaN``/``Infinity``
    literals: every ``<= 0`` guard in the specs would let NaN through."""
    raise SpecError(
        f"spec JSON contains {literal}; every number must be finite"
    )


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number"}


@cache
def _scalar_fields(cls: type) -> dict[str, tuple[type, bool]]:
    """``field -> (type, optional)`` for every bool/int/float field of a
    spec dataclass, read from its annotations (``int | None`` is an
    optional int)."""
    hints = get_type_hints(cls)
    scalars = {}
    for field in fields(cls):
        options = set(get_args(hints[field.name])) or {hints[field.name]}
        optional = type(None) in options
        options.discard(type(None))
        if len(options) == 1 and (kind := options.pop()) in _TYPE_NAMES:
            scalars[field.name] = (kind, optional)
    return scalars


def _check_types(cls: type, values: Mapping[str, Any]) -> None:
    """Reject a scalar of the wrong JSON type for its annotated field.

    An int field rejects booleans and floats, a float field takes
    integers but not booleans, a bool field takes only booleans, and an
    optional field also takes ``None``.  String fields are not checked:
    names resolve against the registries at compile time, which raise
    :class:`~repro.errors.UnknownNameError` for any bad one.  Both JSON
    loading (:func:`_build`) and sweep values
    (:meth:`StudySpec.with_override`) pass through here.
    """
    scalars = _scalar_fields(cls)
    for name, value in values.items():
        if name not in scalars:
            continue
        kind, optional = scalars[name]
        if value is None and optional:
            continue
        if kind is bool:
            valid = isinstance(value, bool)
        else:
            number = (int, float) if kind is float else int
            valid = (isinstance(value, number)
                     and not isinstance(value, bool))
        if not valid:
            path = f"{cls._path}.{name}" if cls._path else name
            raise SpecError(
                f"{path} must be {_TYPE_NAMES[kind]}"
                f"{' or null' if optional else ''}, got {value!r}"
            )


def _build(cls: type, kwargs: dict[str, Any], where: str):
    """Construct a spec dataclass, translating failures to SpecError."""
    _check_types(cls, kwargs)
    try:
        return cls(**kwargs)
    except TypeError as error:  # missing required fields
        raise SpecError(f"invalid {where}: {error}") from None


def _jsonify(value: Any) -> Any:
    """Spec values to JSON-native types (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value


def _scalars_to_dict(spec: Any) -> dict[str, Any]:
    """Field-by-field dict of a spec dataclass (recursing via to_dict)."""
    return {
        field.name: _jsonify(getattr(spec, field.name))
        for field in fields(spec)
    }


# ---------------------------------------------------------------------------
# Workload: the traffic mix and its arrival process.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelTraffic:
    """One tenant of the traffic mix.

    ``fraction`` is this model's share of arrivals, ``slo_s`` its
    latency SLO (deadline assigned at submission; ``None`` = best
    effort) and ``priority`` its rank under the ``priority`` dispatch
    policy (higher dispatches first).

    ``prompt_tokens`` / ``output_tokens`` override the workload-level
    sequence lengths for this tenant (``None`` = inherit): a transformer
    tenant serves one prefill plus ``output_tokens`` dependent decode
    steps per request, a CNN tenant keeps both at zero.  ``quota`` caps
    this tenant's outstanding (queued + running) requests — submissions
    over quota are shed at arrival and counted per model.
    """

    model: str
    fraction: float = 1.0
    slo_s: float | None = None
    priority: int = 0
    prompt_tokens: int | None = None
    output_tokens: int | None = None
    quota: int | None = None

    _path: ClassVar[str] = "workload.models[]"

    def __post_init__(self) -> None:
        if not self.model:
            raise SpecError("model name must be non-empty")
        if not 0.0 < self.fraction <= 1.0:
            raise SpecError(
                f"traffic fraction must be in (0, 1], got {self.fraction} "
                f"for {self.model!r}"
            )
        if self.slo_s is not None and self.slo_s <= 0:
            raise SpecError(
                f"SLO must be positive, got {self.slo_s} for {self.model!r}"
            )
        for name in ("prompt_tokens", "output_tokens"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise SpecError(
                    f"{name} must be >= 0, got {value} for {self.model!r}"
                )
        if self.quota is not None and self.quota < 1:
            raise SpecError(
                f"admission quota must be >= 1, got {self.quota} for "
                f"{self.model!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        return _scalars_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModelTraffic":
        _check_fields(cls, data, "workload model entry")
        return _build(cls, dict(data), "workload model entry")


@dataclass(frozen=True)
class WorkloadSpec:
    """What traffic the study offers: mix, rate, arrivals, window.

    ``burstiness``/``dwell_s`` parameterise the ``mmpp`` arrival
    process, ``think_time_s`` the ``closed`` loop; they are ignored by
    the others.  ``batch_size`` applies to ``inference``-kind studies
    (one isolated batched inference instead of a serving window).

    ``prompt_tokens`` / ``output_tokens`` are the workload-level
    sequence lengths (zero = single-step requests; per-tenant overrides
    in :class:`ModelTraffic`); ``length_distribution`` selects how each
    request's lengths are drawn from those means
    (:data:`LENGTH_DISTRIBUTIONS`, seeded by ``seed``).
    """

    models: tuple[ModelTraffic, ...]
    arrival: str = "poisson"
    rate_rps: float = 100e3
    duration_s: float = 2e-3
    seed: int = 7
    burstiness: float = 4.0
    dwell_s: float = 20e-6
    think_time_s: float = 10e-6
    batch_size: int = 1
    prompt_tokens: int = 0
    output_tokens: int = 0
    length_distribution: str = "fixed"

    _path: ClassVar[str] = "workload"

    def __post_init__(self) -> None:
        if not self.models:
            raise SpecError("workload needs at least one model")
        names = [entry.model for entry in self.models]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate models in workload: {names}")
        if self.rate_rps <= 0:
            raise SpecError(
                f"arrival rate must be positive, got {self.rate_rps}"
            )
        if self.duration_s <= 0:
            raise SpecError(
                f"duration must be positive, got {self.duration_s}"
            )
        if self.burstiness < 1.0:
            raise SpecError(
                f"burstiness must be >= 1, got {self.burstiness}"
            )
        if self.dwell_s <= 0:
            raise SpecError(f"dwell time must be positive, got {self.dwell_s}")
        if self.think_time_s < 0:
            raise SpecError(
                f"think time must be non-negative, got {self.think_time_s}"
            )
        if self.batch_size < 1:
            raise SpecError(
                f"batch size must be >= 1, got {self.batch_size}"
            )
        if self.prompt_tokens < 0 or self.output_tokens < 0:
            raise SpecError(
                f"sequence lengths must be >= 0, got prompt_tokens="
                f"{self.prompt_tokens}, output_tokens={self.output_tokens}"
            )
        if self.length_distribution not in LENGTH_DISTRIBUTIONS:
            raise SpecError(
                f"unknown length distribution "
                f"{self.length_distribution!r}; choose from "
                f"{', '.join(LENGTH_DISTRIBUTIONS)}"
            )
        for entry in self.models:
            prompt, output = self.resolved_lengths(entry)
            if (prompt > 0) != (output > 0):
                raise SpecError(
                    f"{entry.model!r} resolves to prompt_tokens={prompt}, "
                    f"output_tokens={output}; a sequence tenant needs "
                    "both positive (a single-step tenant, both zero)"
                )
        # Inert-knob rejection: a sampler with no sequence tenant would
        # sit in the digest without acting.
        if (
            self.length_distribution
            != type(self).__dataclass_fields__["length_distribution"].default
            and not self.has_sequences
        ):
            raise SpecError(
                "length_distribution applies only to sequence "
                "(autoregressive) workloads; set prompt_tokens/"
                "output_tokens or drop it"
            )

    def resolved_lengths(self, entry: ModelTraffic) -> tuple[int, int]:
        """One tenant's effective (prompt, output) token counts."""
        prompt = (
            self.prompt_tokens if entry.prompt_tokens is None
            else entry.prompt_tokens
        )
        output = (
            self.output_tokens if entry.output_tokens is None
            else entry.output_tokens
        )
        return prompt, output

    @property
    def has_sequences(self) -> bool:
        """Whether any tenant serves autoregressive sequences."""
        return any(
            self.resolved_lengths(entry)[1] > 0 for entry in self.models
        )

    @property
    def has_quotas(self) -> bool:
        """Whether any tenant caps its outstanding requests."""
        return any(entry.quota is not None for entry in self.models)

    @property
    def fraction_total(self) -> float:
        return sum(entry.fraction for entry in self.models)

    def to_dict(self) -> dict[str, Any]:
        return _scalars_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        _check_fields(cls, data, "workload spec")
        kwargs = dict(data)
        models = kwargs.pop("models", None)
        if not isinstance(models, (list, tuple)) or not models:
            raise SpecError("workload spec needs a non-empty 'models' list")
        kwargs["models"] = tuple(
            ModelTraffic.from_dict(entry) for entry in models
        )
        return _build(cls, kwargs, "workload spec")


# ---------------------------------------------------------------------------
# Faults: the hazard timeline a platform runs under.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEventSpec:
    """One hazard event of the platform's fault timeline.

    ``kind`` resolves against the ``HAZARDS`` registry at compile time
    (``gateway-fail``, ``gateway-repair``, ``ring-drift``,
    ``laser-degradation`` on the fabric; ``node-fail``, ``node-drain``,
    ``node-repair`` on cluster nodes); the remaining fields are the
    union of every kind's knobs — the per-kind factories reject knobs
    that do not apply, so an inert field never silently moves a digest.
    ``chiplet_gateways`` lists ``[chiplet_id, write, read]`` failure
    (or repair) counts; ``node`` is the cluster node index the
    node-level kinds address, and ``nodes`` the node group the
    correlated kinds (``rack-fail`` / ``rack-repair``) take down or
    restore together.  ``mac_fraction`` is the remaining MAC throughput
    of a ``chiplet-mac-degrade`` event.
    """

    kind: str
    at_s: float
    duration_s: float | None = None
    memory_gateways: int = 0
    chiplet_gateways: tuple[tuple[str, int, int], ...] = ()
    temperature_rise_k: float = 0.0
    power_fraction: float = 1.0
    seed: int = 0
    node: int | None = None
    nodes: tuple[int, ...] = ()
    mac_fraction: float = 1.0

    _path: ClassVar[str] = "faults.events[]"

    def __post_init__(self) -> None:
        if not self.kind:
            raise SpecError("fault event needs a kind")
        if self.at_s < 0:
            raise SpecError(
                f"fault event time must be >= 0, got {self.at_s}"
            )
        if self.node is not None and self.node < 0:
            raise SpecError(
                f"fault event node index must be >= 0, got {self.node}"
            )
        if any(index < 0 for index in self.nodes):
            raise SpecError(
                f"fault event node indices must be >= 0, got "
                f"{list(self.nodes)}"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise SpecError(
                f"duplicate indices in fault event 'nodes': "
                f"{list(self.nodes)}"
            )
        if self.node is not None and self.nodes:
            raise SpecError(
                "a fault event takes either 'node' (single-node kinds) "
                "or 'nodes' (correlated rack kinds), not both"
            )
        if not 0.0 < self.mac_fraction <= 1.0:
            raise SpecError(
                f"MAC fraction must be in (0, 1], got {self.mac_fraction}"
            )
        if self.duration_s is not None and self.duration_s <= 0:
            raise SpecError(
                f"fault event duration must be positive, got "
                f"{self.duration_s}"
            )
        if self.memory_gateways < 0:
            raise SpecError(
                f"memory gateway count must be >= 0, got "
                f"{self.memory_gateways}"
            )
        for entry in self.chiplet_gateways:
            if len(entry) != 3:
                raise SpecError(
                    "chiplet_gateways entries are "
                    "[chiplet_id, write, read] triples, got "
                    f"{list(entry)!r}"
                )
        if not 0.0 < self.power_fraction <= 1.0:
            raise SpecError(
                f"power fraction must be in (0, 1], got "
                f"{self.power_fraction}"
            )
        if self.temperature_rise_k < 0:
            raise SpecError(
                f"temperature rise must be >= 0, got "
                f"{self.temperature_rise_k}"
            )

    def to_dict(self) -> dict[str, Any]:
        return _scalars_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEventSpec":
        _check_fields(cls, data, "fault event")
        kwargs = dict(data)
        entries = kwargs.get("chiplet_gateways", ())
        if not isinstance(entries, (list, tuple)):
            raise SpecError("fault event 'chiplet_gateways' must be a list")
        kwargs["chiplet_gateways"] = tuple(
            tuple(entry) if isinstance(entry, (list, tuple)) else (entry,)
            for entry in entries
        )
        nodes = kwargs.get("nodes", ())
        if not isinstance(nodes, (list, tuple)):
            raise SpecError("fault event 'nodes' must be a list")
        kwargs["nodes"] = tuple(nodes)
        return _build(cls, kwargs, "fault event")


@dataclass(frozen=True)
class FaultSpec:
    """The platform's hazard timeline: zero or more chronological events.

    The empty timeline (the default) is the fault-free platform; a
    timeline whose every event fires at ``t=0`` is the static fault
    plan of the one-shot studies.
    """

    events: tuple[FaultEventSpec, ...] = ()

    def __post_init__(self) -> None:
        previous = 0.0
        for event in self.events:
            if event.at_s < previous:
                raise SpecError(
                    "fault events must be listed chronologically: "
                    f"{event.kind!r} at t={event.at_s}s follows "
                    f"t={previous}s"
                )
            previous = event.at_s

    def __bool__(self) -> bool:
        return bool(self.events)

    def to_dict(self) -> dict[str, Any]:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        _check_fields(cls, data, "fault spec")
        events = data.get("events", [])
        if not isinstance(events, (list, tuple)):
            raise SpecError("fault spec 'events' must be a list")
        return cls(events=tuple(
            FaultEventSpec.from_dict(event) for event in events
        ))


# ---------------------------------------------------------------------------
# Platform and scheduler.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlatformSpec:
    """Which platform serves the workload, and its config knobs.

    ``name``/``controller`` resolve against the platform and controller
    registries at compile time.  ``n_wavelengths`` and
    ``gateways_per_chiplet`` override the Table 1 defaults (the two
    design-space axes the paper's conclusions call out).
    ``controller_epoch_s`` overrides the epoch length the reconfiguring
    controllers (ReSiPI / PROWAVES) wake on — a sweepable axis; the
    compiler rejects it on controllers that never act on the epoch.
    ``faults`` is the hazard timeline the platform runs under (photonic
    platform only; empty = fault-free).
    """

    name: str = "2.5D-CrossLight-SiPh"
    controller: str = "resipi"
    n_wavelengths: int | None = None
    gateways_per_chiplet: int | None = None
    controller_epoch_s: float | None = None
    faults: FaultSpec = FaultSpec()

    _path: ClassVar[str] = "platform"

    def __post_init__(self) -> None:
        if self.n_wavelengths is not None and self.n_wavelengths < 1:
            raise SpecError(
                f"wavelength count must be >= 1, got {self.n_wavelengths}"
            )
        if self.controller_epoch_s is not None and self.controller_epoch_s <= 0:
            raise SpecError(
                f"controller epoch must be positive, got "
                f"{self.controller_epoch_s}"
            )
        if (
            self.gateways_per_chiplet is not None
            and self.gateways_per_chiplet < 1
        ):
            raise SpecError(
                f"gateway count must be >= 1, got "
                f"{self.gateways_per_chiplet}"
            )

    def to_dict(self) -> dict[str, Any]:
        return _scalars_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlatformSpec":
        _check_fields(cls, data, "platform spec")
        kwargs = dict(data)
        if "faults" in kwargs:
            kwargs["faults"] = FaultSpec.from_dict(kwargs["faults"])
        return _build(cls, kwargs, "platform spec")


@dataclass(frozen=True)
class SchedulerSpec:
    """How requests dispatch: policy, batching, admission, shedding.

    Mirrors :class:`~repro.serving.scheduler.BatchPolicy`
    field-for-field; the compiler builds the policy through the batch
    policy registry so the name resolves with a typed error.

    ``starvation_age_s`` arms the priority policy's starvation guard:
    a queued request older than this is promoted ahead of higher
    priorities (priority policy only — the guard would be inert
    elsewhere).
    """

    policy: str = "fifo"
    max_batch: int = 1
    batch_timeout_s: float = 20e-6
    max_inflight: int = 4
    shed_expired: bool = False
    starvation_age_s: float | None = None

    _path: ClassVar[str] = "scheduler"

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise SpecError(f"max batch must be >= 1, got {self.max_batch}")
        if self.batch_timeout_s < 0:
            raise SpecError(
                f"batch timeout must be non-negative, got "
                f"{self.batch_timeout_s}"
            )
        if self.max_inflight < 1:
            raise SpecError(
                f"max inflight must be >= 1, got {self.max_inflight}"
            )
        # Batching knobs on a single-dispatch policy would be inert at
        # runtime but present in cache keys: reject instead of no-oping.
        if self.policy not in ("max-batch", "continuous"):
            if self.max_batch != 1:
                raise SpecError(
                    f"max_batch applies only to the max-batch and "
                    f"continuous policies (got {self.max_batch} with "
                    f"{self.policy!r})"
                )
        if self.policy != "max-batch":
            default_timeout = type(self).__dataclass_fields__[
                "batch_timeout_s"
            ].default
            if self.batch_timeout_s != default_timeout:
                raise SpecError(
                    f"batch_timeout_s applies only to the max-batch "
                    f"policy (got {self.batch_timeout_s} with "
                    f"{self.policy!r}; the continuous policy joins at "
                    "decode-step boundaries, not timers)"
                )
        if self.starvation_age_s is not None:
            if self.policy != "priority":
                raise SpecError(
                    f"starvation_age_s applies only to the priority "
                    f"policy (got it with {self.policy!r})"
                )
            if self.starvation_age_s <= 0:
                raise SpecError(
                    f"starvation age must be positive, got "
                    f"{self.starvation_age_s}"
                )

    def to_dict(self) -> dict[str, Any]:
        return _scalars_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SchedulerSpec":
        _check_fields(cls, data, "scheduler spec")
        return _build(cls, dict(data), "scheduler spec")


# ---------------------------------------------------------------------------
# Cluster: a fleet of platform replicas behind a router.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeOverrideSpec:
    """Heterogeneous fleet: config overrides for one node.

    ``node`` is the replica index; the remaining fields override the
    study-level platform knobs for that node only (``None`` = inherit).
    """

    node: int
    controller: str | None = None
    n_wavelengths: int | None = None
    gateways_per_chiplet: int | None = None

    _path: ClassVar[str] = "cluster.nodes[]"

    def __post_init__(self) -> None:
        if self.node < 0:
            raise SpecError(
                f"node override index must be >= 0, got {self.node}"
            )
        if self.n_wavelengths is not None and self.n_wavelengths < 1:
            raise SpecError(
                f"wavelength count must be >= 1, got {self.n_wavelengths}"
            )
        if (
            self.gateways_per_chiplet is not None
            and self.gateways_per_chiplet < 1
        ):
            raise SpecError(
                f"gateway count must be >= 1, got "
                f"{self.gateways_per_chiplet}"
            )

    def to_dict(self) -> dict[str, Any]:
        return _scalars_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NodeOverrideSpec":
        _check_fields(cls, data, "node override")
        return _build(cls, dict(data), "node override")


@dataclass(frozen=True)
class ClusterSpec:
    """How many platform replicas serve the workload, and behind what.

    ``router`` resolves against the ``ROUTERS`` registry at compile
    time; ``weights`` parameterises the ``weighted`` router (one
    positive weight per node).  ``nodes`` optionally overrides platform
    knobs per replica (heterogeneous fleets); ``faults`` is the
    node-level hazard timeline (``node-fail`` / ``node-drain`` /
    ``node-repair``), and ``reroute_on_fail`` controls whether a failed
    node's queued requests are re-enqueued on survivors or left to
    drain in place.
    """

    replicas: int = 1
    router: str = "round-robin"
    weights: tuple[float, ...] = ()
    reroute_on_fail: bool = True
    nodes: tuple[NodeOverrideSpec, ...] = ()
    faults: FaultSpec = FaultSpec()

    _path: ClassVar[str] = "cluster"

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise SpecError(
                f"replica count must be >= 1, got {self.replicas}"
            )
        if not self.router:
            raise SpecError("cluster needs a router name")
        if self.weights and len(self.weights) != self.replicas:
            raise SpecError(
                f"cluster.weights needs one weight per replica: got "
                f"{len(self.weights)} weight(s) for {self.replicas} "
                f"replica(s)"
            )
        if any(weight <= 0 for weight in self.weights):
            raise SpecError(
                f"node weights must be positive, got {list(self.weights)}"
            )
        indices = [override.node for override in self.nodes]
        if len(set(indices)) != len(indices):
            raise SpecError(f"duplicate node overrides: {indices}")
        for override in self.nodes:
            if override.node >= self.replicas:
                raise SpecError(
                    f"node override for node {override.node} but the "
                    f"cluster has {self.replicas} replica(s)"
                )
        for event in self.faults.events:
            if event.node is None and not event.nodes:
                raise SpecError(
                    f"cluster fault event {event.kind!r} at "
                    f"t={event.at_s}s needs a 'node' index (or a "
                    f"'nodes' group for the correlated rack kinds)"
                )
            targets = (event.node,) if event.node is not None else event.nodes
            for index in targets:
                if index >= self.replicas:
                    raise SpecError(
                        f"cluster fault event {event.kind!r} names node "
                        f"{index} but the cluster has {self.replicas} "
                        f"replica(s)"
                    )

    def to_dict(self) -> dict[str, Any]:
        return _scalars_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterSpec":
        _check_fields(cls, data, "cluster spec")
        kwargs = dict(data)
        weights = kwargs.get("weights", ())
        if not isinstance(weights, (list, tuple)):
            raise SpecError("cluster 'weights' must be a list")
        kwargs["weights"] = tuple(weights)
        nodes = kwargs.get("nodes", ())
        if not isinstance(nodes, (list, tuple)):
            raise SpecError("cluster 'nodes' must be a list")
        kwargs["nodes"] = tuple(
            NodeOverrideSpec.from_dict(entry) for entry in nodes
        )
        if "faults" in kwargs:
            kwargs["faults"] = FaultSpec.from_dict(kwargs["faults"])
        return _build(cls, kwargs, "cluster spec")


# ---------------------------------------------------------------------------
# Resilience: the request lifecycle and the router's signal path.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceSpec:
    """How requests survive faults, and what the router actually sees.

    The default instance is the **degenerate** resilience spec: no
    timeouts, no retries, no hedging, and an omniscient zero-staleness
    router — cells carry no lifecycle policy.  Any non-default knob
    routes the study through the request-lifecycle layer
    (:mod:`repro.serving.lifecycle`).

    ``timeout_s`` bounds each *attempt*; a timed-out attempt is
    cancelled (if still queued) and retried up to ``max_retries`` times
    with exponential backoff ``retry_backoff_s * 2**(n-1)`` plus a
    deterministic seeded jitter of up to ``retry_jitter`` of the
    backoff.  ``retry_budget`` caps total retries fleet-wide as a
    fraction of logical requests started (a classic retry budget, so
    retry storms cannot amplify an outage).  ``hedge_delay_s`` arms a
    hedge timer per request: when the primary attempt is still pending
    after the delay, a duplicate is sent to a *different* node and the
    first completion wins (the loser is cancelled).

    ``signal_staleness_s`` makes the router's queue-depth signals
    sampled instead of instantaneous, and ``probe_interval_s`` /
    ``probe_misses`` switch failure detection from omniscient to
    probe-based: ``probe_misses`` consecutive missed probes eject a
    node from the routable view, and the first successful probe after
    repair reinstates it.
    """

    timeout_s: float | None = None
    max_retries: int = 0
    retry_backoff_s: float = 50e-6
    retry_jitter: float = 0.0
    retry_budget: float | None = None
    hedge_delay_s: float | None = None
    signal_staleness_s: float = 0.0
    probe_interval_s: float | None = None
    probe_misses: int = 3

    _path: ClassVar[str] = "resilience"

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SpecError(
                f"request timeout must be positive, got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise SpecError(
                f"max retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff_s < 0:
            raise SpecError(
                f"retry backoff must be non-negative, got "
                f"{self.retry_backoff_s}"
            )
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise SpecError(
                f"retry jitter must be in [0, 1] (a fraction of the "
                f"backoff), got {self.retry_jitter}"
            )
        if self.retry_budget is not None and self.retry_budget <= 0:
            raise SpecError(
                f"retry budget must be positive (a fraction of logical "
                f"requests), got {self.retry_budget}; omit it for "
                f"unlimited retries"
            )
        if self.hedge_delay_s is not None and self.hedge_delay_s <= 0:
            raise SpecError(
                f"hedge delay must be positive, got {self.hedge_delay_s}"
            )
        if self.signal_staleness_s < 0:
            raise SpecError(
                f"signal staleness must be non-negative, got "
                f"{self.signal_staleness_s}"
            )
        if self.probe_interval_s is not None and self.probe_interval_s <= 0:
            raise SpecError(
                f"probe interval must be positive, got "
                f"{self.probe_interval_s}"
            )
        if self.probe_misses < 1:
            raise SpecError(
                f"probe miss threshold must be >= 1, got "
                f"{self.probe_misses}"
            )
        # Inert-knob rejection: a knob that cannot act would still move
        # the digest (and the cache key), so refuse it outright.
        defaults = type(self).__dataclass_fields__
        if self.max_retries == 0:
            if self.retry_backoff_s != defaults["retry_backoff_s"].default:
                raise SpecError(
                    "retry_backoff_s applies only with max_retries >= 1"
                )
            if self.retry_jitter != 0.0:
                raise SpecError(
                    "retry_jitter applies only with max_retries >= 1"
                )
            if self.retry_budget is not None:
                raise SpecError(
                    "retry_budget applies only with max_retries >= 1"
                )
        if (
            self.probe_interval_s is None
            and self.probe_misses != defaults["probe_misses"].default
        ):
            raise SpecError(
                "probe_misses applies only with probe_interval_s set"
            )

    def __bool__(self) -> bool:
        """True when any knob departs from the degenerate default."""
        return self != type(self)()

    @property
    def health_checked(self) -> bool:
        """Whether the router's view is modeled (stale and/or probed)."""
        return self.signal_staleness_s > 0 or self.probe_interval_s is not None

    def to_dict(self) -> dict[str, Any]:
        return _scalars_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResilienceSpec":
        _check_fields(cls, data, "resilience spec")
        return _build(cls, dict(data), "resilience spec")


# ---------------------------------------------------------------------------
# Fidelity: how faithfully each cell is simulated.
# ---------------------------------------------------------------------------


FIDELITY_MODES = ("des", "fluid", "auto")
"""Fidelity modes: full DES (default), fluid fast path, or fluid with
automatic fallback to DES when the calibration error exceeds budget."""


@dataclass(frozen=True)
class FidelitySpec:
    """How faithfully each serving cell is simulated.

    The default instance is the **degenerate** fidelity spec: every
    cell runs the full discrete-event simulation and carries no
    fidelity policy.

    ``mode`` selects the engine per cell: ``"fluid"`` runs the M/G/k
    fluid approximation calibrated against a short DES window of the
    same point; ``"auto"`` does the same but falls back to full DES
    when the calibration's relative error on p50/p99/goodput exceeds
    ``error_budget``.  Either way the measured errors are recorded in
    the result's ``fidelity`` block — fidelity loss is bounded and
    reported, never assumed.

    ``calibration_s`` is the length of the short DES calibration
    window; ``None`` picks ``max(duration/10, 30 mean inter-arrival
    gaps)`` capped at the full duration.  The calibration checkpoint is
    memoised per (platform, workload) — sweeps fork scenario variants
    from the warm state instead of replaying it per cell.
    """

    mode: str = "des"
    error_budget: float = 0.15
    calibration_s: float | None = None

    _path: ClassVar[str] = "fidelity"

    def __post_init__(self) -> None:
        if self.mode not in FIDELITY_MODES:
            raise SpecError(
                f"unknown fidelity mode {self.mode!r}; "
                f"choose from {', '.join(FIDELITY_MODES)}"
            )
        if not 0.0 < self.error_budget <= 1.0:
            raise SpecError(
                f"fidelity error budget must be in (0, 1], got "
                f"{self.error_budget}"
            )
        if self.calibration_s is not None and self.calibration_s <= 0:
            raise SpecError(
                f"calibration window must be positive, got "
                f"{self.calibration_s}"
            )
        # Inert-knob rejection: calibration knobs on the DES mode would
        # sit in the digest without acting, so refuse them outright.
        if self.mode == "des":
            default_budget = type(self).__dataclass_fields__[
                "error_budget"
            ].default
            if self.error_budget != default_budget:
                raise SpecError(
                    "fidelity.error_budget applies only to the fluid/"
                    "auto modes"
                )
            if self.calibration_s is not None:
                raise SpecError(
                    "fidelity.calibration_s applies only to the fluid/"
                    "auto modes"
                )

    def __bool__(self) -> bool:
        """True when any knob departs from the degenerate default."""
        return self != type(self)()

    def to_dict(self) -> dict[str, Any]:
        return _scalars_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FidelitySpec":
        _check_fields(cls, data, "fidelity spec")
        return _build(cls, dict(data), "fidelity spec")


# ---------------------------------------------------------------------------
# Telemetry: what to observe while each cell simulates.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetrySpec:
    """What the simulation observes about itself while it runs.

    The default instance is the **degenerate** telemetry spec: nothing
    is recorded, and cells carry no telemetry policy.

    ``trace`` arms request span tracing: the lifecycle of each sampled
    request — queue wait, batch gather, KV/weight admission and fetch,
    prefill and decode steps, retry/hedge attempts, routing — is
    recorded as sim-time spans, exportable as Chrome trace-event JSON
    (``repro study SPEC --trace out.json``) loadable in Perfetto.
    ``sample_rate`` is the traced fraction of requests (deterministic
    per request id, so serial and ``--jobs N`` runs sample
    identically); it applies only when ``trace`` is on.

    Metrics gauges (queue depth, inflight, decode-pool width, KV and
    weight residency occupancy, MAC/channel utilization, routable
    nodes) are sampled whenever the section is armed;
    ``metrics_interval_s`` overrides the sim-time sampling interval
    (default: duration / 50).  Telemetry never changes what the
    simulation does: request records are bit-identical with the
    section armed or absent.
    """

    trace: bool = False
    sample_rate: float = 1.0
    metrics_interval_s: float | None = None

    _path: ClassVar[str] = "telemetry"

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_rate <= 1.0:
            raise SpecError(
                f"telemetry sample rate must be in (0, 1], got "
                f"{self.sample_rate}"
            )
        if (
            self.metrics_interval_s is not None
            and self.metrics_interval_s <= 0
        ):
            raise SpecError(
                f"telemetry metrics interval must be positive, got "
                f"{self.metrics_interval_s}"
            )
        # Inert-knob rejection: a sample rate without tracing would sit
        # in the digest without acting.
        if self.sample_rate != 1.0 and not self.trace:
            raise SpecError(
                "telemetry.sample_rate applies only when telemetry.trace "
                "is on"
            )

    def __bool__(self) -> bool:
        """True when any knob departs from the degenerate default."""
        return self != type(self)()

    def to_dict(self) -> dict[str, Any]:
        return _scalars_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TelemetrySpec":
        _check_fields(cls, data, "telemetry spec")
        return _build(cls, dict(data), "telemetry spec")


# ---------------------------------------------------------------------------
# Sweep grid.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    """One grid axis: a dotted spec field path and its values.

    ``field`` addresses a scalar field of the spec tree —
    ``"workload.rate_rps"``, ``"platform.controller"``,
    ``"scheduler.policy"``, ``"platform.n_wavelengths"``, ... — and the
    cross-product of all axes (first axis outermost) defines the grid.
    """

    field: str
    values: tuple[Any, ...]

    _path: ClassVar[str] = "sweep.axes[]"

    def __post_init__(self) -> None:
        if not self.field:
            raise SpecError("sweep axis needs a field path")
        if not self.values:
            raise SpecError(
                f"sweep axis {self.field!r} needs at least one value"
            )

    def to_dict(self) -> dict[str, Any]:
        return {"field": self.field, "values": _jsonify(self.values)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepAxis":
        _check_fields(cls, data, "sweep axis")
        kwargs = dict(data)
        values = kwargs.pop("values", ())
        if not isinstance(values, (list, tuple)):
            raise SpecError("sweep axis 'values' must be a list")
        kwargs["values"] = tuple(values)
        return _build(cls, kwargs, "sweep axis")


@dataclass(frozen=True)
class SweepSpec:
    """The study's grid: zero or more axes, crossed in order."""

    axes: tuple[SweepAxis, ...] = ()

    def __post_init__(self) -> None:
        paths = [axis.field for axis in self.axes]
        if len(set(paths)) != len(paths):
            raise SpecError(f"duplicate sweep axes: {paths}")

    @property
    def n_points(self) -> int:
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def to_dict(self) -> dict[str, Any]:
        return {"axes": [axis.to_dict() for axis in self.axes]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        _check_fields(cls, data, "sweep spec")
        axes = data.get("axes", [])
        if not isinstance(axes, (list, tuple)):
            raise SpecError("sweep spec 'axes' must be a list")
        return cls(axes=tuple(SweepAxis.from_dict(axis) for axis in axes))


# ---------------------------------------------------------------------------
# The top-level study.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudySpec:
    """A complete declarative study: the unit `run_study` executes.

    ``kind`` selects the lowering: ``"serving"`` simulates a full
    request-serving window per grid point; ``"inference"`` runs one
    isolated (batched) inference per model per grid point.
    ``residency_capacity_bits`` bounds the (per-node) weight store of
    serving runs (LRU eviction between tenants).  ``cluster`` scales a
    serving study out to a routed fleet of platform replicas
    (``None`` = one node).  ``resilience`` adds the request lifecycle
    (timeouts / retries / hedging) and the modeled router signal path;
    its default instance is degenerate (submit once, omniscient
    router).  ``fidelity`` selects the simulation engine
    per cell (full DES, fluid fast path, or fluid with auto-fallback
    when the calibration error exceeds budget); its default instance
    is likewise degenerate.  ``telemetry`` arms span tracing and
    sampled gauge metrics over each serving cell (degenerate by
    default: nothing recorded).
    """

    name: str
    workload: WorkloadSpec
    kind: str = "serving"
    platform: PlatformSpec = PlatformSpec()
    scheduler: SchedulerSpec = SchedulerSpec()
    sweep: SweepSpec = SweepSpec()
    residency_capacity_bits: float | None = None
    cluster: ClusterSpec | None = None
    resilience: ResilienceSpec = ResilienceSpec()
    fidelity: FidelitySpec = FidelitySpec()
    telemetry: TelemetrySpec = TelemetrySpec()

    _path: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("study needs a name")
        if self.kind not in STUDY_KINDS:
            raise SpecError(
                f"unknown study kind {self.kind!r}; "
                f"choose from {', '.join(STUDY_KINDS)}"
            )
        if self.kind == "serving":
            total = self.workload.fraction_total
            if abs(total - 1.0) > 1e-9:
                raise SpecError(
                    f"serving traffic fractions must sum to 1, got {total}"
                )
            if self.workload.batch_size != 1:
                raise SpecError(
                    "workload.batch_size applies to inference studies; "
                    "serving batches via scheduler.max_batch"
                )
        else:
            self._reject_serving_only_fields()
            if self.cluster is not None:
                raise SpecError(
                    "the cluster section applies only to serving studies"
                )
            if self.resilience:
                raise SpecError(
                    "the resilience section applies only to serving studies"
                )
        replicas = 0 if self.cluster is None else self.cluster.replicas
        if self.resilience.hedge_delay_s is not None and replicas < 2:
            raise SpecError(
                "resilience.hedge_delay_s duplicates a request to a "
                "second node; it needs a cluster section with "
                "replicas >= 2"
            )
        if self.resilience.health_checked and replicas < 2:
            raise SpecError(
                "resilience signal staleness / probing models the "
                "router's view of the fleet; it needs a cluster "
                "section with replicas >= 2"
            )
        if self.fidelity:
            if self.kind != "serving":
                raise SpecError(
                    "the fidelity section applies only to serving studies"
                )
            if self.workload.arrival == "closed":
                raise SpecError(
                    "the fluid fidelity path models open-loop arrivals; "
                    "closed-loop workloads run full DES (fidelity: des)"
                )
            if self.resilience:
                raise SpecError(
                    "the fluid fidelity path does not model the "
                    "resilience lifecycle; drop the resilience section "
                    "or run full DES (fidelity: des)"
                )
            if self.scheduler.shed_expired:
                raise SpecError(
                    "the fluid fidelity path does not model load "
                    "shedding; disable scheduler.shed_expired or run "
                    "full DES (fidelity: des)"
                )
        if self.telemetry:
            if self.kind != "serving":
                raise SpecError(
                    "the telemetry section applies only to serving studies"
                )
            if self.fidelity:
                raise SpecError(
                    "the fluid fidelity path does not simulate the "
                    "per-request lifecycle telemetry observes; drop the "
                    "telemetry section or run full DES (fidelity: des)"
                )
        if self.kind == "serving" and self.workload.has_sequences:
            if self.resilience:
                raise SpecError(
                    "the resilience lifecycle does not retry or hedge "
                    "autoregressive sequences; drop the resilience "
                    "section or the sequence lengths"
                )
            if self.cluster is not None:
                raise SpecError(
                    "the cluster layer does not route autoregressive "
                    "sequences (KV-cache state pins a sequence to one "
                    "node); drop the cluster section or the sequence "
                    "lengths"
                )
        if (
            self.kind == "serving"
            and self.scheduler.policy == "continuous"
            and not self.workload.has_sequences
        ):
            raise SpecError(
                "the continuous policy batches decode steps; it needs "
                "an autoregressive workload (set prompt_tokens/"
                "output_tokens)"
            )
        if (
            self.residency_capacity_bits is not None
            and self.residency_capacity_bits <= 0
        ):
            raise SpecError(
                f"residency capacity must be positive, got "
                f"{self.residency_capacity_bits}"
            )

    def _reject_serving_only_fields(self) -> None:
        """Inference studies: serving-only fields must stay at their
        defaults — accepting them would silently no-op."""
        if self.scheduler != SchedulerSpec():
            raise SpecError(
                "the scheduler section applies only to serving studies"
            )
        if self.residency_capacity_bits is not None:
            raise SpecError(
                "residency_capacity_bits applies only to serving studies"
            )
        defaults = WorkloadSpec.__dataclass_fields__
        for name in ("arrival", "rate_rps", "duration_s", "burstiness",
                     "dwell_s", "think_time_s", "prompt_tokens",
                     "output_tokens", "length_distribution"):
            if getattr(self.workload, name) != defaults[name].default:
                raise SpecError(
                    f"workload.{name} applies only to serving studies"
                )
        for entry in self.workload.models:
            if entry.slo_s is not None or entry.priority != 0:
                raise SpecError(
                    f"SLO/priority on {entry.model!r} apply only to "
                    "serving studies"
                )
            if (
                entry.prompt_tokens is not None
                or entry.output_tokens is not None
                or entry.quota is not None
            ):
                raise SpecError(
                    f"sequence lengths / quota on {entry.model!r} apply "
                    "only to serving studies"
                )

    # -- serialisation -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        record = {"schema": SPEC_SCHEMA_VERSION}
        record.update(_scalars_to_dict(self))
        return record

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        if not isinstance(data, Mapping):
            raise SpecError(
                f"study spec must be a JSON object, got {type(data).__name__}"
            )
        kwargs = dict(data)
        schema = kwargs.pop("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise SpecError(
                f"spec schema {schema!r} is not supported "
                f"(this build reads schema {SPEC_SCHEMA_VERSION})"
            )
        _check_fields(cls, kwargs, "study spec")
        if "workload" not in kwargs:
            raise SpecError("study spec needs a 'workload' section")
        kwargs["workload"] = WorkloadSpec.from_dict(kwargs["workload"])
        if "platform" in kwargs:
            kwargs["platform"] = PlatformSpec.from_dict(kwargs["platform"])
        if "scheduler" in kwargs:
            kwargs["scheduler"] = SchedulerSpec.from_dict(kwargs["scheduler"])
        if "sweep" in kwargs:
            kwargs["sweep"] = SweepSpec.from_dict(kwargs["sweep"])
        if kwargs.get("cluster") is not None:
            kwargs["cluster"] = ClusterSpec.from_dict(kwargs["cluster"])
        if "resilience" in kwargs:
            kwargs["resilience"] = ResilienceSpec.from_dict(
                kwargs["resilience"]
            )
        if "fidelity" in kwargs:
            kwargs["fidelity"] = FidelitySpec.from_dict(kwargs["fidelity"])
        if "telemetry" in kwargs:
            kwargs["telemetry"] = TelemetrySpec.from_dict(
                kwargs["telemetry"]
            )
        return _build(cls, kwargs, "study spec")

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "StudySpec":
        try:
            data = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as error:
            raise SpecError(f"spec is not valid JSON: {error}") from None
        return cls.from_dict(data)

    # -- overrides and expansion ---------------------------------------------------

    _SECTIONS = {"workload", "platform", "scheduler", "cluster",
                 "resilience", "fidelity", "telemetry"}

    def with_override(self, path: str, value: Any) -> "StudySpec":
        """A copy with one scalar field replaced (sweep-axis setter).

        ``path`` is ``"section.field"`` for the workload / platform /
        scheduler / cluster / resilience sections or a bare top-level
        scalar such as ``"residency_capacity_bits"``.  Validation
        re-runs on the copy.
        """
        section_name, dot, field_name = path.partition(".")
        if not dot:
            if section_name not in ("residency_capacity_bits",):
                raise SpecError(
                    f"cannot sweep top-level field {path!r}; sweepable "
                    "sections: workload, platform, scheduler, cluster, "
                    "resilience, fidelity, telemetry"
                )
            _check_types(type(self), {section_name: value})
            return replace(self, **{section_name: value})
        if section_name not in self._SECTIONS:
            raise SpecError(
                f"unknown spec section {section_name!r} in sweep path "
                f"{path!r}; choose from {', '.join(sorted(self._SECTIONS))}"
            )
        section = getattr(self, section_name)
        if section is None:
            raise SpecError(
                f"cannot sweep {path!r}: the spec has no "
                f"{section_name} section (add one with its defaults)"
            )
        known = {field.name for field in fields(section)}
        if field_name not in known:
            raise SpecError(
                f"unknown field {field_name!r} in sweep path {path!r}; "
                f"{section_name} fields: {', '.join(sorted(known))}"
            )
        if field_name == "models":
            raise SpecError(
                "the traffic mix cannot be a sweep axis; "
                "write one study per mix"
            )
        if field_name == "faults" and isinstance(value, Mapping):
            # Sweepable fault scenarios: axis values are whole fault
            # sections ({"events": [...]}; {} sweeps in the fault-free
            # baseline).
            value = FaultSpec.from_dict(value)
        if field_name == "weights" and isinstance(value, (list, tuple)):
            value = tuple(value)
        _check_types(type(section), {field_name: value})
        return replace(
            self, **{section_name: replace(section, **{field_name: value})}
        )

    def expand(self) -> list["StudySpec"]:
        """The grid: fully-resolved point specs, first axis outermost.

        Every returned spec has an empty sweep, so its digest identifies
        exactly one simulation point.
        """
        base = replace(self, sweep=SweepSpec())
        points = [base]
        for axis in self.sweep.axes:
            points = [
                point.with_override(axis.field, value)
                for point in points
                for value in axis.values
            ]
        return points

    @property
    def digest(self) -> str:
        return spec_digest(self)


def spec_digest(spec: StudySpec) -> str:
    """Stable content hash of a spec (schema version included).

    Two specs with equal contents share a digest across processes and
    machines; any field change — however deep — moves it.  Dry runs
    print it per grid point.
    """
    payload = json.dumps(spec.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

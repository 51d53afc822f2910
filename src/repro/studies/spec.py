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

One schema serves every spec class.  A field's annotation is its type
and its metadata holds its range (one of :data:`BOUNDS`) or its
choices.  One checker enforces types, finiteness, ranges and choices
whenever a spec is built — from JSON, by a sweep override or directly
in Python — and every error names the field's dotted path.  Settings
that cannot act, or layers that do not compose yet, are the rows of
one rule table, :data:`RULES`.  One ``from_dict`` builds any spec class
from its annotations, and one ``to_dict`` walks its fields back.

To add a field: annotate it; give it the default that leaves every
existing study as it was; declare its bound with :func:`_bounded` (or
its choices with :func:`_choice`) when it is numeric (or an enum); and
add a :data:`RULES` row when some other setting leaves it inert.
Serialization picks it up from the annotation.  Every ``to_dict``
carries the new key, so bump :data:`SPEC_SCHEMA_VERSION`.

The spec layer deliberately knows nothing about simulators: lowering a
spec onto the cell machinery lives in :mod:`repro.studies.compile`, and
name resolution (platforms, models, controllers, arrivals) happens
against :mod:`repro.studies.registry` at compile time.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache
from types import NoneType, UnionType
from typing import (
    Any,
    Callable,
    ClassVar,
    Mapping,
    NamedTuple,
    get_args,
    get_origin,
    get_type_hints,
)

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
``des`` default runs full DES.

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
default records nothing."""

SCHEDULER_POLICIES = ("fifo", "max-batch", "edf", "priority", "continuous")
"""The dispatch policies the serving scheduler implements
(:mod:`repro.serving.scheduler`)."""

LENGTH_DISTRIBUTIONS = ("fixed", "geometric")
"""Sequence-length samplers: every request uses the configured token
counts exactly (``fixed``) or draws each from a seeded geometric
distribution with that mean (``geometric``, minimum one token)."""

STUDY_KINDS = ("inference", "serving")
"""Study kinds the compiler can lower."""

SWEEP_SECTIONS = ("workload", "platform", "scheduler", "cluster",
                  "resilience", "fidelity", "telemetry")
"""Sections whose fields a sweep axis may address."""


# ---------------------------------------------------------------------------
# The schema: field metadata, one checker, one (de)serializer.
# ---------------------------------------------------------------------------


BOUNDS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "> 0": ("positive", lambda value: value > 0),
    ">= 0": (">= 0", lambda value: value >= 0),
    ">= 1": (">= 1", lambda value: value >= 1),
    "(0, 1]": ("in (0, 1]", lambda value: 0 < value <= 1),
    "[0, 1]": ("in [0, 1]", lambda value: 0 <= value <= 1),
}
"""The ranges a numeric field may declare: ``bound -> (how an error
words it, the test)``.  A tuple field applies its bound per element."""


def _bounded(default: Any, bound: str, noun: str) -> Any:
    """A numeric field within ``bound`` (a :data:`BOUNDS` key);
    ``noun`` names the quantity in errors ("arrival rate").  Pass
    ``MISSING`` as the default for a required field."""
    return field(default=default, metadata={"bound": bound, "noun": noun})


def _choice(default: str, choices: tuple[str, ...], noun: str) -> Any:
    """A string field that takes one of ``choices``."""
    return field(default=default,
                 metadata={"choices": choices, "noun": noun})


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number"}


class _Field(NamedTuple):
    """One spec field as the checker and the (de)serializer see it."""

    name: str
    path: str
    hint: Any
    """The resolved annotation, which :func:`_coerce` follows."""
    scalar: type | None
    """``bool``/``int``/``float`` of a scalar field, or of every element
    of a tuple field (``many``); ``None`` for any other field."""
    many: bool
    optional: bool
    required: bool
    default: Any
    bound: str | None
    choices: tuple[str, ...] | None
    noun: str


@cache
def _schema(cls: type) -> dict[str, _Field]:
    """``name -> _Field`` for every field of a spec class, read from its
    annotations and metadata on first use (``int | None`` is an
    optional int, ``tuple[float, ...]`` a tuple of floats)."""
    hints = get_type_hints(cls)
    schema = {}
    for spec_field in fields(cls):
        hint = hints[spec_field.name]
        options = (set(get_args(hint)) if get_origin(hint) is UnionType
                   else {hint})
        (base,) = options - {NoneType}
        args = get_args(base) if get_origin(base) is tuple else ()
        many = args[1:] == (Ellipsis,) and args[0] in _TYPE_NAMES
        metadata = spec_field.metadata
        schema[spec_field.name] = _Field(
            name=spec_field.name,
            path=".".join(filter(None, (cls._path, spec_field.name))),
            hint=hint,
            scalar=args[0] if many else base if base in _TYPE_NAMES else None,
            many=many,
            optional=NoneType in options,
            required=spec_field.default is MISSING
            and spec_field.default_factory is MISSING,
            default=spec_field.default,
            bound=metadata.get("bound"),
            choices=metadata.get("choices"),
            noun=metadata.get("noun", spec_field.name),
        )
    return schema


def _check_value(spec_field: _Field, value: Any) -> None:
    """One field's type (scalars only: names resolve at compile time),
    finiteness, range and choice."""
    if value is None and spec_field.optional:
        return
    if spec_field.choices is not None and value not in spec_field.choices:
        raise SpecError(
            f"{spec_field.noun} must be one of "
            f"{', '.join(spec_field.choices)}, got {value!r} "
            f"({spec_field.path})"
        )
    kind = spec_field.scalar
    if kind is None:
        return
    for item in value if spec_field.many else (value,):
        # An int field rejects floats, a float field takes integers, and
        # neither takes a boolean.
        if kind is bool:
            valid = isinstance(item, bool)
        else:
            number = (int, float) if kind is float else int
            valid = isinstance(item, number) and not isinstance(item, bool)
        if not valid:
            raise SpecError(
                f"{spec_field.path}{'[]' if spec_field.many else ''} "
                f"must be {_TYPE_NAMES[kind]}"
                f"{' or null' if spec_field.optional else ''}, got {item!r}"
            )
        if isinstance(item, float) and not math.isfinite(item):
            expected = "finite"
        elif spec_field.bound and not BOUNDS[spec_field.bound][1](item):
            expected = BOUNDS[spec_field.bound][0]
        else:
            continue
        raise SpecError(
            f"{spec_field.noun} must be {expected}, got {item!r} "
            f"({spec_field.path})"
        )


def _coerce(hint: Any, value: Any, path: str) -> Any:
    """A JSON (or sweep) value as its annotated type: sections through
    their ``from_dict``, lists as tuples, element by element.  Scalars
    pass unchanged, for the checker to judge.

    ``path`` is where the value sits (``cluster.faults``, or
    ``workload.models[1]`` for a list entry).  A section's errors name
    its class's static path (``faults.events[].at_s``), so they are
    re-rooted here to name the section and index they came from."""
    if isinstance(hint, type) and issubclass(hint, _Spec):
        if isinstance(value, hint):
            return value
        try:
            return hint.from_dict(value)
        except SpecError as error:
            raise _rerooted(error, hint._path, path) from None
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        (inner,) = set(args) - {NoneType}
        return None if value is None else _coerce(inner, value, path)
    if origin is not tuple:
        return value
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"{path} must be a list, got {value!r}")
    if args[1:] != (Ellipsis,):
        return tuple(value)
    return tuple(
        _coerce(args[0], item, f"{path}[{index}]")
        for index, item in enumerate(value)
    )


def _rerooted(error: SpecError, static: str, path: str) -> SpecError:
    """``error`` with every path that starts at ``static`` (a class's
    ``_path``) moved to start at ``path``: ``faults.events[].at_s``
    becomes ``faults.events[1].at_s`` for the second event, and
    ``faults.events[1].at_s`` becomes ``cluster.faults.events[1].at_s``
    one level up."""
    pattern = rf"(?<![\w.\[]){re.escape(static)}(?![\w\[])"
    return SpecError(re.sub(pattern, lambda _: path, str(error)))


def _jsonify(value: Any) -> Any:
    """Spec values to JSON-native types (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, _Spec):
        return value.to_dict()
    return value


def _changed(spec: Any, *names: str) -> bool:
    """Whether any named field (every field when none is named) of a
    spec departs from its declared default."""
    schema = _schema(type(spec))
    return any(
        getattr(spec, name) != schema[name].default
        for name in names or schema
    )


def _label(cls: type) -> str:
    """A spec class as errors name it: ``ResilienceSpec`` ->
    ``resilience spec``."""
    return re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()


def _reject_constant(literal: str) -> None:
    """``json.loads`` hook for the non-standard ``NaN``/``Infinity``
    literals, so the error names the literal."""
    raise SpecError(
        f"spec JSON contains {literal}; every number must be finite"
    )


class _Spec:
    """What every spec class shares: one checker on construction, one
    ``from_dict`` and one ``to_dict``, all driven by the annotations.

    ``_path`` is the dotted path of the class's fields in a study
    (``"workload.models[]"``; ``""`` for the study itself), which every
    error names.  A section built by ``from_dict`` names where it sits
    instead (``cluster.faults.events[1]``; see :func:`_coerce`).
    """

    _path: ClassVar[str] = ""

    def __post_init__(self) -> None:
        for spec_field in _schema(type(self)).values():
            _check_value(spec_field, getattr(self, spec_field.name))
        self._check()
        for rule in _rules(type(self)):
            rule.check(self)

    def _check(self) -> None:
        """Structural checks no field metadata states (duplicates,
        ordering, counts); run after the field checks, before the
        class's :data:`RULES`."""

    def to_dict(self) -> dict[str, Any]:
        return {
            name: _jsonify(getattr(self, name)) for name in _schema(type(self))
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Build the class from a JSON object, rejecting unknown fields
        (typos never silently no-op)."""
        if not isinstance(data, Mapping):
            raise SpecError(
                f"{_label(cls)} must be a JSON object, got "
                f"{type(data).__name__}"
            )
        schema = _schema(cls)
        unknown = sorted(set(data) - set(schema))
        if unknown:
            raise SpecError(
                f"unknown field(s) {', '.join(map(repr, unknown))} in "
                f"{_label(cls)}; known fields: {', '.join(sorted(schema))}"
            )
        missing = [
            spec_field.path for name, spec_field in schema.items()
            if spec_field.required and name not in data
        ]
        if missing:
            raise SpecError(
                f"{_label(cls)} needs field(s) {', '.join(missing)}"
            )
        return cls(**{
            name: _coerce(schema[name].hint, value, schema[name].path)
            for name, value in data.items()
        })


# ---------------------------------------------------------------------------
# Workload: the traffic mix and its arrival process.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelTraffic(_Spec):
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
    fraction: float = _bounded(1.0, "(0, 1]", "traffic fraction")
    slo_s: float | None = _bounded(None, "> 0", "SLO")
    priority: int = 0
    prompt_tokens: int | None = _bounded(None, ">= 0", "sequence length")
    output_tokens: int | None = _bounded(None, ">= 0", "sequence length")
    quota: int | None = _bounded(None, ">= 1", "admission quota")

    _path: ClassVar[str] = "workload.models[]"

    def _check(self) -> None:
        if not self.model:
            raise SpecError("model name must be non-empty "
                            "(workload.models[].model)")


@dataclass(frozen=True)
class WorkloadSpec(_Spec):
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
    rate_rps: float = _bounded(100e3, "> 0", "arrival rate")
    duration_s: float = _bounded(2e-3, "> 0", "duration")
    seed: int = 7
    burstiness: float = _bounded(4.0, ">= 1", "burstiness")
    dwell_s: float = _bounded(20e-6, "> 0", "dwell time")
    think_time_s: float = _bounded(10e-6, ">= 0", "think time")
    batch_size: int = _bounded(1, ">= 1", "batch size")
    prompt_tokens: int = _bounded(0, ">= 0", "sequence length")
    output_tokens: int = _bounded(0, ">= 0", "sequence length")
    length_distribution: str = _choice("fixed", LENGTH_DISTRIBUTIONS,
                                       "length distribution")

    _path: ClassVar[str] = "workload"

    def _check(self) -> None:
        if not self.models:
            raise SpecError("workload needs at least one model "
                            "(workload.models)")
        names = [entry.model for entry in self.models]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate models in workload: {names}")
        for entry in self.models:
            prompt, output = self.resolved_lengths(entry)
            if bool(prompt) != bool(output):
                raise SpecError(
                    f"{entry.model!r} resolves to prompt_tokens={prompt}, "
                    f"output_tokens={output}; a sequence tenant needs "
                    "both positive (a single-step tenant, both zero)"
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


# ---------------------------------------------------------------------------
# Faults: the hazard timeline a platform runs under.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEventSpec(_Spec):
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
    at_s: float = _bounded(MISSING, ">= 0", "fault event time")
    duration_s: float | None = _bounded(None, "> 0",
                                        "fault event duration")
    memory_gateways: int = _bounded(0, ">= 0", "memory gateway count")
    chiplet_gateways: tuple[tuple[str, int, int], ...] = ()
    temperature_rise_k: float = _bounded(0.0, ">= 0", "temperature rise")
    power_fraction: float = _bounded(1.0, "(0, 1]", "power fraction")
    seed: int = 0
    node: int | None = _bounded(None, ">= 0", "fault event node index")
    nodes: tuple[int, ...] = _bounded((), ">= 0", "fault event node index")
    mac_fraction: float = _bounded(1.0, "(0, 1]", "MAC fraction")

    _path: ClassVar[str] = "faults.events[]"

    def _check(self) -> None:
        if not self.kind:
            raise SpecError("fault event needs a kind "
                            "(faults.events[].kind)")
        if len(set(self.nodes)) != len(self.nodes):
            raise SpecError(
                f"duplicate indices in fault event 'nodes': "
                f"{list(self.nodes)}"
            )
        for entry in self.chiplet_gateways:
            if len(entry) != 3:
                raise SpecError(
                    "chiplet_gateways entries are "
                    "[chiplet_id, write, read] triples, got "
                    f"{list(entry)!r}"
                )


@dataclass(frozen=True)
class FaultSpec(_Spec):
    """The platform's hazard timeline: zero or more chronological events.

    The empty timeline (the default) is the fault-free platform; a
    timeline whose every event fires at ``t=0`` is the static fault
    plan of the one-shot studies.
    """

    events: tuple[FaultEventSpec, ...] = ()

    _path: ClassVar[str] = "faults"

    def _check(self) -> None:
        for earlier, event in zip(self.events, self.events[1:]):
            if event.at_s < earlier.at_s:
                raise SpecError(
                    "fault events must be listed chronologically: "
                    f"{event.kind!r} at t={event.at_s}s follows "
                    f"t={earlier.at_s}s"
                )

    def __bool__(self) -> bool:
        return bool(self.events)


# ---------------------------------------------------------------------------
# Platform and scheduler.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlatformSpec(_Spec):
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
    n_wavelengths: int | None = _bounded(None, ">= 1", "wavelength count")
    gateways_per_chiplet: int | None = _bounded(None, ">= 1",
                                                "gateway count")
    controller_epoch_s: float | None = _bounded(None, "> 0",
                                                "controller epoch")
    faults: FaultSpec = field(default_factory=FaultSpec)

    _path: ClassVar[str] = "platform"


@dataclass(frozen=True)
class SchedulerSpec(_Spec):
    """How requests dispatch: policy, batching, admission, shedding.

    The serving scheduler (:class:`~repro.serving.scheduler.RequestScheduler`)
    reads this section as it is.  ``policy`` is one of
    :data:`SCHEDULER_POLICIES`; ``max_batch`` caps a batch (``max-batch``)
    or the decode width (``continuous``), ``batch_timeout_s`` bounds how
    long a ``max-batch`` batch gathers, ``max_inflight`` caps concurrent
    executions and ``shed_expired`` drops requests whose deadline passed
    before dispatch.

    ``starvation_age_s`` arms the priority policy's starvation guard:
    a queued request older than this is promoted ahead of higher
    priorities (priority policy only — the guard would be inert
    elsewhere).
    """

    policy: str = _choice("fifo", SCHEDULER_POLICIES, "batch policy")
    max_batch: int = _bounded(1, ">= 1", "max batch")
    batch_timeout_s: float = _bounded(20e-6, ">= 0", "batch timeout")
    max_inflight: int = _bounded(4, ">= 1", "max inflight")
    shed_expired: bool = False
    starvation_age_s: float | None = _bounded(None, "> 0", "starvation age")

    _path: ClassVar[str] = "scheduler"

    @property
    def label(self) -> str:
        """The exported ``policy`` column: ``fifo``, ``max-batch(8)+shed``."""
        base = (
            f"{self.policy}({self.max_batch})"
            if self.policy in ("max-batch", "continuous")
            else self.policy
        )
        return base + "+shed" if self.shed_expired else base


# ---------------------------------------------------------------------------
# Cluster: a fleet of platform replicas behind a router.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeOverrideSpec(_Spec):
    """Heterogeneous fleet: config overrides for one node.

    ``node`` is the replica index; the remaining fields override the
    study-level platform knobs for that node only (``None`` = inherit).
    """

    node: int = _bounded(MISSING, ">= 0", "node override index")
    controller: str | None = None
    n_wavelengths: int | None = _bounded(None, ">= 1", "wavelength count")
    gateways_per_chiplet: int | None = _bounded(None, ">= 1",
                                                "gateway count")

    _path: ClassVar[str] = "cluster.nodes[]"


@dataclass(frozen=True)
class ClusterSpec(_Spec):
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

    replicas: int = _bounded(1, ">= 1", "replica count")
    router: str = "round-robin"
    weights: tuple[float, ...] = _bounded((), "> 0", "node weight")
    reroute_on_fail: bool = True
    nodes: tuple[NodeOverrideSpec, ...] = ()
    faults: FaultSpec = field(default_factory=FaultSpec)

    _path: ClassVar[str] = "cluster"

    def _check(self) -> None:
        if not self.router:
            raise SpecError("cluster needs a router name (cluster.router)")
        if self.weights and len(self.weights) != self.replicas:
            raise SpecError(
                f"cluster.weights needs one weight per replica: got "
                f"{len(self.weights)} weight(s) for {self.replicas} "
                f"replica(s)"
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


# ---------------------------------------------------------------------------
# Resilience: the request lifecycle and the router's signal path.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceSpec(_Spec):
    """How requests survive faults, and what the router actually sees.

    The default instance is the **degenerate** resilience spec: no
    timeouts, no retries, no hedging, and an omniscient zero-staleness
    router — requests are submitted once.  Its lifecycle knobs
    (:attr:`lifecycle_armed`) route the study through the
    request-lifecycle layer (:mod:`repro.serving.lifecycle`), and its
    signal knobs (:attr:`health_checked`) give the cluster router a
    modeled view of its fleet; :data:`RULES` rejects every other knob
    unless one of those two is armed.

    ``timeout_s`` bounds each *attempt*; a timed-out attempt is
    cancelled (if still queued) and retried up to ``max_retries`` times
    with exponential backoff ``retry_backoff_s * 2**(n-1)`` plus a
    deterministic seeded jitter of up to ``retry_jitter`` of the
    backoff.  ``retry_budget`` caps total retries fleet-wide as a
    fraction of logical requests started (a classic retry budget, so
    retry storms cannot amplify an outage; omit it for unlimited
    retries).  ``hedge_delay_s`` arms a hedge timer per request: when
    the primary attempt is still pending after the delay, a duplicate
    is sent to a *different* node and the first completion wins (the
    loser is cancelled).

    ``signal_staleness_s`` makes the router's queue-depth signals
    sampled instead of instantaneous, and ``probe_interval_s`` /
    ``probe_misses`` switch failure detection from omniscient to
    probe-based: ``probe_misses`` consecutive missed probes eject a
    node from the routable view, and the first successful probe after
    repair reinstates it.
    """

    timeout_s: float | None = _bounded(None, "> 0", "request timeout")
    max_retries: int = _bounded(0, ">= 0", "max retries")
    retry_backoff_s: float = _bounded(50e-6, ">= 0", "retry backoff")
    retry_jitter: float = _bounded(0.0, "[0, 1]", "retry jitter")
    retry_budget: float | None = _bounded(None, "> 0", "retry budget")
    hedge_delay_s: float | None = _bounded(None, "> 0", "hedge delay")
    signal_staleness_s: float = _bounded(0.0, ">= 0", "signal staleness")
    probe_interval_s: float | None = _bounded(None, "> 0", "probe interval")
    probe_misses: int = _bounded(3, ">= 1", "probe miss threshold")

    _path: ClassVar[str] = "resilience"

    def __bool__(self) -> bool:
        """True when any knob departs from the degenerate default."""
        return _changed(self)

    @property
    def lifecycle_armed(self) -> bool:
        """Whether requests run a lifecycle (timeout, retries or hedge)."""
        return (
            self.timeout_s is not None
            or self.max_retries > 0
            or self.hedge_delay_s is not None
        )

    @property
    def health_checked(self) -> bool:
        """Whether the router's view is modeled (stale and/or probed)."""
        return self.signal_staleness_s > 0 or self.probe_interval_s is not None

    @property
    def label(self) -> str:
        """The armed knobs, as the dry run prints them: ``lifecycle
        timeout=150us+retries=2, signals probe=25usx3``
        (``passthrough`` when neither part is armed)."""
        parts = []
        if self.lifecycle_armed:
            knobs = []
            if self.timeout_s is not None:
                knobs.append(f"timeout={self.timeout_s * 1e6:.0f}us")
            if self.max_retries > 0:
                knobs.append(f"retries={self.max_retries}")
                if self.retry_budget is not None:
                    knobs.append(f"budget={self.retry_budget:g}")
            if self.hedge_delay_s is not None:
                knobs.append(f"hedge={self.hedge_delay_s * 1e6:.0f}us")
            parts.append("lifecycle " + "+".join(knobs))
        if self.health_checked:
            knobs = []
            if self.signal_staleness_s > 0:
                knobs.append(f"stale={self.signal_staleness_s * 1e6:.0f}us")
            if self.probe_interval_s is not None:
                knobs.append(
                    f"probe={self.probe_interval_s * 1e6:.0f}us"
                    f"x{self.probe_misses}"
                )
            parts.append("signals " + "+".join(knobs))
        return ", ".join(parts) or "passthrough"


# ---------------------------------------------------------------------------
# Fidelity: how faithfully each cell is simulated.
# ---------------------------------------------------------------------------


FIDELITY_MODES = ("des", "fluid", "auto")
"""Fidelity modes: full DES (default), fluid fast path, or fluid with
automatic fallback to DES when the calibration error exceeds budget."""


@dataclass(frozen=True)
class FidelitySpec(_Spec):
    """How faithfully each serving cell is simulated.

    The default instance is the **degenerate** fidelity spec: every
    cell runs the full discrete-event simulation.  A cell carrying an
    armed section runs through the fidelity engine
    (:func:`repro.experiments.fidelity.simulate_fidelity_cell`).

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

    mode: str = _choice("des", FIDELITY_MODES, "fidelity mode")
    error_budget: float = _bounded(0.15, "(0, 1]", "fidelity error budget")
    calibration_s: float | None = _bounded(None, "> 0", "calibration window")

    _path: ClassVar[str] = "fidelity"

    def __bool__(self) -> bool:
        """True when any knob departs from the degenerate default."""
        return _changed(self)


# ---------------------------------------------------------------------------
# Telemetry: what to observe while each cell simulates.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetrySpec(_Spec):
    """What the simulation observes about itself while it runs.

    The default instance is the **degenerate** telemetry spec: nothing
    is recorded.  A cell carrying an armed section records through a
    :class:`~repro.obs.session.TelemetrySession`.

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
    sample_rate: float = _bounded(1.0, "(0, 1]", "telemetry sample rate")
    metrics_interval_s: float | None = _bounded(
        None, "> 0", "telemetry metrics interval"
    )

    _path: ClassVar[str] = "telemetry"

    def __bool__(self) -> bool:
        """True when any knob departs from the degenerate default."""
        return _changed(self)

    def interval_for(self, duration_s: float) -> float:
        """The gauge-sampling interval for a serving window."""
        if self.metrics_interval_s is not None:
            return self.metrics_interval_s
        return max(duration_s / 50.0, 1e-9)

    @property
    def label(self) -> str:
        """``telemetry(trace@0.5,metrics@1e-05s)``: what is recorded."""
        parts = []
        if self.trace:
            parts.append(
                "trace" if self.sample_rate >= 1.0
                else f"trace@{self.sample_rate:g}"
            )
        if self.metrics_interval_s is not None:
            parts.append(f"metrics@{self.metrics_interval_s:g}s")
        elif not parts:
            parts.append("metrics")
        return "telemetry(" + ",".join(parts) + ")"


# ---------------------------------------------------------------------------
# Sweep grid.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis(_Spec):
    """One grid axis: a dotted spec field path and its values.

    ``field`` addresses a field of the spec tree —
    ``"workload.rate_rps"``, ``"platform.controller"``,
    ``"scheduler.policy"``, ``"platform.n_wavelengths"``, ... — and the
    cross-product of all axes (first axis outermost) defines the grid.
    """

    field: str
    values: tuple[Any, ...]

    _path: ClassVar[str] = "sweep.axes[]"

    def _check(self) -> None:
        if not self.field:
            raise SpecError("sweep axis needs a field path "
                            "(sweep.axes[].field)")
        if not self.values:
            raise SpecError(
                f"sweep axis {self.field!r} needs at least one value "
                "(sweep.axes[].values)"
            )


@dataclass(frozen=True)
class SweepSpec(_Spec):
    """The study's grid: zero or more axes, crossed in order."""

    axes: tuple[SweepAxis, ...] = ()

    _path: ClassVar[str] = "sweep"

    def _check(self) -> None:
        paths = [axis.field for axis in self.axes]
        if len(set(paths)) != len(paths):
            raise SpecError(f"duplicate sweep axes: {paths}")

    @property
    def n_points(self) -> int:
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total


# ---------------------------------------------------------------------------
# The top-level study.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudySpec(_Spec):
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
    kind: str = _choice("serving", STUDY_KINDS, "study kind")
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    residency_capacity_bits: float | None = _bounded(None, "> 0",
                                                     "residency capacity")
    cluster: ClusterSpec | None = None
    resilience: ResilienceSpec = field(default_factory=ResilienceSpec)
    fidelity: FidelitySpec = field(default_factory=FidelitySpec)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)

    def _check(self) -> None:
        if not self.name:
            raise SpecError("study needs a name (name)")
        if self.kind == "serving":
            total = self.workload.fraction_total
            if abs(total - 1.0) > 1e-9:
                raise SpecError(
                    f"serving traffic fractions must sum to 1, got {total} "
                    "(workload.models[].fraction)"
                )

    # -- serialisation -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"schema": SPEC_SCHEMA_VERSION, **super().to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        if isinstance(data, Mapping):
            data = dict(data)
            schema = data.pop("schema", SPEC_SCHEMA_VERSION)
            if schema != SPEC_SCHEMA_VERSION:
                raise SpecError(
                    f"spec schema {schema!r} is not supported "
                    f"(this build reads schema {SPEC_SCHEMA_VERSION})"
                )
        return super().from_dict(data)

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

    def with_override(self, path: str, value: Any) -> "StudySpec":
        """A copy with one field replaced (sweep-axis setter).

        ``path`` is ``"section.field"`` for the workload / platform /
        scheduler / cluster / resilience / fidelity / telemetry
        sections, or the bare top-level scalar
        ``"residency_capacity_bits"``.  The value is coerced as JSON
        loading coerces it (a fault section may be an ``{"events":
        [...]}`` object, node overrides a list of objects), and
        validation re-runs on the copy.
        """
        section_name, dot, field_name = path.partition(".")
        if not dot:
            if path != "residency_capacity_bits":
                raise SpecError(
                    f"cannot sweep top-level field {path!r}; sweepable "
                    f"sections: {', '.join(SWEEP_SECTIONS)}"
                )
            return replace(self, residency_capacity_bits=value)
        if section_name not in SWEEP_SECTIONS:
            raise SpecError(
                f"unknown spec section {section_name!r} in sweep path "
                f"{path!r}; choose from {', '.join(sorted(SWEEP_SECTIONS))}"
            )
        section = getattr(self, section_name)
        if section is None:
            raise SpecError(
                f"cannot sweep {path!r}: the spec has no "
                f"{section_name} section (add one with its defaults)"
            )
        schema = _schema(type(section))
        if field_name not in schema:
            raise SpecError(
                f"unknown field {field_name!r} in sweep path {path!r}; "
                f"{section_name} fields: {', '.join(sorted(schema))}"
            )
        if field_name == "models":
            raise SpecError(
                "the traffic mix cannot be a sweep axis; "
                "write one study per mix"
            )
        spec_field = schema[field_name]
        value = _coerce(spec_field.hint, value, spec_field.path)
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


# ---------------------------------------------------------------------------
# The rule table: settings that cannot act, and layers that do not compose.
# ---------------------------------------------------------------------------


MEANINGLESS = "meaningless"
"""A rule's reason: the setting cannot act in that combination (a hedge
needs a second node), so accepting it would move the digest and the
cache key while simulating nothing new."""

UNSUPPORTED = "unsupported"
"""A rule's reason: the layers exist but do not compose yet (fluid ×
closed-loop)."""


class Rule(NamedTuple):
    """One row of :data:`RULES` (or of the compiler's lowering rules): a
    combination the spec layer rejects."""

    name: str
    section: str
    """The ``_path`` of the class whose construction runs the rule
    (``""``: the study, once every section is built)."""
    paths: tuple[str, ...]
    """The dotted field paths the rule concerns; its error names them."""
    reason: str
    """:data:`MEANINGLESS` or :data:`UNSUPPORTED`."""
    violated: Callable[[Any], bool]
    """True for a spec (of class ``section``) the rule rejects."""
    message: str
    """The error, formatted with ``s``, the spec being built."""

    def check(self, spec: Any) -> None:
        """Raise the rule's error, ending with its paths, when ``spec``
        violates it."""
        if self.violated(spec):
            raise SpecError(
                f"{self.message.format(s=spec)} ({', '.join(self.paths)})"
            )


@cache
def _rules(cls: type) -> tuple[Rule, ...]:
    """The rules a spec class runs on construction, in table order."""
    return tuple(rule for rule in RULES if rule.section == cls._path)


RULES: tuple[Rule, ...] = (
    Rule("length-distribution-needs-sequences", "workload",
         ("workload.length_distribution",), MEANINGLESS,
         lambda s: _changed(s, "length_distribution")
         and not s.has_sequences,
         "length_distribution applies only to sequence (autoregressive) "
         "workloads; set prompt_tokens/output_tokens or drop it"),
    Rule("fault-node-or-nodes", "faults.events[]",
         ("faults.events[].node", "faults.events[].nodes"), MEANINGLESS,
         lambda s: s.node is not None and bool(s.nodes),
         "a fault event takes either 'node' (single-node kinds) or "
         "'nodes' (correlated rack kinds), not both"),
    Rule("max-batch-needs-batching-policy", "scheduler",
         ("scheduler.max_batch",), MEANINGLESS,
         lambda s: s.policy not in ("max-batch", "continuous")
         and _changed(s, "max_batch"),
         "max_batch applies only to the max-batch and continuous "
         "policies (got {s.max_batch} with {s.policy!r})"),
    Rule("batch-timeout-needs-max-batch", "scheduler",
         ("scheduler.batch_timeout_s",), MEANINGLESS,
         lambda s: s.policy != "max-batch" and _changed(s, "batch_timeout_s"),
         "batch_timeout_s applies only to the max-batch policy (got "
         "{s.batch_timeout_s} with {s.policy!r}; the continuous policy "
         "joins at decode-step boundaries, not timers)"),
    Rule("starvation-age-needs-priority", "scheduler",
         ("scheduler.starvation_age_s",), MEANINGLESS,
         lambda s: s.policy != "priority" and s.starvation_age_s is not None,
         "starvation_age_s applies only to the priority policy (got it "
         "with {s.policy!r})"),
    *(
        Rule(f"{name}-needs-retries", "resilience", (f"resilience.{name}",),
             MEANINGLESS,
             lambda s, name=name: _changed(s, name)
             and not _changed(s, "max_retries"),
             f"{name} applies only with max_retries >= 1")
        for name in ("retry_backoff_s", "retry_jitter", "retry_budget")
    ),
    Rule("probe-misses-need-probing", "resilience",
         ("resilience.probe_misses",), MEANINGLESS,
         lambda s: s.probe_interval_s is None and _changed(s, "probe_misses"),
         "probe_misses applies only with probe_interval_s set"),
    *(
        Rule(f"{name}-needs-fluid", "fidelity", (f"fidelity.{name}",),
             MEANINGLESS,
             lambda s, name=name: s.mode == "des" and _changed(s, name),
             f"fidelity.{name} applies only to the fluid/auto modes")
        for name in ("error_budget", "calibration_s")
    ),
    Rule("sample-rate-needs-trace", "telemetry", ("telemetry.sample_rate",),
         MEANINGLESS,
         lambda s: not s.trace and _changed(s, "sample_rate"),
         "telemetry.sample_rate applies only when telemetry.trace is on"),
    Rule("batch-size-inference-only", "", ("workload.batch_size",),
         MEANINGLESS,
         lambda s: s.kind == "serving" and _changed(s.workload, "batch_size"),
         "workload.batch_size applies to inference studies; serving "
         "batches via scheduler.max_batch"),
    Rule("scheduler-serving-only", "", ("scheduler",), MEANINGLESS,
         lambda s: s.kind != "serving" and _changed(s.scheduler),
         "the scheduler section applies only to serving studies"),
    Rule("residency-serving-only", "", ("residency_capacity_bits",),
         MEANINGLESS,
         lambda s: s.kind != "serving"
         and _changed(s, "residency_capacity_bits"),
         "residency_capacity_bits applies only to serving studies"),
    *(
        Rule(f"{name}-serving-only", "", (f"workload.{name}",), MEANINGLESS,
             lambda s, name=name: s.kind != "serving"
             and _changed(s.workload, name),
             f"workload.{name} applies only to serving studies")
        for name in ("arrival", "rate_rps", "duration_s", "burstiness",
                     "dwell_s", "think_time_s", "prompt_tokens",
                     "output_tokens", "length_distribution")
    ),
    Rule("slo-priority-serving-only", "",
         ("workload.models[].slo_s", "workload.models[].priority"),
         MEANINGLESS,
         lambda s: s.kind != "serving" and any(
             _changed(entry, "slo_s", "priority")
             for entry in s.workload.models
         ),
         "SLO/priority apply only to serving studies"),
    Rule("tenant-sequences-serving-only", "",
         ("workload.models[].prompt_tokens",
          "workload.models[].output_tokens", "workload.models[].quota"),
         MEANINGLESS,
         lambda s: s.kind != "serving" and any(
             _changed(entry, "prompt_tokens", "output_tokens", "quota")
             for entry in s.workload.models
         ),
         "sequence lengths / quota apply only to serving studies"),
    Rule("cluster-serving-only", "", ("cluster",), MEANINGLESS,
         lambda s: s.kind != "serving" and s.cluster is not None,
         "the cluster section applies only to serving studies"),
    Rule("resilience-serving-only", "", ("resilience",), MEANINGLESS,
         lambda s: s.kind != "serving" and bool(s.resilience),
         "the resilience section applies only to serving studies"),
    Rule("hedge-needs-second-node", "",
         ("resilience.hedge_delay_s", "cluster.replicas"), MEANINGLESS,
         lambda s: s.resilience.hedge_delay_s is not None
         and (s.cluster is None or s.cluster.replicas < 2),
         "resilience.hedge_delay_s duplicates a request to a second node; "
         "it needs a cluster section with replicas >= 2"),
    Rule("health-check-needs-fleet", "",
         ("resilience.signal_staleness_s", "resilience.probe_interval_s",
          "cluster.replicas"), MEANINGLESS,
         lambda s: s.resilience.health_checked
         and (s.cluster is None or s.cluster.replicas < 2),
         "resilience signal staleness / probing models the router's view "
         "of the fleet; it needs a cluster section with replicas >= 2"),
    Rule("fidelity-serving-only", "", ("fidelity",), MEANINGLESS,
         lambda s: s.kind != "serving" and bool(s.fidelity),
         "the fidelity section applies only to serving studies"),
    Rule("fluid-closed-loop", "", ("fidelity.mode", "workload.arrival"),
         UNSUPPORTED,
         lambda s: bool(s.fidelity) and s.workload.arrival == "closed",
         "the fluid fidelity path models open-loop arrivals; closed-loop "
         "workloads run full DES (fidelity: des)"),
    Rule("fluid-resilience", "", ("fidelity.mode", "resilience"),
         UNSUPPORTED,
         lambda s: bool(s.fidelity) and bool(s.resilience),
         "the fluid fidelity path does not model the resilience "
         "lifecycle; drop the resilience section or run full DES "
         "(fidelity: des)"),
    Rule("fluid-shedding", "", ("fidelity.mode", "scheduler.shed_expired"),
         UNSUPPORTED,
         lambda s: bool(s.fidelity) and s.scheduler.shed_expired,
         "the fluid fidelity path does not model load shedding; disable "
         "scheduler.shed_expired or run full DES (fidelity: des)"),
    Rule("telemetry-serving-only", "", ("telemetry",), MEANINGLESS,
         lambda s: s.kind != "serving" and bool(s.telemetry),
         "the telemetry section applies only to serving studies"),
    Rule("telemetry-fluid", "", ("telemetry", "fidelity.mode"),
         UNSUPPORTED,
         lambda s: bool(s.telemetry) and bool(s.fidelity),
         "the fluid fidelity path does not simulate the per-request "
         "lifecycle telemetry observes; drop the telemetry section or "
         "run full DES (fidelity: des)"),
    Rule("sequences-resilience", "", ("resilience", "workload.output_tokens"),
         UNSUPPORTED,
         lambda s: s.kind == "serving" and s.workload.has_sequences
         and bool(s.resilience),
         "the resilience lifecycle does not retry or hedge autoregressive "
         "sequences; drop the resilience section or the sequence lengths"),
    Rule("sequences-cluster", "", ("cluster", "workload.output_tokens"),
         UNSUPPORTED,
         lambda s: s.kind == "serving" and s.workload.has_sequences
         and s.cluster is not None,
         "the cluster layer does not route autoregressive sequences "
         "(KV-cache state pins a sequence to one node); drop the cluster "
         "section or the sequence lengths"),
    Rule("continuous-needs-sequences", "",
         ("scheduler.policy", "workload.output_tokens"), MEANINGLESS,
         lambda s: s.kind == "serving" and s.scheduler.policy == "continuous"
         and not s.workload.has_sequences,
         "the continuous policy batches decode steps; it needs an "
         "autoregressive workload (set prompt_tokens/output_tokens)"),
)
"""Every cross-field rule of the spec layer, in the order each class
checks them.  Section rows run when their section is built; study rows
(section ``""``) when the :class:`StudySpec` is.  Rules that need the
registries (a controller that never acts on its epoch, sequence lengths
on a CNN) are the rows of
:data:`repro.studies.compile.LOWERING_RULES`, run at lowering."""

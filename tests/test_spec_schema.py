"""One spec schema, tested from the schema itself.

The bound and choice cases are generated from the field metadata and
the rule cases from :data:`~repro.studies.spec.RULES`, so a field or a
rule added later is covered without a new test.  The example specs pin
their digests, and sweep values go through the one ``from_dict``.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.errors import SpecError
from repro.studies import spec as spec_module
from repro.studies.compile import LOWERING_RULES, load_spec, lower_study
from repro.studies.spec import (
    MEANINGLESS,
    RULES,
    SPEC_SCHEMA_VERSION,
    UNSUPPORTED,
    ClusterSpec,
    FaultEventSpec,
    FaultSpec,
    FidelitySpec,
    ModelTraffic,
    NodeOverrideSpec,
    ResilienceSpec,
    SchedulerSpec,
    StudySpec,
    SweepAxis,
    TelemetrySpec,
    WorkloadSpec,
    spec_digest,
)

ROOT = Path(__file__).resolve().parent.parent

SPEC_CLASSES = spec_module._Spec.__subclasses__()

REQUIRED = {
    ModelTraffic: {"model": "LeNet5"},
    WorkloadSpec: {"models": (ModelTraffic("LeNet5"),)},
    FaultEventSpec: {"kind": "gateway-fail", "at_s": 0.0},
    NodeOverrideSpec: {"node": 0},
    SweepAxis: {"field": "workload.seed", "values": (1,)},
    StudySpec: {
        "name": "x",
        "workload": WorkloadSpec(models=(ModelTraffic("LeNet5"),)),
    },
}
"""The fields each class needs to be built at all."""

CONTEXT = {
    WorkloadSpec: {"models": (
        ModelTraffic("TransformerTiny", prompt_tokens=4, output_tokens=4),
    )},
    SchedulerSpec: {"policy": "max-batch"},
    ResilienceSpec: {"max_retries": 1, "probe_interval_s": 20e-6},
    FidelitySpec: {"mode": "fluid"},
    TelemetrySpec: {"trace": True},
}
"""Settings under which every field of the class can act, so an
inclusive bound value is accepted rather than rejected by a rule."""

FLOAT_EDGES = {
    "> 0": ([0.0], []),
    ">= 0": ([-5e-324], [0.0]),
    ">= 1": ([math.nextafter(1.0, 0.0)], [1.0]),
    "(0, 1]": ([0.0, math.nextafter(1.0, 2.0)], [1.0]),
    "[0, 1]": ([-5e-324, math.nextafter(1.0, 2.0)], [0.0, 1.0]),
}
"""bound -> (float values just outside it, inclusive values inside)."""

INT_EDGES = {"> 0": ([0], []), ">= 0": ([-1], [0]), ">= 1": ([0], [1])}


def _build(cls, name, value):
    """One spec of ``cls`` with ``name`` set to ``value``."""
    schema = spec_module._schema(cls)
    if schema[name].many:
        value = (value,)
    return cls(**{**REQUIRED.get(cls, {}), **CONTEXT.get(cls, {}),
                  name: value})


def _fields_with(key):
    return [
        pytest.param(cls, spec_field.name, spec_field.metadata[key],
                     id=f"{cls.__name__}.{spec_field.name}")
        for cls in SPEC_CLASSES
        for spec_field in fields(cls)
        if key in spec_field.metadata
    ]


class TestFieldMetadata:
    def test_every_numeric_field_but_ids_is_bounded(self):
        unbounded = {
            f"{cls.__name__}.{name}"
            for cls in SPEC_CLASSES
            for name, spec_field in spec_module._schema(cls).items()
            if spec_field.scalar in (int, float) and not spec_field.bound
        }
        # Priorities rank tenants and seeds name random streams: any
        # integer is meaningful.
        assert unbounded == {"ModelTraffic.priority", "WorkloadSpec.seed",
                             "FaultEventSpec.seed"}

    @pytest.mark.parametrize("cls, name, bound", _fields_with("bound"))
    def test_values_past_each_bound_are_rejected(self, cls, name, bound):
        path = spec_module._schema(cls)[name].path
        scalar = spec_module._schema(cls)[name].scalar
        outside, inside = (INT_EDGES if scalar is int else FLOAT_EDGES)[bound]
        for value in outside + [math.nan, math.inf, -math.inf]:
            with pytest.raises(SpecError) as excinfo:
                _build(cls, name, value)
            assert path in str(excinfo.value), value
        for value in inside:
            assert getattr(_build(cls, name, value), name) in (value, (value,))

    @pytest.mark.parametrize("cls, name, choices", _fields_with("choices"))
    def test_choice_fields_reject_unknown_values(self, cls, name, choices):
        path = spec_module._schema(cls)[name].path
        with pytest.raises(SpecError, match=re.escape(f"({path})")):
            _build(cls, name, "bogus")
        for choice in choices:
            assert getattr(_build(cls, name, choice), name) == choice

    def test_non_finite_values_are_rejected_on_every_path(self):
        with pytest.raises(SpecError, match=re.escape("workload.duration_s")):
            WorkloadSpec(models=(ModelTraffic("LeNet5"),),
                         duration_s=math.nan)
        with pytest.raises(SpecError, match=re.escape("faults.events[].at_s")):
            FaultEventSpec(kind="gateway-fail", at_s=math.nan)
        spec = StudySpec(**REQUIRED[StudySpec])
        with pytest.raises(SpecError, match=re.escape("workload.rate_rps")):
            spec.with_override("workload.rate_rps", math.nan)

    def test_direct_construction_checks_scalar_types(self):
        with pytest.raises(SpecError, match=re.escape("workload.seed must")):
            WorkloadSpec(models=(ModelTraffic("LeNet5"),), seed=1.5)


# ---------------------------------------------------------------------------
# The rule table: one minimal counterexample per rule.
# ---------------------------------------------------------------------------


BASE = {"name": "base", "workload": {"models": [{"model": "LeNet5"}]}}
"""A minimal valid serving study; each counterexample patches it."""

SEQUENCES = {"models": [{"model": "TransformerTiny"}],
             "prompt_tokens": 4, "output_tokens": 4}

INFERENCE_WORKLOAD = {
    "arrival": "mmpp", "rate_rps": 5e4, "duration_s": 1e-3,
    "burstiness": 2.0, "dwell_s": 10e-6, "think_time_s": 0.0,
}

COUNTEREXAMPLES = {
    "length-distribution-needs-sequences": {
        "workload": {"length_distribution": "geometric"}},
    "fault-node-or-nodes": {"platform": {"faults": {"events": [
        {"kind": "node-fail", "at_s": 0.0, "node": 0, "nodes": [1]}]}}},
    "max-batch-needs-batching-policy": {"scheduler": {"max_batch": 4}},
    "batch-timeout-needs-max-batch": {
        "scheduler": {"batch_timeout_s": 5e-5}},
    "starvation-age-needs-priority": {
        "scheduler": {"starvation_age_s": 1e-3}},
    "retry_backoff_s-needs-retries": {
        "resilience": {"retry_backoff_s": 10e-6}},
    "retry_jitter-needs-retries": {"resilience": {"retry_jitter": 0.5}},
    "retry_budget-needs-retries": {"resilience": {"retry_budget": 0.1}},
    "probe-misses-need-probing": {"resilience": {"probe_misses": 5}},
    "error_budget-needs-fluid": {"fidelity": {"error_budget": 0.5}},
    "calibration_s-needs-fluid": {"fidelity": {"calibration_s": 1e-3}},
    "sample-rate-needs-trace": {"telemetry": {"sample_rate": 0.5}},
    "batch-size-inference-only": {"workload": {"batch_size": 4}},
    "scheduler-serving-only": {
        "kind": "inference", "scheduler": {"policy": "edf"}},
    "residency-serving-only": {
        "kind": "inference", "residency_capacity_bits": 1e9},
    **{
        f"{name}-serving-only": {
            "kind": "inference", "workload": {name: value}}
        for name, value in INFERENCE_WORKLOAD.items()
    },
    # Tenant-level lengths keep the workload-level field under test the
    # only one off its default.
    "prompt_tokens-serving-only": {"kind": "inference", "workload": {
        "prompt_tokens": 4,
        "models": [{"model": "TransformerTiny", "output_tokens": 4}]}},
    "output_tokens-serving-only": {"kind": "inference", "workload": {
        "output_tokens": 4,
        "models": [{"model": "TransformerTiny", "prompt_tokens": 4}]}},
    "length_distribution-serving-only": {"kind": "inference", "workload": {
        "length_distribution": "geometric",
        "models": [{"model": "TransformerTiny", "prompt_tokens": 4,
                    "output_tokens": 4}]}},
    "slo-priority-serving-only": {"kind": "inference", "workload": {
        "models": [{"model": "LeNet5", "slo_s": 1e-4}]}},
    "tenant-sequences-serving-only": {"kind": "inference", "workload": {
        "models": [{"model": "LeNet5", "quota": 2}]}},
    "cluster-serving-only": {"kind": "inference", "cluster": {}},
    "resilience-serving-only": {
        "kind": "inference", "resilience": {"timeout_s": 1e-4}},
    "hedge-needs-second-node": {"resilience": {"hedge_delay_s": 50e-6}},
    "health-check-needs-fleet": {
        "resilience": {"probe_interval_s": 20e-6}},
    "fidelity-serving-only": {
        "kind": "inference", "fidelity": {"mode": "fluid"}},
    "fluid-closed-loop": {
        "fidelity": {"mode": "fluid"}, "workload": {"arrival": "closed"}},
    "fluid-resilience": {
        "fidelity": {"mode": "fluid"}, "resilience": {"timeout_s": 1e-4}},
    "fluid-shedding": {
        "fidelity": {"mode": "fluid"}, "scheduler": {"shed_expired": True}},
    "telemetry-serving-only": {
        "kind": "inference", "telemetry": {"trace": True}},
    "telemetry-fluid": {
        "telemetry": {"trace": True}, "fidelity": {"mode": "fluid"}},
    "sequences-resilience": {
        "workload": SEQUENCES, "resilience": {"timeout_s": 1e-3}},
    "sequences-cluster": {"workload": SEQUENCES, "cluster": {"replicas": 2}},
    "continuous-needs-sequences": {"scheduler": {"policy": "continuous"}},
}
"""rule name -> the patch onto :data:`BASE` that breaks that rule only."""

LOCATED = {
    "fault-node-or-nodes":
        "platform.faults.events[0].node, platform.faults.events[0].nodes",
}
"""rule name -> the paths its counterexample's error names, where the
rule checks a list entry: an entry built from JSON names its section
and index instead of the rule's static paths."""


def _merged(base: dict, patch: dict) -> dict:
    """``base`` with ``patch`` merged in (objects recursively)."""
    merged = dict(base)
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            value = _merged(merged[key], value)
        merged[key] = value
    return merged


class TestRuleTable:
    def test_rows_are_named_and_tagged(self):
        names = [rule.name for rule in RULES]
        assert len(set(names)) == len(names)
        assert set(names) == set(COUNTEREXAMPLES)
        sections = {cls._path for cls in SPEC_CLASSES}
        for rule in RULES:
            assert rule.reason in (MEANINGLESS, UNSUPPORTED)
            assert rule.section in sections
            assert rule.paths

    def test_base_is_valid(self):
        StudySpec.from_dict(BASE)

    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
    def test_counterexample_trips_its_rule(self, rule):
        with pytest.raises(SpecError) as excinfo:
            StudySpec.from_dict(_merged(BASE, COUNTEREXAMPLES[rule.name]))
        paths = LOCATED.get(rule.name, ", ".join(rule.paths))
        assert str(excinfo.value).endswith(f"({paths})")


# ---------------------------------------------------------------------------
# The lowering rules: one counterexample per row, rejected at lowering.
# ---------------------------------------------------------------------------


FABRIC_FAULT = {"kind": "gateway-fail", "at_s": 1e-4, "memory_gateways": 1}
COMPUTE_FAULT = {"kind": "chiplet-mac-degrade", "at_s": 1e-4,
                 "mac_fraction": 0.5}

LOWERING_COUNTEREXAMPLES = {
    "epoch-needs-siph": {"platform": {
        "name": "CrossLight", "controller_epoch_s": 2e-6}},
    "epoch-needs-epoch-controller": {"platform": {
        "controller": "static", "controller_epoch_s": 2e-6}},
    "sequences-need-transformer": {"workload": {
        "prompt_tokens": 4, "output_tokens": 4}},
    "transformer-needs-sequences": {"workload": {
        "models": [{"model": "TransformerTiny"}]}},
    "platform-faults-need-siph": {"platform": {
        "name": "CrossLight", "faults": {"events": [FABRIC_FAULT]}}},
    "fluid-fabric-faults": {
        "fidelity": {"mode": "fluid"},
        "platform": {"faults": {"events": [FABRIC_FAULT]}}},
    "fluid-compute-faults-need-chiplets": {
        "fidelity": {"mode": "fluid"},
        "platform": {"name": "CrossLight", "faults": {"events": [
            COMPUTE_FAULT]}}},
}
"""rule name -> the patch onto :data:`BASE` that builds a valid spec
whose lowering breaks that rule only."""


class TestLoweringRules:
    def test_rows_are_named_and_tagged(self):
        names = [rule.name for rule in LOWERING_RULES]
        assert len(set(names)) == len(names)
        assert set(names) == set(LOWERING_COUNTEREXAMPLES)
        assert not set(names) & {rule.name for rule in RULES}
        for rule in LOWERING_RULES:
            assert rule.reason in (MEANINGLESS, UNSUPPORTED)
            assert rule.section == ""
            assert rule.paths

    @pytest.mark.parametrize("rule", LOWERING_RULES,
                             ids=lambda rule: rule.name)
    def test_counterexample_trips_its_rule_at_lowering(self, rule):
        spec = StudySpec.from_dict(
            _merged(BASE, LOWERING_COUNTEREXAMPLES[rule.name])
        )
        with pytest.raises(SpecError) as excinfo:
            lower_study(spec)
        assert str(excinfo.value).endswith(f"({', '.join(rule.paths)})")


# ---------------------------------------------------------------------------
# Example specs: round trips and pinned digests.
# ---------------------------------------------------------------------------


PINNED_SCHEMA = 7
PINNED_DIGESTS = {
    "cluster_spec.json":
        "40fb105bba27f41f675783b0e967972948e8aac72e6a4213eefbe2928729d64e",
    "fault_serving_spec.json":
        "072e0f820326780c073b1f48ea119b6710a7f26b94c55bfc5d24e8cdb91b32e3",
    "fidelity_spec.json":
        "cbba21f52686eb24106891f20e2d48eadce7ebd95380c73e13808fca62bae590",
    "resilience_spec.json":
        "a603062c3a4c3e8cf7743bde7e1d523de8803beb0fc4d82e2258a02913fe57b4",
    "slo_sweep_spec.json":
        "19c6d7026fb9fc1f71b3cd111b4ac16f69b6b3554c6d24258f5af451f979e6b3",
    "study_spec.json":
        "4eb6893368f2c2ba4631c6c6578ba204347f74a3d495c57bd0b5d9bd5b48e24a",
    "telemetry_spec.json":
        "6a423549a9f9dcf8a7f21a6d7cc8492e6f845567b77a520cab19313ac46cf0a4",
    "transformer_fluid_spec.json":
        "7fdaed5e766218d1ff50cf4041cbb998b20c8b3f9cf2ffb6d7c1f78e3b5d6625",
    "transformer_spec.json":
        "77a05999bd7606c0e16f454dd60d5d678b1520773236c6973475a0c79174daaf",
}
"""Digest of every shipped example.  A change that moves one must bump
``SPEC_SCHEMA_VERSION`` and re-pin the table."""


class TestExamples:
    def test_every_example_is_pinned_at_this_schema(self):
        assert SPEC_SCHEMA_VERSION == PINNED_SCHEMA, (
            "the schema version moved: re-pin PINNED_DIGESTS"
        )
        shipped = {path.name for path in (ROOT / "examples").glob("*.json")}
        assert shipped == set(PINNED_DIGESTS)

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_round_trip_keeps_the_digest(self, name):
        spec = load_spec(ROOT / "examples" / name)
        assert StudySpec.from_json(spec.to_json()) == spec
        assert spec_digest(spec) == PINNED_DIGESTS[name]


# ---------------------------------------------------------------------------
# Coercion: sweep values and JSON go through one from_dict.
# ---------------------------------------------------------------------------


def fleet_spec() -> StudySpec:
    return StudySpec.from_dict(_merged(BASE, {"cluster": {"replicas": 2}}))


class TestCoercion:
    def test_node_override_sweep_builds_sections(self):
        point = fleet_spec().with_override(
            "cluster.nodes", [{"node": 0, "controller": "static"}]
        )
        assert point.cluster.nodes == (
            NodeOverrideSpec(node=0, controller="static"),
        )

    def test_fault_and_weight_sweeps_coerce(self):
        spec = fleet_spec()
        point = spec.with_override("cluster.weights", [1.0, 3.0])
        assert point.cluster.weights == (1.0, 3.0)
        event = {"kind": "node-fail", "at_s": 1e-4, "node": 1}
        point = spec.with_override("cluster.faults", {"events": [event]})
        assert point.cluster.faults == FaultSpec(
            events=(FaultEventSpec(**event),)
        )
        assert spec.with_override("platform.faults", {}).platform.faults \
            == FaultSpec()

    def test_bad_weight_names_its_path(self):
        with pytest.raises(SpecError, match=re.escape("cluster.weights")):
            ClusterSpec.from_dict({"replicas": 1, "weights": ["a"]})
        with pytest.raises(SpecError, match=re.escape("cluster.weights")):
            fleet_spec().with_override("cluster.weights", 2.0)

    def test_sections_must_be_objects(self):
        with pytest.raises(SpecError, match="cluster spec must be a JSON"):
            StudySpec.from_dict(_merged(BASE, {"cluster": [2]}))


# ---------------------------------------------------------------------------
# List entries: errors name the section and the index.
# ---------------------------------------------------------------------------


class TestEntryPaths:
    def test_events_and_tenants_name_section_and_index(self):
        cluster = _merged(BASE, {"cluster": {"replicas": 2, "faults": {
            "events": [{"kind": "node-fail", "at_s": 0.0, "node": 0},
                       {"kind": "node-repair", "at_s": -1, "node": 0}],
        }}})
        with pytest.raises(SpecError, match=re.escape(
            "got -1 (cluster.faults.events[1].at_s)"
        )):
            StudySpec.from_dict(cluster)
        tenants = _merged(BASE, {"workload": {"models": [
            {"model": "LeNet5", "fraction": 0.5},
            {"model": "ResNet50", "fraction": -0.5},
        ]}})
        with pytest.raises(SpecError, match=re.escape(
            "got -0.5 (workload.models[1].fraction)"
        )):
            StudySpec.from_dict(tenants)

    def test_every_message_kind_is_located(self):
        platform = _merged(BASE, {"platform": {"faults": {"events": [
            {"kind": "gateway-fail"}]}}})
        with pytest.raises(SpecError, match=re.escape(
            "needs field(s) platform.faults.events[0].at_s"
        )):
            StudySpec.from_dict(platform)
        seed = _merged(BASE, {"platform": {"faults": {"events": [
            {"kind": "gateway-fail", "at_s": 0.0, "seed": 1.5}]}}})
        with pytest.raises(SpecError, match=re.escape(
            "platform.faults.events[0].seed must be an integer"
        )):
            StudySpec.from_dict(seed)
        with pytest.raises(SpecError, match=re.escape(
            "cluster.faults.events must be a list"
        )):
            StudySpec.from_dict(_merged(BASE, {"cluster": {
                "faults": {"events": 3}}}))

    def test_sweep_values_name_their_index(self):
        with pytest.raises(SpecError, match=re.escape(
            "(cluster.nodes[1].node)"
        )):
            fleet_spec().with_override(
                "cluster.nodes", [{"node": 0}, {"node": -1}]
            )

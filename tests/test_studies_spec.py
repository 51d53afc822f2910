"""Declarative spec layer: round trips, validation, digests, registries."""

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, SpecError, UnknownNameError
from repro.studies import (
    ARRIVALS,
    CONTROLLERS,
    MODELS,
    PLATFORMS,
    ModelTraffic,
    PlatformSpec,
    SCHEDULER_POLICIES,
    Registry,
    SchedulerSpec,
    StudySpec,
    SweepAxis,
    SweepSpec,
    WorkloadSpec,
    spec_digest,
)
from repro.studies.compile import lower_study
from repro.studies.builders import (
    multi_tenant_mix_spec,
    run_spec,
    serve_study_spec,
    slo_attainment_sweep_spec,
    wavelength_sweep_spec,
)


def rich_spec() -> StudySpec:
    """A spec exercising every section: mix, SLOs, sweep, residency."""
    return StudySpec(
        name="rich",
        kind="serving",
        workload=WorkloadSpec(
            models=(
                ModelTraffic(model="LeNet5", fraction=0.7, slo_s=1e-4,
                             priority=1),
                ModelTraffic(model="ResNet50", fraction=0.3, slo_s=5e-3),
            ),
            arrival="mmpp",
            rate_rps=5e4,
            duration_s=1e-3,
            seed=11,
            burstiness=6.0,
        ),
        platform=PlatformSpec(name="2.5D-CrossLight-SiPh",
                              controller="prowaves", n_wavelengths=32),
        scheduler=SchedulerSpec(policy="edf", max_inflight=2,
                                shed_expired=True),
        sweep=SweepSpec(axes=(
            SweepAxis(field="scheduler.policy", values=("fifo", "edf")),
            SweepAxis(field="workload.rate_rps", values=(5e4, 1e5)),
        )),
        residency_capacity_bits=1e9,
    )


class TestRoundTrip:
    def test_json_round_trip_is_identity(self):
        spec = rich_spec()
        assert StudySpec.from_json(spec.to_json()) == spec

    def test_dict_round_trip_is_identity(self):
        spec = rich_spec()
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_builders_round_trip(self):
        for spec in (
            run_spec("LeNet5", "CrossLight"),
            wavelength_sweep_spec("LeNet5", (8, 16)),
            serve_study_spec("LeNet5", ("CrossLight",), ("resipi",),
                             SchedulerSpec(), (1e5,)),
            multi_tenant_mix_spec(),
            slo_attainment_sweep_spec(),
        ):
            assert StudySpec.from_json(spec.to_json()) == spec

    def test_dict_is_json_native(self):
        # No tuples or objects survive into the serialised form.
        text = json.dumps(rich_spec().to_dict())
        assert json.loads(text) == rich_spec().to_dict()


class TestValidation:
    def test_unknown_top_level_field_rejected(self):
        data = rich_spec().to_dict()
        data["platfrom"] = {"name": "CrossLight"}
        with pytest.raises(SpecError, match="platfrom"):
            StudySpec.from_dict(data)

    def test_unknown_nested_fields_rejected(self):
        for section, field in (
            ("workload", "rate"),
            ("platform", "wavelengths"),
            ("scheduler", "policy_name"),
        ):
            data = rich_spec().to_dict()
            data[section][field] = 1
            with pytest.raises(SpecError, match=field):
                StudySpec.from_dict(data)

    def test_unknown_model_entry_field_rejected(self):
        data = rich_spec().to_dict()
        data["workload"]["models"][0]["slo"] = 1.0
        with pytest.raises(SpecError, match="slo"):
            StudySpec.from_dict(data)

    def test_unknown_sweep_axis_field_rejected(self):
        data = rich_spec().to_dict()
        data["sweep"]["axes"][0]["vals"] = [1]
        with pytest.raises(SpecError, match="vals"):
            StudySpec.from_dict(data)

    def test_missing_required_sections_rejected(self):
        with pytest.raises(SpecError, match="workload"):
            StudySpec.from_dict({"name": "x"})
        with pytest.raises(SpecError, match="models"):
            StudySpec.from_dict({"name": "x", "workload": {}})

    def test_schema_version_guard(self):
        data = rich_spec().to_dict()
        data["schema"] = 99
        with pytest.raises(SpecError, match="schema"):
            StudySpec.from_dict(data)

    def test_bad_values_rejected(self):
        with pytest.raises(SpecError):
            ModelTraffic(model="LeNet5", fraction=1.5)
        with pytest.raises(SpecError):
            ModelTraffic(model="LeNet5", slo_s=0.0)
        with pytest.raises(SpecError):
            WorkloadSpec(models=())
        with pytest.raises(SpecError):
            WorkloadSpec(models=(ModelTraffic(model="a"),
                                 ModelTraffic(model="a")))
        with pytest.raises(SpecError):
            StudySpec(name="", workload=WorkloadSpec(
                models=(ModelTraffic(model="LeNet5"),)))
        with pytest.raises(SpecError, match="kind"):
            StudySpec(name="x", kind="banana", workload=WorkloadSpec(
                models=(ModelTraffic(model="LeNet5"),)))

    def test_serving_fractions_must_sum_to_one(self):
        workload = WorkloadSpec(models=(
            ModelTraffic(model="LeNet5", fraction=0.5),
            ModelTraffic(model="ResNet50", fraction=0.3),
        ))
        with pytest.raises(SpecError, match="sum"):
            StudySpec(name="x", kind="serving", workload=workload)
        # Inference studies ignore fractions: same mix is fine there.
        StudySpec(name="x", kind="inference", workload=workload)

    def test_kind_inapplicable_fields_rejected(self):
        """Fields the study kind would ignore must not silently no-op."""
        plain = WorkloadSpec(models=(ModelTraffic(model="LeNet5"),))
        with pytest.raises(SpecError, match="serving"):
            StudySpec(name="x", kind="inference", workload=plain,
                      scheduler=SchedulerSpec(policy="edf"))
        with pytest.raises(SpecError, match="serving"):
            StudySpec(name="x", kind="inference", workload=plain,
                      residency_capacity_bits=1e9)
        with pytest.raises(SpecError, match="serving"):
            StudySpec(name="x", kind="inference", workload=WorkloadSpec(
                models=(ModelTraffic(model="LeNet5", slo_s=1e-4),)))
        with pytest.raises(SpecError, match="serving"):
            StudySpec(name="x", kind="inference", workload=WorkloadSpec(
                models=(ModelTraffic(model="LeNet5"),), arrival="mmpp"))
        with pytest.raises(SpecError, match="batch_size"):
            StudySpec(name="x", kind="serving", workload=WorkloadSpec(
                models=(ModelTraffic(model="LeNet5"),), batch_size=4))

    def test_batching_knobs_rejected_off_max_batch(self):
        with pytest.raises(SpecError, match="max_batch"):
            SchedulerSpec(policy="fifo", max_batch=4)
        with pytest.raises(SpecError, match="batch_timeout"):
            SchedulerSpec(policy="edf", batch_timeout_s=5e-5)
        SchedulerSpec(policy="max-batch", max_batch=4,
                      batch_timeout_s=5e-5)  # fine where it applies

    def test_duplicate_sweep_axes_rejected(self):
        axis = SweepAxis(field="workload.rate_rps", values=(1e5,))
        with pytest.raises(SpecError, match="duplicate"):
            SweepSpec(axes=(axis, axis))

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="JSON"):
            StudySpec.from_json("{not json")

    @pytest.mark.parametrize("section, name, literal", [
        ("workload", "rate_rps", "NaN"),
        ("platform", "controller_epoch_s", "NaN"),
        ("workload", "duration_s", "Infinity"),
    ])
    def test_non_finite_json_literals_rejected(self, section, name,
                                               literal):
        data = rich_spec().to_dict()
        data[section][name] = "@"
        text = json.dumps(data)
        StudySpec.from_json(text.replace('"@"', "1e-3"))  # finite: fine
        with pytest.raises(SpecError, match=literal):
            StudySpec.from_json(text.replace('"@"', literal))


FIDELITY_EXAMPLE = (
    Path(__file__).resolve().parent.parent / "examples" / "fidelity_spec.json"
)


class TestScalarTypes:
    """JSON scalars must match their field's annotation, at load time
    and as sweep values (the base point of ``fidelity_spec.json``)."""

    @staticmethod
    def example() -> dict:
        return json.loads(FIDELITY_EXAMPLE.read_text())

    @pytest.mark.parametrize("section, name, value", [
        ("scheduler", "max_inflight", 2.5),
        ("scheduler", "max_inflight", True),
        ("workload", "rate_rps", True),
        ("workload", "duration_s", True),
        ("workload", "seed", 1.5),
        ("workload", "seed", "x"),
        ("scheduler", "shed_expired", 1),
        ("platform", "n_wavelengths", 16.0),
    ])
    def test_wrong_scalar_type_rejected(self, section, name, value):
        path = re.escape(f"{section}.{name}") + " must be"
        data = self.example()
        data.setdefault(section, {})[name] = value
        with pytest.raises(SpecError, match=path):
            StudySpec.from_dict(data)
        base = StudySpec.from_dict(self.example())
        with pytest.raises(SpecError, match=path):
            base.with_override(f"{section}.{name}", value)

    @pytest.mark.parametrize("section, name, value", [
        ("workload", "rate_rps", 100000),
        ("workload", "seed", 3),
        ("scheduler", "shed_expired", False),
        ("platform", "n_wavelengths", None),
    ])
    def test_matching_scalar_type_accepted(self, section, name, value):
        data = self.example()
        data.setdefault(section, {})[name] = value
        loaded = StudySpec.from_dict(data)
        assert getattr(getattr(loaded, section), name) == value
        base = StudySpec.from_dict(self.example())
        assert base.with_override(f"{section}.{name}", value) == replace(
            base, **{section: getattr(loaded, section)}
        )

    def test_nested_entry_names_its_path(self):
        data = self.example()
        data["workload"]["models"][0]["priority"] = 0.5
        path = re.escape("workload.models[0].priority must be")
        with pytest.raises(SpecError, match=path):
            StudySpec.from_dict(data)

    def test_name_fields_keep_typed_lookup_errors(self):
        data = self.example()
        data["platform"]["controller"] = 5
        spec = StudySpec.from_dict(data)
        with pytest.raises(UnknownNameError):
            lower_study(spec)

    def test_policy_is_a_checked_choice(self):
        data = self.example()
        data["scheduler"]["policy"] = 5
        with pytest.raises(SpecError, match=re.escape("(scheduler.policy)")):
            StudySpec.from_dict(data)


class TestOverridesAndExpansion:
    def test_override_nested_field(self):
        spec = rich_spec()
        bumped = spec.with_override("workload.rate_rps", 9e4)
        assert bumped.workload.rate_rps == 9e4
        assert spec.workload.rate_rps == 5e4  # original untouched

    def test_override_unknown_paths_rejected(self):
        spec = rich_spec()
        with pytest.raises(SpecError):
            spec.with_override("nonsense.rate_rps", 1)
        with pytest.raises(SpecError):
            spec.with_override("workload.nonsense", 1)
        with pytest.raises(SpecError):
            spec.with_override("name", "nope")
        with pytest.raises(SpecError):
            spec.with_override("workload.models", ())

    def test_override_revalidates(self):
        with pytest.raises(SpecError):
            rich_spec().with_override("workload.rate_rps", -1.0)

    def test_expand_orders_first_axis_outermost(self):
        points = rich_spec().expand()
        assert len(points) == 4
        combos = [
            (p.scheduler.policy, p.workload.rate_rps) for p in points
        ]
        assert combos == [
            ("fifo", 5e4), ("fifo", 1e5), ("edf", 5e4), ("edf", 1e5),
        ]
        assert all(not p.sweep.axes for p in points)

    def test_n_points(self):
        assert rich_spec().sweep.n_points == 4
        assert SweepSpec().n_points == 1


class TestDigest:
    def test_equal_specs_share_digest(self):
        assert spec_digest(rich_spec()) == spec_digest(rich_spec())

    def test_any_field_change_moves_digest(self):
        base = rich_spec()
        variants = [
            base.with_override("workload.rate_rps", 7e4),
            base.with_override("workload.seed", 12),
            base.with_override("workload.burstiness", 2.0),
            base.with_override("platform.controller", "resipi"),
            base.with_override("platform.n_wavelengths", 64),
            base.with_override("scheduler.policy", "priority"),
            base.with_override("scheduler.shed_expired", False),
            base.with_override("residency_capacity_bits", 2e9),
        ]
        digests = {spec_digest(base)} | {spec_digest(v) for v in variants}
        assert len(digests) == len(variants) + 1

    def test_model_entry_change_moves_digest(self):
        base = rich_spec()
        tweaked = StudySpec.from_dict({
            **base.to_dict(),
            "workload": {
                **base.to_dict()["workload"],
                "models": [
                    {"model": "LeNet5", "fraction": 0.7, "slo_s": 2e-4,
                     "priority": 1},
                    {"model": "ResNet50", "fraction": 0.3, "slo_s": 5e-3,
                     "priority": 0},
                ],
            },
        })
        assert spec_digest(tweaked) != spec_digest(base)

    def test_digest_stable_across_processes(self):
        spec = rich_spec()
        script = (
            "import json, sys\n"
            "from repro.studies import StudySpec, spec_digest\n"
            "spec = StudySpec.from_json(sys.stdin.read())\n"
            "print(spec_digest(spec))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], input=spec.to_json(),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == spec_digest(spec)


class TestRegistries:
    def test_known_names_present(self):
        assert "CrossLight" in PLATFORMS
        assert "2.5D-CrossLight-SiPh" in PLATFORMS
        assert "LeNet5" in MODELS and "ResNet50" in MODELS
        assert set(CONTROLLERS.names()) == {"resipi", "prowaves", "static"}
        assert set(ARRIVALS.names()) == {"poisson", "mmpp", "closed"}
        assert set(SCHEDULER_POLICIES) == {
            "fifo", "max-batch", "edf", "priority", "continuous"
        }
        assert "TransformerTiny" in MODELS and "TransformerBase" in MODELS

    def test_unknown_name_is_typed_with_suggestion(self):
        with pytest.raises(UnknownNameError) as excinfo:
            MODELS.get("LeNet")
        error = excinfo.value
        assert isinstance(error, ConfigurationError)
        assert isinstance(error, KeyError)  # legacy callers keep working
        assert "LeNet5" in error.suggestions
        assert "did you mean" in str(error)
        assert "LeNet5" in str(error)

    def test_unknown_platform_suggests(self):
        with pytest.raises(UnknownNameError, match="did you mean"):
            PLATFORMS.get("2.5D-CrossLight-Siph")

    def test_register_plugin_and_refuse_shadowing(self):
        registry = Registry("demo", {"a": int})
        registry.register("b", float)
        assert registry.get("b") is float
        assert registry.names() == ("a", "b")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("a", str)
        registry.register("a", str, overwrite=True)
        assert registry.get("a") is str
        assert len(registry) == 2
        assert list(registry) == ["a", "b"]

    def test_bound_registry_resolves_on_first_use(self):
        shared = {"a": int}
        calls = []

        def bind():
            calls.append(1)
            return shared

        registry = Registry("demo", bind=bind)
        assert calls == []
        registry.register("b", float)
        assert calls == [1]
        assert shared == {"a": int, "b": float}  # shared, not copied
        assert registry.get("a") is int and len(registry) == 2
        assert calls == [1]
        with pytest.raises(ConfigurationError, match="either"):
            Registry("demo", {"a": int}, bind=bind)

    def test_hazards_registry_carries_node_kinds(self):
        from repro.studies import HAZARDS

        assert {"gateway-fail", "chiplet-mac-degrade", "node-fail",
                "rack-repair"} <= set(HAZARDS.names())

    def test_static_names_match_their_layers(self):
        """Every static name table lists what its layer builds, in its
        layer's order, and each home resolves to the layer's factory."""
        from repro import names
        from repro.cluster.hazards import NODE_HAZARD_FACTORIES
        from repro.cluster.router import ROUTER_FACTORIES
        from repro.dnn import zoo
        from repro.interposer.photonic.controllers import (
            CONTROLLER_FACTORIES,
        )
        from repro.interposer.photonic.faults import HAZARD_FACTORIES
        from repro.studies import HAZARDS, ROUTERS

        assert names.CONTROLLER_NAMES == tuple(CONTROLLER_FACTORIES)
        assert set(names.EPOCH_CONTROLLERS) < set(names.CONTROLLER_NAMES)
        assert names.ROUTER_NAMES == tuple(ROUTER_FACTORIES)
        assert ROUTERS.names() == names.ROUTER_NAMES
        assert ARRIVALS.names() == names.ARRIVAL_NAMES
        assert set(names.COMPUTE_HAZARD_KINDS) < set(HAZARD_FACTORIES)
        assert names.NODE_HAZARD_KINDS == tuple(NODE_HAZARD_FACTORIES)
        factories = {**HAZARD_FACTORIES, **NODE_HAZARD_FACTORIES}
        assert HAZARDS.names() == tuple(factories)
        for kind, factory in factories.items():
            assert HAZARDS.get(kind) is factory
        builders = {**zoo.MODEL_BUILDERS, **zoo.EXTENDED_BUILDERS,
                    **zoo.TRANSFORMER_BUILDERS}
        assert MODELS.names() == tuple(builders) == (
            zoo.TABLE2_MODELS + zoo.EXTENDED_MODELS + zoo.TRANSFORMER_MODELS
        )
        for name, builder in builders.items():
            assert MODELS.get(name) is builder

    def test_check_reads_static_names_without_binding(self):
        calls = []
        registry = Registry("demo", bind=lambda: calls.append(1) or {},
                            names=("a", "b"))
        registry.check("a")
        assert "b" in registry and registry.names() == ("a", "b")
        with pytest.raises(UnknownNameError, match="did you mean 'a'"):
            registry.check("aa")
        assert calls == []
        lazy = Registry("demo", {"dump": "json:dumps"})
        assert lazy.names() == ("dump",)
        assert lazy.get("dump") is json.dumps

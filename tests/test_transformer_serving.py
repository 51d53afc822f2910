"""Transformer serving: layers, decode costing, KV residency, specs.

Covers the autoregressive serving subsystem end to end: attention /
MLP-block layer accounting and the pinned transformer zoo, the
decode-step and width-aware workload derivations, KV-cache admission
edges (refusal, pressure eviction, the never-fits ``AdmissionError``),
decode determinism across serial / parallel / cached execution,
degenerate (single-step) specs lowering to the plain cell, typed
rejection of transformer-incompatible features, and the quota /
starvation-guard satellites.
"""

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.dnn import zoo
from repro.dnn.layers import (
    LayerNormalization,
    MultiHeadAttention,
    TransformerMLP,
)
from repro.dnn.workload import (
    decode_workload,
    extract_workload,
    widened_workload,
)
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ShapeError,
    SpecError,
)
from repro.experiments.export import (
    study_results_to_csv,
    study_results_to_json,
)
from repro.experiments.serving_cell import ServingCell
from repro.mapping.residency import KVCacheResidency, WeightResidency
from repro.sim.core import Environment
from repro.studies.compile import (
    lower_study,
    render_study,
    resolve_config,
    run_study,
)
from repro.studies.spec import (
    ModelTraffic,
    PlatformSpec,
    SchedulerSpec,
    StudySpec,
    SweepAxis,
    SweepSpec,
    WorkloadSpec,
)

TINY = extract_workload(zoo.build("TransformerTiny"))


def sequence_spec(**overrides) -> StudySpec:
    workload_kwargs = dict(
        models=(
            ModelTraffic(model="TransformerTiny", fraction=0.6,
                         prompt_tokens=16, output_tokens=8),
            ModelTraffic(model="LeNet5", fraction=0.4),
        ),
        rate_rps=40e3, duration_s=0.5e-3,
    )
    workload_kwargs.update(overrides.pop("workload", {}))
    kwargs = dict(
        name="seq",
        kind="serving",
        workload=WorkloadSpec(**workload_kwargs),
        scheduler=SchedulerSpec(policy="continuous", max_batch=4),
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


# ---------------------------------------------------------------------------
# Layers and the transformer zoo.
# ---------------------------------------------------------------------------


class TestTransformerLayers:
    def test_attention_accounting(self):
        layer = MultiHeadAttention(num_heads=4)
        shapes = [(64, 128)]
        assert layer.infer_shape(shapes) == (64, 128)
        # Four d x d projections plus their biases.
        assert layer.param_count(shapes) == 4 * 128 * 128 + 4 * 128
        # Projections (4Td^2) plus scores + weighted sum (2T^2 d).
        assert layer.mac_count(shapes) == (
            4 * 64 * 128 * 128 + 2 * 64 * 64 * 128
        )

    def test_attention_rejects_indivisible_heads(self):
        with pytest.raises(ShapeError, match="heads"):
            MultiHeadAttention(num_heads=3).infer_shape([(64, 128)])

    def test_mlp_and_norm_accounting(self):
        shapes = [(64, 128)]
        mlp = TransformerMLP(hidden_units=512)
        assert mlp.param_count(shapes) == (
            128 * 512 + 512 + 512 * 128 + 128
        )
        assert mlp.mac_count(shapes) == 2 * 64 * 128 * 512
        norm = LayerNormalization()
        assert norm.param_count(shapes) == 2 * 128
        assert norm.mac_count(shapes) == 0

    def test_zoo_params_pinned(self):
        for name, expected in zoo.TRANSFORMER_PARAMS.items():
            assert zoo.build(name).total_params == expected

    def test_extraction_marks_kv_and_context(self):
        # Two blocks of d=128: each attention caches K and V rows.
        assert TINY.context_tokens == 64
        assert TINY.kv_bits_per_token == 2 * 2 * 128 * 8
        cnn = extract_workload(zoo.build("LeNet5"))
        assert cnn.kv_bits_per_token == 0
        assert cnn.context_tokens == 0


class TestDecodeWorkload:
    def test_decode_divides_activations_not_weights(self):
        decode = decode_workload(TINY)
        for full, step in zip(TINY.layers, decode.layers):
            assert step.weight_bits == full.weight_bits
            assert step.n_dots == max(1, full.n_dots // 64)
            assert step.input_bits <= full.input_bits

    def test_decode_rejects_non_transformer(self):
        with pytest.raises(ShapeError, match="no attention layers"):
            decode_workload(extract_workload(zoo.build("LeNet5")))

    def test_widened_scales_everything_but_weights(self):
        decode = decode_workload(TINY)
        wide = widened_workload(decode, 4)
        for one, four in zip(decode.layers, wide.layers):
            assert four.n_dots == 4 * one.n_dots
            assert four.macs == 4 * one.macs
            assert four.weight_bits == one.weight_bits


# ---------------------------------------------------------------------------
# KV-cache residency edges.
# ---------------------------------------------------------------------------


class TestKVCacheResidency:
    def test_never_fits_raises_admission_error(self):
        weights = WeightResidency(Environment(), capacity_bits=1000)
        kv = KVCacheResidency(weights)
        with pytest.raises(AdmissionError, match="total residency"):
            kv.admit(1, total_tokens=10, bits_per_token=200)

    def test_refusal_only_against_live_sequences(self):
        weights = WeightResidency(Environment(), capacity_bits=1000)
        kv = KVCacheResidency(weights)
        assert kv.admit(1, total_tokens=8, bits_per_token=100)
        assert not kv.admit(2, total_tokens=8, bits_per_token=100)
        assert kv.refusals == 1
        kv.release(1)
        assert kv.admit(2, total_tokens=8, bits_per_token=100)

    def test_admission_evicts_weights_under_pressure(self):
        weights = WeightResidency(Environment(), capacity_bits=1000)
        weights._bits["LeNet5"] = 600.0
        weights._lru = ["LeNet5"]
        kv = KVCacheResidency(weights)
        assert kv.admit(1, total_tokens=8, bits_per_token=100)
        assert weights.resident_bits == 0
        assert kv.pressure_evictions == 1

    def test_release_wakes_every_waiter(self):
        env = Environment()
        weights = WeightResidency(env, capacity_bits=1000)
        kv = KVCacheResidency(weights)
        kv.admit(1, total_tokens=10, bits_per_token=100)
        first, second = kv.wait_release(), kv.wait_release()
        kv.release(1)
        assert first.triggered and second.triggered

    def test_grow_clamps_to_reservation(self):
        kv = KVCacheResidency(WeightResidency(Environment()))
        kv.admit(1, total_tokens=4, bits_per_token=100)
        kv.grow(1, tokens=100, bits_per_token=100)
        assert kv.written_bits == 400.0

    def test_one_store_per_weight_residency(self):
        weights = WeightResidency(Environment())
        KVCacheResidency(weights)
        with pytest.raises(ConfigurationError, match="already"):
            KVCacheResidency(weights)


# ---------------------------------------------------------------------------
# Determinism: serial == parallel == cold/warm cache.
# ---------------------------------------------------------------------------


class TestDecodeDeterminism:
    def test_serial_parallel_and_cache_agree(self, tmp_path):
        spec = sequence_spec(sweep=SweepSpec(axes=(
            SweepAxis("scheduler.policy", ("continuous", "max-batch")),
        )))
        serial = run_study(spec)
        parallel = run_study(spec, jobs=4)
        cold = run_study(spec, cache_dir=tmp_path)
        warm = run_study(spec, cache_dir=tmp_path)
        assert serial.points == parallel.points
        assert serial.points == cold.points
        assert cold.points == warm.points
        for result in serial.serving_results():
            assert result.tokens_generated > 0
            assert result.tokens_per_s > 0
            assert result.ttft is not None
            assert result.token_latency is not None

    def test_geometric_lengths_are_seeded(self):
        spec = sequence_spec(
            workload={"length_distribution": "geometric"}
        )
        assert run_study(spec).points == run_study(spec).points


# ---------------------------------------------------------------------------
# Cache identity: degenerate specs lower to the plain cell.
# ---------------------------------------------------------------------------


class TestLegacyKeys:
    def test_degenerate_spec_lowers_to_classic_cell(self):
        spec = StudySpec(
            name="cnn", kind="serving",
            workload=WorkloadSpec(
                models=(ModelTraffic(model="LeNet5"),),
                rate_rps=50e3, duration_s=2e-3,
            ),
            scheduler=SchedulerSpec(policy="max-batch", max_batch=4),
        )
        (cell,) = lower_study(spec)[1][0]
        # Every scenario and fleet field stays at its default.
        classic = ServingCell(
            platform="2.5D-CrossLight-SiPh",
            models=(("LeNet5", 1.0, None, 0),),
            controller="resipi",
            scheduler=SchedulerSpec(policy="max-batch", max_batch=4),
            arrival_kind="poisson", rate_rps=50e3, duration_s=2e-3,
            seed=7, config=DEFAULT_PLATFORM,
        )
        assert cell == classic
        assert cell.key() == classic.key()

    def test_degenerate_fidelity_keeps_sequence_keys(self):
        # A `mode: "des"` fidelity block is inert: the sequence cell it
        # lowers to must share the plain spec's cache key.
        from repro.studies.spec import FidelitySpec
        (plain,) = lower_study(sequence_spec())[1][0]
        (degenerate,) = lower_study(
            sequence_spec(fidelity=FidelitySpec())
        )[1][0]
        assert not degenerate.fidelity
        assert degenerate.key() == plain.key()

    def test_sequence_fields_fork_scenario_keys(self):
        base = ServingCell(
            platform="2.5D-CrossLight-SiPh",
            models=(("TransformerTiny", 1.0, None, 0),),
            controller="resipi", scheduler=SchedulerSpec(),
            arrival_kind="poisson", rate_rps=40e3, duration_s=1e-3,
            seed=7, config=DEFAULT_PLATFORM,
        )
        from dataclasses import replace
        with_seq = replace(base, sequences=((16, 8),))
        with_quota = replace(base, quotas=(4,))
        assert len({base.key(), with_seq.key(), with_quota.key()}) == 3


# ---------------------------------------------------------------------------
# Typed rejections.
# ---------------------------------------------------------------------------


class TestSpecRejections:
    def test_fluid_fidelity_accepted_on_sequences(self):
        # PR 9 lifted the sequence rejection: the fluid path now models
        # prefill + decode, so the spec lowers onto a fidelity-armed
        # scenario cell instead of raising.
        from repro.studies.spec import FidelitySpec
        spec = sequence_spec(fidelity=FidelitySpec(mode="fluid"))
        (cell,) = lower_study(spec)[1][0]
        assert not cell.is_fleet
        assert cell.sequences
        assert cell.fidelity

    def test_resilience_rejected_on_sequences(self):
        from repro.studies.spec import ResilienceSpec
        with pytest.raises(SpecError, match="resilience"):
            sequence_spec(resilience=ResilienceSpec(timeout_s=1e-3))

    def test_cluster_rejected_on_sequences(self):
        from repro.studies.spec import ClusterSpec
        with pytest.raises(SpecError, match="cluster"):
            sequence_spec(cluster=ClusterSpec(replicas=2))

    def test_continuous_requires_sequences(self):
        with pytest.raises(SpecError, match="continuous"):
            StudySpec(
                name="bad", kind="serving",
                workload=WorkloadSpec(
                    models=(ModelTraffic(model="LeNet5"),)
                ),
                scheduler=SchedulerSpec(policy="continuous", max_batch=4),
            )

    def test_sequence_lengths_on_cnn_rejected_at_lowering(self):
        spec = sequence_spec(workload={"models": (
            ModelTraffic(model="LeNet5", prompt_tokens=16,
                         output_tokens=8),
        )}, scheduler=SchedulerSpec())
        with pytest.raises(SpecError, match="attention layers"):
            lower_study(spec)

    def test_transformer_without_lengths_rejected_at_lowering(self):
        spec = StudySpec(
            name="bad", kind="serving",
            workload=WorkloadSpec(
                models=(ModelTraffic(model="TransformerTiny"),)
            ),
        )
        with pytest.raises(SpecError, match="needs sequence lengths"):
            lower_study(spec)

    def test_prompt_without_output_rejected(self):
        with pytest.raises(SpecError, match="both positive"):
            WorkloadSpec(
                models=(ModelTraffic(model="TransformerTiny"),),
                prompt_tokens=16,
            )

    def test_length_distribution_inert_without_sequences(self):
        with pytest.raises(SpecError, match="length_distribution"):
            WorkloadSpec(
                models=(ModelTraffic(model="LeNet5"),),
                length_distribution="geometric",
            )

    def test_starvation_age_priority_only(self):
        with pytest.raises(SpecError, match="priority"):
            SchedulerSpec(policy="fifo", starvation_age_s=1e-3)

    def test_epoch_knob_rejected_on_static_controller(self):
        spec = sequence_spec(platform=PlatformSpec(
            controller="static", controller_epoch_s=2e-6,
        ))
        with pytest.raises(SpecError, match="never acts on"):
            lower_study(spec)

    def test_epoch_knob_rejected_off_siph(self):
        spec = StudySpec(
            name="bad", kind="serving",
            workload=WorkloadSpec(models=(ModelTraffic(model="LeNet5"),)),
            platform=PlatformSpec(name="CrossLight",
                                  controller_epoch_s=2e-6),
        )
        with pytest.raises(SpecError, match="controller_epoch_s"):
            lower_study(spec)

    def test_inference_kind_rejects_sequence_fields(self):
        with pytest.raises(SpecError, match="serving studies"):
            StudySpec(
                name="bad", kind="inference",
                workload=WorkloadSpec(
                    models=(ModelTraffic(model="TransformerTiny",
                                         prompt_tokens=4,
                                         output_tokens=4),),
                ),
            )


# ---------------------------------------------------------------------------
# Satellites: epoch axis, quotas, starvation guard, exports.
# ---------------------------------------------------------------------------


class TestEpochAxis:
    def test_epoch_resolves_into_config(self):
        spec = sequence_spec(platform=PlatformSpec(
            controller_epoch_s=2e-6,
        ))
        assert resolve_config(spec).resipi_epoch_s == 2e-6

    def test_epoch_is_sweepable_and_moves_results(self):
        spec = sequence_spec(sweep=SweepSpec(axes=(
            SweepAxis("platform.controller_epoch_s", (1e-6, 16e-6)),
        )))
        fast, slow = run_study(spec).serving_results()
        assert fast != slow
        assert fast.reconfigurations != slow.reconfigurations


class TestQuotaAndStarvation:
    def test_quota_denials_surface_per_model(self):
        spec = sequence_spec(workload={
            "models": (
                ModelTraffic(model="TransformerTiny", fraction=0.6,
                             prompt_tokens=16, output_tokens=8),
                ModelTraffic(model="LeNet5", fraction=0.4, quota=1),
            ),
            "rate_rps": 400e3,
        })
        (result,) = run_study(spec).serving_results()
        by_model = {s.model: s for s in result.per_model}
        assert by_model["LeNet5"].quota_denied > 0
        assert by_model["TransformerTiny"].quota_denied == 0

    def test_starvation_guard_promotes_oldest(self):
        spec = sequence_spec(
            workload={
                "models": (
                    ModelTraffic(model="TransformerTiny", fraction=0.5,
                                 prompt_tokens=16, output_tokens=8,
                                 priority=5),
                    ModelTraffic(model="LeNet5", fraction=0.5,
                                 priority=0),
                ),
                "rate_rps": 300e3,
            },
            scheduler=SchedulerSpec(policy="priority",
                                    starvation_age_s=20e-6),
        )
        guarded = run_study(spec).serving_results()[0]
        from dataclasses import replace as dc_replace
        unguarded_spec = dc_replace(
            spec, scheduler=SchedulerSpec(policy="priority")
        )
        unguarded = run_study(unguarded_spec).serving_results()[0]
        assert guarded != unguarded  # the guard reorders dispatch

    def test_quota_moves_spec_digest_and_key(self):
        plain = sequence_spec()
        quota = sequence_spec(workload={"models": (
            ModelTraffic(model="TransformerTiny", fraction=0.6,
                         prompt_tokens=16, output_tokens=8),
            ModelTraffic(model="LeNet5", fraction=0.4, quota=8),
        )})
        assert plain.digest != quota.digest
        plain_cell = lower_study(plain)[1][0][0]
        quota_cell = lower_study(quota)[1][0][0]
        assert plain_cell.key() != quota_cell.key()


class TestRenderAndExport:
    def test_render_includes_token_metrics(self):
        study = run_study(sequence_spec())
        text = render_study(study)
        assert "transformer serving (token metrics)" in text
        assert "ttft p50(us)" in text
        assert "tok/s" in text

    def test_json_and_csv_carry_sequence_block(self):
        import json
        results = run_study(sequence_spec()).serving_results()
        record = json.loads(study_results_to_json(results))[0]
        assert record["sequence"]["tokens_generated"] > 0
        assert record["sequence"]["ttft_s"]["p99"] > 0
        assert record["tokens_per_s"] > 0
        header = study_results_to_csv(results).splitlines()[0]
        for column in ("tokens_generated", "tokens_per_s",
                       "ttft_p99_s", "token_p99_s"):
            assert column in header

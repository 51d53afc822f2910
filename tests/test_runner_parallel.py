"""Parallel fan-out and persistent result cache of the experiment runner.

The determinism contract: ``run_matrix`` must produce bit-identical
``InferenceResult`` fields no matter whether cells were simulated
serially, across ``jobs=4`` worker processes, or restored from a cold
or warm on-disk cache.  Every inference path — the runner, the study
compiler and the quantisation study — runs inference cells through
:func:`run_cached`, so they share one cache.
"""

import dataclasses

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.dnn.quantization import QuantizationConfig
from repro.experiments.quantization_study import quantization_study
from repro.experiments.runner import (
    PLATFORM_ORDER,
    CacheStats,
    ExperimentRunner,
    InferenceCell,
    ResultCache,
    build_platform,
    cell_key,
    cell_label,
    config_digest,
    run_cached,
    simulate_inference_cell,
)
from repro.studies import FaultSpec
from repro.studies.builders import run_spec
from repro.studies.compile import run_study

MODELS = ("LeNet5", "MobileNetV2")
"""Small-model subset: full platform coverage, tractable runtime."""

COMPARED_FIELDS = (
    "latency_s",
    "average_power_w",
    "energy_per_bit_j",
    "total_energy_j",
    "traffic_bits",
    "reconfigurations",
    "batch_size",
)


def _fingerprint(results):
    return {
        key: tuple(getattr(result, field) for field in COMPARED_FIELDS)
        for key, result in sorted(results.items())
    }


@pytest.fixture(scope="module")
def serial_matrix():
    runner = ExperimentRunner()
    return _fingerprint(runner.run_matrix(models=MODELS))


class TestParallelDeterminism:
    def test_jobs4_bit_identical_to_serial(self, serial_matrix):
        runner = ExperimentRunner()
        parallel = runner.run_matrix(models=MODELS, jobs=4)
        assert _fingerprint(parallel) == serial_matrix
        assert runner.stats.simulated == len(PLATFORM_ORDER) * len(MODELS)

    def test_cold_then_warm_cache_bit_identical(self, serial_matrix,
                                                tmp_path):
        cache_dir = tmp_path / "cache"
        cold = ExperimentRunner(cache_dir=cache_dir)
        cold_results = cold.run_matrix(models=MODELS, jobs=4)
        assert _fingerprint(cold_results) == serial_matrix
        assert cold.stats.simulated == len(PLATFORM_ORDER) * len(MODELS)

        warm = ExperimentRunner(cache_dir=cache_dir)
        warm_results = warm.run_matrix(models=MODELS, jobs=4)
        assert _fingerprint(warm_results) == serial_matrix
        assert warm.stats.simulated == 0
        assert warm.stats.hits == len(PLATFORM_ORDER) * len(MODELS)

    def test_single_cell_run_uses_disk_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = ExperimentRunner(cache_dir=cache_dir)
        a = first.run("CrossLight", "LeNet5")
        assert first.stats.simulated == 1

        second = ExperimentRunner(cache_dir=cache_dir)
        b = second.run("CrossLight", "LeNet5")
        assert second.stats.simulated == 0
        assert second.stats.hits == 1
        assert a.latency_s == b.latency_s
        assert a.channel_stats == b.channel_stats

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)

    def test_run_matrix_unknown_platform(self):
        with pytest.raises(KeyError):
            ExperimentRunner().run_matrix(platforms=("TPUv7",),
                                          models=("LeNet5",))


class TestCacheKeys:
    def test_key_stable_for_equal_configs(self):
        a = cell_key("2.5D-CrossLight-SiPh", "LeNet5", "resipi",
                     DEFAULT_PLATFORM)
        b = cell_key("2.5D-CrossLight-SiPh", "LeNet5", "resipi",
                     DEFAULT_PLATFORM.with_wavelengths(64))
        assert a == b  # 64 wavelengths IS the default: equal content

    def test_key_changes_with_each_component(self):
        base = cell_key("2.5D-CrossLight-SiPh", "LeNet5", "resipi",
                        DEFAULT_PLATFORM)
        assert base != cell_key("CrossLight", "LeNet5", "resipi",
                                DEFAULT_PLATFORM)
        assert base != cell_key("2.5D-CrossLight-SiPh", "VGG16", "resipi",
                                DEFAULT_PLATFORM)
        assert base != cell_key("2.5D-CrossLight-SiPh", "LeNet5", "static",
                                DEFAULT_PLATFORM)
        assert base != cell_key("2.5D-CrossLight-SiPh", "LeNet5", "resipi",
                                DEFAULT_PLATFORM.with_wavelengths(32))
        assert base != cell_key("2.5D-CrossLight-SiPh", "LeNet5", "resipi",
                                DEFAULT_PLATFORM, extra={"x": 1})

    def test_config_digest_tracks_content(self):
        assert config_digest(DEFAULT_PLATFORM) == config_digest(
            DEFAULT_PLATFORM.with_wavelengths(64)
        )
        assert config_digest(DEFAULT_PLATFORM) != config_digest(
            DEFAULT_PLATFORM.with_wavelengths(32)
        )


class TestResultCache:
    def test_miss_on_empty(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("deadbeef") is None
        assert len(cache) == 0

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        result = build_platform("CrossLight", DEFAULT_PLATFORM).run_model(
            __import__("repro.dnn.zoo", fromlist=["zoo"]).build("LeNet5")
        )
        cache.put("k", result)
        restored = cache.get("k")
        assert restored is not None
        assert restored.latency_s == result.latency_s
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_evicted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        (cache.directory / "bad.pkl").write_bytes(b"not a pickle")
        assert cache.get("bad") is None
        assert not (cache.directory / "bad.pkl").exists()

    def test_truncated_entry_is_a_miss_and_evicted(self, tmp_path):
        """A write cut off mid-pickle must not poison its key forever."""
        import pickle

        cache = ResultCache(tmp_path / "cache")
        result = build_platform("CrossLight", DEFAULT_PLATFORM).run_model(
            __import__("repro.dnn.zoo", fromlist=["zoo"]).build("LeNet5")
        )
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        (cache.directory / "cut.pkl").write_bytes(payload[: len(payload) // 2])
        assert cache.get("cut") is None
        assert not (cache.directory / "cut.pkl").exists()
        # The key is immediately usable again.
        cache.put("cut", result)
        assert cache.get("cut") is not None

    def test_missing_entry_not_evicted_sideways(self, tmp_path):
        """A plain miss must not try to delete anything."""
        cache = ResultCache(tmp_path / "cache")
        cache.put("good", 123)
        assert cache.get("nope") is None
        assert cache.get("good") == 123


class TestCacheSchemaVersion:
    def test_version_bump_changes_every_cell_key(self, monkeypatch):
        """The staleness guard: bumping CACHE_SCHEMA_VERSION must move
        every cell key, or stale caches serve wrong results."""
        from repro.experiments import runner as runner_module

        cells = [
            ("CrossLight", "LeNet5", "resipi", DEFAULT_PLATFORM),
            ("2.5D-CrossLight-SiPh", "VGG16", "static", DEFAULT_PLATFORM),
            ("2.5D-CrossLight-Elec", "ResNet50", "prowaves",
             DEFAULT_PLATFORM),
        ]
        extras = [None, {"study": "serving", "rate_rps": 1e5}]
        before = {
            cell_key(*cell, extra=extra)
            for cell in cells for extra in extras
        }
        monkeypatch.setattr(
            runner_module, "CACHE_SCHEMA_VERSION",
            runner_module.CACHE_SCHEMA_VERSION + 1,
        )
        after = {
            cell_key(*cell, extra=extra)
            for cell in cells for extra in extras
        }
        assert len(before) == len(after) == len(cells) * len(extras)
        assert before.isdisjoint(after)


class TestSimulateCells:
    def test_results_in_cell_order(self):
        cells = [
            InferenceCell("CrossLight", "LeNet5", "resipi", DEFAULT_PLATFORM),
            InferenceCell("2.5D-CrossLight-SiPh", "LeNet5", "resipi",
                          DEFAULT_PLATFORM),
        ]
        results = run_cached(cells, simulate_inference_cell, jobs=2)
        assert results[0].platform == "CrossLight"
        assert results[1].platform == "2.5D-CrossLight-SiPh"

    def test_cache_backfill_and_reuse(self, tmp_path):
        cells = [
            InferenceCell("CrossLight", "LeNet5", "resipi", DEFAULT_PLATFORM)
        ]
        cache_dir = tmp_path / "cache"
        first = run_cached(cells, simulate_inference_cell,
                           cache_dir=cache_dir)
        assert len(ResultCache(cache_dir)) == 1
        stats = CacheStats()
        second = run_cached(cells, simulate_inference_cell,
                            cache_dir=cache_dir, stats=stats)
        assert stats.simulated == 0
        assert first[0].latency_s == second[0].latency_s


class TestOneInferencePath:
    """The runner, the study compiler and the quantisation study share
    one cell type, one key rule and therefore one cache."""

    VARIANTS = {
        "platform": "CrossLight",
        "model": "VGG16",
        "controller": "static",
        "config": DEFAULT_PLATFORM.with_wavelengths(32),
        "batch_size": 4,
        "faults": FaultSpec.from_dict({"events": [{
            "kind": "gateway-fail", "at_s": 0.0, "memory_gateways": 1,
        }]}),
        "quantization": QuantizationConfig.binary(),
    }

    @pytest.mark.parametrize(
        "name", [field.name for field in dataclasses.fields(InferenceCell)]
    )
    def test_every_field_moves_the_key(self, name):
        base = InferenceCell("2.5D-CrossLight-SiPh", "LeNet5", "resipi",
                             DEFAULT_PLATFORM)
        moved = dataclasses.replace(base, **{name: self.VARIANTS[name]})
        assert getattr(moved, name) != getattr(base, name)
        assert moved.key() != base.key()

    def test_runner_cache_serves_the_study_spec(self, tmp_path):
        cache_dir = tmp_path / "cache"
        runner = ExperimentRunner(cache_dir=cache_dir)
        expected = runner.run("2.5D-CrossLight-SiPh", "LeNet5")
        assert runner.stats.simulated == 1
        stats = CacheStats()
        study = run_study(run_spec("LeNet5", "2.5D-CrossLight-SiPh"),
                          cache_dir=cache_dir, stats=stats)
        assert (stats.hits, stats.simulated) == (1, 0)
        (result,) = study.points[0].results
        assert result.latency_s == expected.latency_s
        assert result.total_energy_j == expected.total_energy_j

    def test_quantization_rerun_on_warm_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold_stats, warm_stats = CacheStats(), CacheStats()
        cold = quantization_study("LeNet5", cache_dir=cache_dir,
                                  stats=cold_stats)
        warm = quantization_study("LeNet5", cache_dir=cache_dir,
                                  stats=warm_stats)
        assert cold_stats.simulated == len(cold) == 4
        assert (warm_stats.hits, warm_stats.simulated) == (4, 0)
        assert [
            (point.scheme, point.traffic_bits, point.result.latency_s,
             point.result.total_energy_j) for point in warm
        ] == [
            (point.scheme, point.traffic_bits, point.result.latency_s,
             point.result.total_energy_j) for point in cold
        ]


class TestCellTiming:
    def test_run_cached_records_wall_time_per_cell(self, tmp_path):
        cells = [
            InferenceCell("CrossLight", "LeNet5", "resipi", DEFAULT_PLATFORM)
        ]
        cold = CacheStats()
        run_cached(
            cells, simulate_inference_cell,
            cache_dir=tmp_path / "cache", stats=cold,
        )
        assert len(cold.cell_times) == 1
        label, seconds, hit = cold.cell_times[0]
        assert label == "CrossLight/LeNet5/resipi"
        assert seconds > 0 and not hit

        warm = CacheStats()
        run_cached(
            cells, simulate_inference_cell,
            cache_dir=tmp_path / "cache", stats=warm,
        )
        (_, _, warm_hit), = warm.cell_times
        assert warm_hit

    def test_slowest_cells_ranked_and_capped(self):
        stats = CacheStats()
        for index, seconds in enumerate((0.3, 0.1, 0.9, 0.5, 0.2, 0.7)):
            stats.record_cell(f"cell{index}", seconds, hit=False)
        top = stats.slowest_cells(3)
        assert [label for label, _, _ in top] == ["cell2", "cell5", "cell3"]

    def test_render_slowest_annotates_hits(self):
        stats = CacheStats()
        stats.record_cell("slow-cell", 0.25, hit=False)
        stats.record_cell("cached-cell", 0.001, hit=True)
        text = stats.render_slowest()
        assert text.startswith("slowest cells (top 2):")
        assert "slow-cell" in text
        assert "cached-cell  [cache hit]" in text
        assert CacheStats().render_slowest() == ""

    def test_cell_label_flavours(self):
        assert cell_label(
            InferenceCell("CrossLight", "LeNet5", "resipi", DEFAULT_PLATFORM)
        ) == "CrossLight/LeNet5/resipi"
        assert cell_label(object()) == "object"


class TestChannelStats:
    def test_results_carry_channel_stats(self):
        runner = ExperimentRunner()
        result = runner.run("2.5D-CrossLight-SiPh", "LeNet5")
        assert result.channel_stats
        names = {stat.name for stat in result.channel_stats}
        assert "hbm" in names
        assert any(0.0 < stat.utilization <= 1.0
                   for stat in result.channel_stats)

    def test_busiest_channels_ranked(self):
        runner = ExperimentRunner()
        result = runner.run("2.5D-CrossLight-Elec", "LeNet5")
        top = result.busiest_channels(3)
        assert len(top) == 3
        assert top[0].utilization >= top[1].utilization >= top[2].utilization

    def test_export_includes_channel_utilization(self):
        import json

        from repro.experiments.export import result_to_dict, results_to_json

        runner = ExperimentRunner()
        result = runner.run("CrossLight", "LeNet5")
        record = result_to_dict(result)
        assert {entry["name"] for entry in record["channel_utilization"]} == {
            "mono-noc", "mono-dram",
        }
        parsed = json.loads(results_to_json([result]))
        assert parsed[0]["channel_utilization"]

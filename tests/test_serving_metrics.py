"""The one serving reduction: checked against an independent reference,
and request conservation over every shipped serving example."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.metrics import (
    LatencyProfile,
    RequestTable,
    percentile,
    request_fields,
)
from repro.studies.compile import load_spec, run_study

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SERVING_EXAMPLES = sorted(
    path.name for path in EXAMPLES.glob("*.json")
    if load_spec(path).kind == "serving"
)

# ---------------------------------------------------------------------------
# The reduction against a reference.
# ---------------------------------------------------------------------------

TIES = (1e-6, 2.5e-6, 2.5e-6, 7e-6)
"""A small pool, so drawn sample sets repeat values."""

sample = st.one_of(
    st.floats(min_value=1e-9, max_value=1e-2, allow_nan=False),
    st.sampled_from(TIES),
)
samples = st.lists(sample, max_size=40)


def reference_rank(values: list[float], q: float) -> float:
    """Nearest rank by definition: the smallest sample that at least
    ``q`` percent of the samples do not exceed."""
    if not values:
        return 0.0
    need = q / 100.0 * len(values)
    for value in sorted(values):
        if sum(1 for other in values if other <= value) >= need:
            return value
    raise AssertionError("the largest sample always qualifies")


def assert_profile(profile: LatencyProfile, values: list[float]) -> None:
    assert profile.count == len(values)
    if not values:
        assert profile == LatencyProfile(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return
    assert profile.mean_s == pytest.approx(
        math.fsum(values) / len(values), rel=1e-12
    )
    assert profile.p50_s == reference_rank(values, 50.0)
    assert profile.p95_s == reference_rank(values, 95.0)
    assert profile.p99_s == reference_rank(values, 99.0)
    assert profile.max_s == max(values)


class TestProfiles:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(samples)
    def test_profile_matches_reference(self, values):
        assert_profile(LatencyProfile.from_samples(values), values)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(samples, st.floats(min_value=0.0, max_value=100.0))
    def test_percentile_matches_reference(self, values, q):
        assert percentile(values, q) == reference_rank(values, q)

    def test_edge_cases(self):
        assert_profile(LatencyProfile.from_samples([]), [])
        assert_profile(LatencyProfile.from_samples([3e-6]), [3e-6])
        assert_profile(LatencyProfile.from_samples([2e-6] * 5), [2e-6] * 5)


@st.composite
def tables(draw):
    """A random request table, its elapsed time and fault span.

    Every arrival falls before the run ends, as in a simulation."""
    elapsed = draw(st.floats(min_value=1e-4, max_value=1e-2))
    tenants = tuple(
        (f"model{index}", draw(st.none() | st.floats(1e-6, 1e-3)))
        for index in range(draw(st.integers(1, 3)))
    )
    n = draw(st.integers(0, 30))
    column = lambda strategy: draw(st.lists(strategy, min_size=n,
                                            max_size=n))
    dropped = column(st.booleans())
    sequences = draw(st.integers(0, n))
    outputs = draw(st.lists(st.integers(1, 6), min_size=sequences,
                            max_size=sequences))
    table = RequestTable(
        tenants=tenants,
        arrival_s=column(st.floats(0.0, elapsed, exclude_max=True)),
        queue_delay_s=column(st.floats(0.0, 1e-4) | st.sampled_from(TIES)),
        latency_s=column(sample),
        mix_index=column(st.integers(0, len(tenants) - 1)),
        dropped=dropped,
        slo_violated=[
            shed or violated
            for shed, violated in zip(dropped, column(st.booleans()))
        ],
        batch_size=column(st.integers(1, 8)),
        ttft_s=column(sample)[:sequences],
        output_tokens=outputs,
        token_gaps=draw(st.lists(sample, min_size=sum(outputs) - sequences,
                                 max_size=sum(outputs) - sequences)),
    )
    span = None
    if draw(st.booleans()):
        ends = sorted(draw(st.lists(st.floats(0.0, 2 * elapsed),
                                    min_size=2, max_size=2)))
        span = (ends[0], ends[1])
    return table, elapsed, span


class TestRequestFields:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(tables())
    def test_fields_match_reference(self, drawn):
        table, elapsed, span = drawn
        fields = request_fields(table, elapsed, span)
        rows = range(len(table.latency_s))
        served = [row for row in rows if not table.dropped[row]]
        assert_profile(fields["latency"],
                       [table.latency_s[row] for row in served])
        assert_profile(fields["queue_delay"],
                       [table.queue_delay_s[row] for row in served])
        if served:
            assert fields["mean_batch_size"] == pytest.approx(
                sum(table.batch_size[row] for row in served) / len(served)
            )
        else:
            assert fields["mean_batch_size"] == 0.0
        if table.ttft_s:
            assert_profile(fields["ttft"], list(table.ttft_s))
            assert_profile(fields["token_latency"], list(table.token_gaps))
            assert fields["tokens_generated"] == sum(table.output_tokens)
        else:
            assert fields["ttft"] is fields["token_latency"] is None
            assert fields["tokens_generated"] == 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(tables())
    def test_splits_partition_the_rows(self, drawn):
        table, elapsed, span = drawn
        fields = request_fields(table, elapsed, span)
        rows = range(len(table.latency_s))
        # per_model: every tenant in mix order, each its own rows.
        assert [stats.model for stats in fields["per_model"]] == [
            name for name, _ in table.tenants
        ]
        for index, stats in enumerate(fields["per_model"]):
            own = [row for row in rows if table.mix_index[row] == index]
            assert stats.slo_s == table.tenants[index][1]
            assert stats.submitted == len(own)
            assert stats.shed == sum(table.dropped[row] for row in own)
            assert stats.slo_violations == sum(
                table.slo_violated[row] for row in own
            )
            assert_profile(stats.latency, [
                table.latency_s[row] for row in own
                if not table.dropped[row]
            ])
        # windows: by arrival, clamped to the run, empty spans omitted.
        if span is None:
            assert fields["windows"] == ()
            return
        start, end = min(span[0], elapsed), min(span[1], elapsed)
        bounds = [("before", 0.0, start), ("during", start, end),
                  ("after", end, elapsed)]
        expected = [bound for bound in bounds if bound[2] > bound[1]]
        assert [(w.label, w.start_s, w.end_s)
                for w in fields["windows"]] == expected
        covered = 0
        for window in fields["windows"]:
            own = [row for row in rows
                   if window.start_s <= table.arrival_s[row] < window.end_s]
            covered += len(own)
            assert window.submitted == len(own)
            assert window.slo_violations == sum(
                table.slo_violated[row] for row in own
            )
            assert_profile(window.latency, [
                table.latency_s[row] for row in own
                if not table.dropped[row]
            ])
        assert covered == len(rows)


# ---------------------------------------------------------------------------
# Conservation over the shipped examples, DES and fluid cells alike.
# ---------------------------------------------------------------------------


def assert_ordered(profile: LatencyProfile, positive: bool = True) -> None:
    """``0 < p50 <= p95 <= p99 <= max`` on a non-empty profile; a
    queue delay may be 0 (``positive=False``)."""
    if profile.count == 0:
        return
    assert profile.p50_s > 0.0 or (not positive and profile.p50_s == 0.0)
    assert profile.p50_s <= profile.p95_s <= profile.p99_s <= profile.max_s


@pytest.mark.parametrize("name", SERVING_EXAMPLES)
def test_example_results_conserve_requests(name):
    study = run_study(load_spec(EXAMPLES / name))
    for point, result in zip(study.points, study.serving_results()):
        completed, shed = result.requests_completed, result.requests_shed
        assert result.requests_injected == completed + shed
        assert result.latency.count == completed
        assert [stats.model for stats in result.per_model] == [
            entry.model for entry in point.spec.workload.models
        ]
        assert sum(s.completed for s in result.per_model) == completed
        assert sum(s.shed for s in result.per_model) == shed
        if result.windows:
            assert sum(w.completed for w in result.windows) == completed
            assert sum(w.shed for w in result.windows) == shed
        if result.resilience is None:
            assert sum(
                node.requests_completed for node in result.per_node
            ) == completed
        profiles = (
            [result.latency, result.ttft, result.token_latency]
            + [stats.latency for stats in result.per_model]
            + [window.latency for window in result.windows]
            + [node.latency for node in result.per_node]
        )
        for profile in profiles:
            if profile is not None:
                assert_ordered(profile)
        assert_ordered(result.queue_delay, positive=False)

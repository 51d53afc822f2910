"""Micro-benchmarks of the simulation substrates.

Not paper artefacts — these track the performance of the DES kernel, the
interposer fabrics, the serving layers and the functional MAC unit so
regressions in simulator speed are visible.  Every body registered in
:data:`repro.bench.MICROBENCHMARKS` runs here once, under its parameter
id (the registry name without ``test_bench_``), and must pass the sanity
check registered beside its factory.  The same bodies feed the
``python -m repro bench`` inline runner and the ``BENCH_sim.json``
baseline, so both measure exactly the same work.
"""

import pytest

from repro.bench import MICROBENCHMARKS, benchmark_id


@pytest.mark.parametrize("name", tuple(MICROBENCHMARKS), ids=benchmark_id)
def test_bench(benchmark, name):
    factory = MICROBENCHMARKS[name]
    result = benchmark(factory())
    assert factory.expects(result), f"{name} returned {result!r}"

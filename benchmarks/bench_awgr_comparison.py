"""E13 (extension) — interposer topology: ReSiPI SWMR/SWSR vs AWGR.

Section IV presents AWGR-based interposers [10] as the other photonic
option.  DNN traffic is a memory-hub pattern, so the AWGR's fixed
per-pair wavelength slice (64 / 9 ports = 7 lambda = 84 Gb/s) starves
reads that the ReSiPI fabric serves with up to the full memory-gateway
bandwidth — the quantitative argument for the paper's tree topology.
"""

from repro.core.awgr import CrossLight25DAWGR
from repro.core.siph import CrossLight25DSiPh
from repro.dnn import zoo
from repro.dnn.workload import extract_workload

MODELS = ("MobileNetV2", "ResNet50")


def regenerate():
    results = {}
    for model_name in MODELS:
        workload = extract_workload(zoo.build(model_name))
        results[("resipi", model_name)] = CrossLight25DSiPh().run_workload(
            workload
        )
        results[("awgr", model_name)] = CrossLight25DAWGR().run_workload(
            workload
        )
    return results


def test_bench_awgr_comparison(benchmark):
    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    print(f"\n{'fabric':<10}{'model':<14}{'latency(ms)':>13}{'power(W)':>10}"
          f"{'EPB(nJ/b)':>11}")
    print("-" * 58)
    for (fabric, model), result in sorted(results.items()):
        print(f"{fabric:<10}{model:<14}{result.latency_s * 1e3:>13.4f}"
              f"{result.average_power_w:>10.2f}"
              f"{result.energy_per_bit_j * 1e9:>11.3f}")

    for model in MODELS:
        resipi = results[("resipi", model)]
        awgr = results[("awgr", model)]
        # Hub-pattern DNN traffic favours the reconfigurable tree.
        assert resipi.latency_s < awgr.latency_s
        assert awgr.latency_s / resipi.latency_s > 1.3

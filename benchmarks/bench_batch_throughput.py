"""E14 (extension) — batched inference throughput.

Layer-major batching keeps each layer's weights resident while the whole
batch streams, amortising weight traffic; per-image latency improves
with batch size and saturates at the compute roofline.
"""

from repro.core.siph import CrossLight25DSiPh
from repro.dnn import zoo
from repro.dnn.workload import extract_workload

BATCHES = (1, 2, 4, 8, 16)


def regenerate():
    workload = extract_workload(zoo.build("ResNet50"))
    platform = CrossLight25DSiPh()
    return [
        platform.run_workload(workload, batch_size=batch)
        for batch in BATCHES
    ]


def test_bench_batch_throughput(benchmark):
    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    print(f"\n{'batch':>6}{'total(ms)':>12}{'per-image(ms)':>15}"
          f"{'inf/s':>10}{'power(W)':>10}")
    print("-" * 53)
    for result in results:
        print(f"{result.batch_size:>6}{result.latency_s * 1e3:>12.4f}"
              f"{result.latency_per_inference_s * 1e3:>15.4f}"
              f"{result.throughput_inferences_per_s:>10.0f}"
              f"{result.average_power_w:>10.2f}")

    per_image = [r.latency_per_inference_s for r in results]
    # Weight amortisation: per-image latency never degrades with batch.
    assert per_image[-1] <= per_image[0] * 1.001
    throughput = [r.throughput_inferences_per_s for r in results]
    assert throughput[-1] >= throughput[0]

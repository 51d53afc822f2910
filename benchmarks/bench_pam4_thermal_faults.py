"""E18/E19/E20 (extensions) — PAM-4 signalling, thermal closure, faults.

* E18: OOK vs PAM-4 on the interposer read channel (Section II, [44]).
* E19: thermal fixed-point closure per chiplet class.
* E20: graceful degradation under gateway failures ([39]/[40] theme).
"""

from repro.config import DEFAULT_PLATFORM
from repro.core.engine import InferenceEngine
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.interposer.photonic.controllers import ReSiPIController
from repro.interposer.photonic.fabric import PhotonicInterposerFabric
from repro.interposer.photonic.faults import (
    GatewayFail,
    HazardEngine,
    HazardTimeline,
)
from repro.interposer.photonic.links import swmr_read_budget
from repro.interposer.topology import build_floorplan
from repro.mapping.mapper import KernelMatchMapper
from repro.photonics.modulation import pam4_tradeoff
from repro.photonics.thermal import thermal_operating_point
from repro.sim.core import Environment


def test_bench_pam4_tradeoff(benchmark):
    """E18: evaluate PAM-4 on the SWMR read channel."""
    floorplan = build_floorplan(DEFAULT_PLATFORM)
    budget = swmr_read_budget(DEFAULT_PLATFORM, floorplan)

    trade = benchmark(pam4_tradeoff, budget)

    print(f"\n{'scheme':<8}{'rate (Gb/s)':>13}{'laser (mW)':>12}"
          f"{'energy/bit (pJ)':>17}")
    print("-" * 50)
    for point in (trade.ook, trade.pam4):
        print(f"{point.spec.scheme.value:<8}"
              f"{point.data_rate_bps / 1e9:>13.0f}"
              f"{point.laser_power_w * 1e3:>12.2f}"
              f"{point.energy_per_bit_j * 1e12:>17.3f}")
    print(f"\nPAM-4: {trade.bandwidth_gain:.1f}x bandwidth for "
          f"{trade.laser_power_ratio:.1f}x laser power; "
          f"wins energy/bit: {trade.pam4_wins_energy}")

    assert trade.bandwidth_gain == 2.0
    assert 2.8 < trade.laser_power_ratio < 3.2
    # On the low-loss interposer channel the laser share is small, so
    # halving the per-bit electronics cost makes PAM-4 worthwhile.
    assert trade.pam4_wins_energy


def test_bench_thermal_closure(benchmark):
    """E19: thermal trimming overhead per chiplet class."""
    cases = {
        # (kind, base power W, rings): compute chiplets vs memory MRG.
        "3x3 conv chiplet": (6.0, 2 * 44 * 9),
        "dense100 chiplet": (5.0, 2 * 4 * 100),
        "memory MRG stack": (8.0, 40 * 64),
    }

    def run():
        return {
            name: thermal_operating_point(power, rings)
            for name, (power, rings) in cases.items()
        }

    points = benchmark(run)

    print(f"\n{'die':<20}{'base(W)':>9}{'rise(K)':>9}{'drift(nm)':>11}"
          f"{'trim(W)':>9}")
    print("-" * 58)
    for name, point in points.items():
        print(f"{name:<20}{point.base_power_w:>9.2f}"
              f"{point.temperature_rise_k:>9.2f}"
              f"{point.resonance_drift_nm:>11.3f}"
              f"{point.thermal_trimming_power_w:>9.3f}")

    for point in points.values():
        # Closure must converge with trimming below half the base power.
        assert point.thermal_trimming_power_w < 0.5 * max(
            point.base_power_w, 1.0
        )


def test_bench_fault_tolerance(benchmark):
    """E20: latency degradation vs failed memory gateways.

    Run at 16 wavelengths, where the platform is communication-
    sensitive; at the full 64-wavelength comb it is compute-bound and
    masks memory-gateway loss almost entirely (also shown below).
    """
    workload = extract_workload(zoo.build("MobileNetV2"))
    config = DEFAULT_PLATFORM.with_wavelengths(16)
    floorplan = build_floorplan(config)
    mapping = KernelMatchMapper(config, floorplan).map_workload(workload)

    def failure_at_start(failures: int) -> HazardTimeline | None:
        if failures == 0:
            return None
        if failures <= 6:
            event = GatewayFail(at_s=0.0, memory_gateways=failures)
        else:
            # Beyond the memory side: also kill 3 of 4 gateways per
            # chiplet.
            event = GatewayFail(
                at_s=0.0, memory_gateways=6,
                chiplet_gateways=tuple(
                    (site.chiplet_id, 3, 3)
                    for site in floorplan.compute_sites
                ),
            )
        return HazardTimeline((event,))

    def run():
        latencies = {}
        for failures in (0, 2, 6, 54):
            env = Environment()
            fabric = PhotonicInterposerFabric(env, config, floorplan)
            timeline = failure_at_start(failures)
            if timeline is not None:
                HazardEngine(fabric, timeline)
            ReSiPIController(env, fabric, config)
            engine = InferenceEngine(env, config, fabric)
            latencies[failures] = engine.run(mapping)
        return latencies

    latencies = benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\n{'failed gateways':>17}{'latency (ms)':>15}{'slowdown':>10}")
    print("-" * 42)
    for failures, latency in latencies.items():
        print(f"{failures:>17}{latency * 1e3:>15.4f}"
              f"{latency / latencies[0]:>10.2f}x")

    ordered = [latencies[k] for k in sorted(latencies)]
    # Graceful and monotone; the ReSiPI fabric's redundancy + weight
    # prefetch mask even 54/72 dead gateways to a bounded slowdown —
    # the quantitative form of the [39]/[40] fault-tolerance story.
    assert ordered == sorted(ordered)
    assert ordered[-1] > 1.05 * ordered[0]  # degradation is measurable
    assert ordered[-1] < 2.0 * ordered[0]   # but strongly masked

"""Fabrication-variation modelling for microring banks.

CrossLight's [21] cross-layer design devotes significant attention to
process variation: fabricated rings resonate away from their design
wavelength and must be trimmed back, and the trimming power is a large,
workload-independent chunk of a photonic accelerator's budget.  This
module models:

* per-ring resonance deviation as the sum of a die-level (systematic)
  and a ring-level (random) Gaussian component,
* the trimming power a bank of rings needs, per mechanism (thermal
  trimming heats rings; carrier-injection EO trimming blue-shifts),
* trimming *yield*: the fraction of rings whose deviation exceeds the
  trimmable range and would need FSR-hopping (locking to the adjacent
  resonance) — the mitigation CrossLight adopts.

Sampling is deterministic given a seed, so power numbers and tests are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from . import constants
from .microring import MicroringResonator, TuningMechanism

if TYPE_CHECKING:
    import numpy as np

WITHIN_DIE_SIGMA_NM = 0.25
"""Random within-die resonance deviation (1-sigma, nm); typical foundry
SOI figure after lithography smoothing."""

DIE_TO_DIE_SIGMA_NM = 0.45
"""Systematic die-level resonance offset (1-sigma, nm)."""


@dataclass(frozen=True)
class VariationModel:
    """Gaussian process-variation model for ring resonances."""

    within_die_sigma_nm: float = WITHIN_DIE_SIGMA_NM
    die_sigma_nm: float = DIE_TO_DIE_SIGMA_NM
    seed: int = 2023

    def __post_init__(self) -> None:
        if self.within_die_sigma_nm < 0 or self.die_sigma_nm < 0:
            raise ConfigurationError("variation sigmas must be >= 0")

    def sample_deviations_nm(self, n_rings: int,
                             die_index: int = 0) -> np.ndarray:
        """Resonance deviations (nm) for ``n_rings`` rings on one die.

        Deterministic per ``(seed, die_index)``; the die offset is shared
        by all rings of the die, the within-die part is per ring.
        """
        import numpy as np

        if n_rings < 1:
            raise ConfigurationError("need at least one ring")
        rng = np.random.default_rng((self.seed, die_index))
        die_offset = rng.normal(0.0, self.die_sigma_nm)
        ring_offsets = rng.normal(0.0, self.within_die_sigma_nm, n_rings)
        return die_offset + ring_offsets


@dataclass(frozen=True)
class TrimmingReport:
    """Trimming cost of one ring bank under variation."""

    n_rings: int
    mechanism: TuningMechanism
    total_power_w: float
    mean_shift_nm: float
    max_shift_nm: float
    fsr_hop_fraction: float

    @property
    def power_per_ring_w(self) -> float:
        return self.total_power_w / self.n_rings


def trimming_report(
    n_rings: int,
    mechanism: TuningMechanism = TuningMechanism.THERMO_OPTIC,
    model: VariationModel | None = None,
    ring: MicroringResonator | None = None,
    die_index: int = 0,
    trim_range_nm: float = 1.0,
) -> TrimmingReport:
    """Trimming power for a bank of ``n_rings`` rings on one die.

    Thermal trimming can only red-shift, so a ring is trimmed *forward*
    to its target: deviations are corrected modulo the trimming
    direction, and rings whose correction exceeds ``trim_range_nm`` lock
    to the next FSR instead (counted in ``fsr_hop_fraction``; their trim
    cost is the residual after the hop).
    """
    import numpy as np

    if trim_range_nm <= 0:
        raise ConfigurationError("trim range must be positive")
    model = model or VariationModel()
    ring = ring or MicroringResonator(tuning=mechanism)
    deviations = model.sample_deviations_nm(n_rings, die_index)

    fsr_nm = ring.free_spectral_range_m * 1e9
    # Thermal trimming red-shifts only: a ring sitting above its target
    # must walk forward a full FSR minus its deviation.
    forward_shift = np.where(deviations < 0, -deviations,
                             fsr_nm - deviations)
    hops = forward_shift > trim_range_nm
    # FSR-hopping mitigation: lock to whichever resonance is nearest
    # within range; model the post-hop residual as the within-die sigma.
    effective_shift = np.where(hops, model.within_die_sigma_nm,
                               forward_shift)

    power_per_nm = (
        constants.MR_TO_TUNING_POWER_W_PER_NM
        if mechanism is TuningMechanism.THERMO_OPTIC
        else constants.MR_EO_TUNING_POWER_W_PER_NM
    )
    total_power = float(np.sum(effective_shift) * power_per_nm)
    return TrimmingReport(
        n_rings=n_rings,
        mechanism=mechanism,
        total_power_w=total_power,
        mean_shift_nm=float(np.mean(effective_shift)),
        max_shift_nm=float(np.max(effective_shift)),
        fsr_hop_fraction=float(np.mean(hops)),
    )


def platform_trimming_power_w(
    ring_counts_per_die: dict[str, int],
    mechanism: TuningMechanism = TuningMechanism.THERMO_OPTIC,
    model: VariationModel | None = None,
    trim_range_nm: float = 1.0,
) -> dict[str, float]:
    """Trimming power per die of a multi-chiplet platform (W).

    Each die gets an independent systematic offset — the 2.5D advantage:
    small dies see only their own die offset, while a monolithic die's
    rings share one (possibly bad) offset across the whole reticle.
    """
    model = model or VariationModel()
    result = {}
    for die_index, (die_name, n_rings) in enumerate(
        sorted(ring_counts_per_die.items())
    ):
        report = trimming_report(
            n_rings, mechanism, model, die_index=die_index,
            trim_range_nm=trim_range_nm,
        )
        result[die_name] = report.total_power_w
    return result

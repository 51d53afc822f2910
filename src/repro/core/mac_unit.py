"""Photonic multiply-accumulate (MAC) unit — functional + physical model.

The MAC unit of Fig. 4: DACs drive a bank of MR modulators that imprint
the activation vector onto the wavelength comb, a second bank of weight
MRs attenuates each carrier by its weight (broadcast-and-weight [35]),
and a broadband photodetector sums the per-wavelength powers into one
photocurrent — the dot product.

This module computes *numerically* through the device transfer functions
(quantised DACs, Lorentzian ring weighting, PD accumulation), so tests
can check that the analog pipeline really reproduces vector dot products
within quantisation error, not just that a formula was typed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..errors import ConfigurationError
from ..photonics import constants as ph
from ..photonics.microring import MicroringResonator
from ..photonics.photodetector import Photodetector

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class MacUnitSpec:
    """Static description of one MAC unit."""

    vector_length: int
    kernel_size: int = 0  # 0 marks dense units
    dac_bits: int = 8
    adc_bits: int = 8
    mac_rate_hz: float = 2e9

    def __post_init__(self) -> None:
        if self.vector_length < 1:
            raise ConfigurationError("vector length must be >= 1")
        if not 1 <= self.dac_bits <= 16 or not 1 <= self.adc_bits <= 16:
            raise ConfigurationError("converter resolutions must be 1..16 bits")

    @property
    def kind(self) -> str:
        if self.kernel_size:
            return f"{self.kernel_size}x{self.kernel_size} conv"
        return f"dense{self.vector_length}"

    @property
    def ops_per_second(self) -> float:
        """Peak MACs per second of this unit."""
        return self.vector_length * self.mac_rate_hz


def _quantize_unit_interval(values: np.ndarray, bits: int) -> np.ndarray:
    """Quantise values in [0, 1] to a ``bits``-deep uniform grid."""
    import numpy as np

    levels = (1 << bits) - 1
    return np.round(np.clip(values, 0.0, 1.0) * levels) / levels


@dataclass
class PhotonicMacUnit:
    """A functional noncoherent MAC unit.

    Signed values are carried with the standard two-rail trick of
    broadcast-and-weight architectures: positive and negative components
    are computed in separate passes (balanced photodetection), so the
    unit itself only handles magnitudes in [0, 1].
    """

    spec: MacUnitSpec
    ring: MicroringResonator = field(default_factory=MicroringResonator)
    detector: Photodetector = field(default_factory=Photodetector)

    def _weight_transmission(self, weights: np.ndarray) -> np.ndarray:
        """Optical transmission each weight ring applies to its carrier.

        Weights are quantised by the DAC, mapped to ring detunings and
        back through the Lorentzian — this round trip is where analog
        non-ideality enters.
        """
        import numpy as np

        quantised = _quantize_unit_interval(weights, self.spec.dac_bits)
        transmissions = np.empty_like(quantised)
        for index, weight in enumerate(quantised):
            if weight <= 0.0:
                transmissions[index] = 0.0
                continue
            detuning = self.ring.detuning_for_weight(float(weight))
            transmissions[index] = self.ring.weight_for_detuning(detuning)
        return transmissions

    def dot(self, activations: Sequence[float],
            weights: Sequence[float]) -> float:
        """One analog dot product of magnitude vectors in [0, 1].

        Returns the normalised dot product as recovered by the ADC.
        """
        import numpy as np

        act = np.asarray(activations, dtype=float)
        wgt = np.asarray(weights, dtype=float)
        if act.shape != wgt.shape:
            raise ConfigurationError(
                f"activation/weight length mismatch: {act.shape} vs {wgt.shape}"
            )
        if act.size > self.spec.vector_length:
            raise ConfigurationError(
                f"vector of {act.size} exceeds unit length "
                f"{self.spec.vector_length}"
            )
        if np.any((act < 0) | (act > 1)) or np.any((wgt < 0) | (wgt > 1)):
            raise ConfigurationError(
                "photonic MAC magnitudes must lie in [0, 1]; split signs "
                "into separate rails first"
            )

        # Activations imprinted by modulators (DAC-quantised amplitudes).
        carrier_powers = _quantize_unit_interval(act, self.spec.dac_bits)
        # Weight rings attenuate each carrier.
        weighted = carrier_powers * self._weight_transmission(wgt)
        # Broadband PD sums optical powers; normalise out responsivity.
        photocurrent = self.detector.accumulate(weighted)
        normalised = (
            (photocurrent - self.detector.dark_current_a)
            / self.detector.responsivity_a_per_w
        )
        # ADC quantises the accumulated value (full scale = vector length).
        full_scale = float(act.size) if act.size else 1.0
        levels = (1 << self.spec.adc_bits) - 1
        digitised = round(normalised / full_scale * levels) / levels
        return digitised * full_scale

    def dot_signed(self, activations: Sequence[float],
                   weights: Sequence[float]) -> float:
        """Signed dot product via four-rail decomposition.

        Splits both operands into positive/negative parts and combines
        four magnitude dot products:  (a+ - a-) . (w+ - w-).
        """
        import numpy as np

        act = np.asarray(activations, dtype=float)
        wgt = np.asarray(weights, dtype=float)
        if np.any(np.abs(act) > 1) or np.any(np.abs(wgt) > 1):
            raise ConfigurationError("operands must lie in [-1, 1]")
        a_pos, a_neg = np.clip(act, 0, 1), np.clip(-act, 0, 1)
        w_pos, w_neg = np.clip(wgt, 0, 1), np.clip(-wgt, 0, 1)
        return (
            self.dot(a_pos, w_pos)
            - self.dot(a_pos, w_neg)
            - self.dot(a_neg, w_pos)
            + self.dot(a_neg, w_neg)
        )

    def matvec(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """Matrix-vector product, chunked to the unit's vector length.

        Long rows are processed in vector-length chunks with electronic
        partial-sum accumulation, exactly the execution the tiler counts.
        """
        import numpy as np

        matrix = np.asarray(matrix, dtype=float)
        vector = np.asarray(vector, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != vector.shape[0]:
            raise ConfigurationError(
                f"matvec shapes incompatible: {matrix.shape} x {vector.shape}"
            )
        v = self.spec.vector_length
        n_chunks = math.ceil(matrix.shape[1] / v)
        result = np.zeros(matrix.shape[0])
        for row in range(matrix.shape[0]):
            accumulator = 0.0
            for chunk in range(n_chunks):
                lo, hi = chunk * v, min((chunk + 1) * v, matrix.shape[1])
                accumulator += self.dot_signed(
                    vector[lo:hi], matrix[row, lo:hi]
                )
            result[row] = accumulator
        return result

    # -- physical accounting ----------------------------------------------------

    @property
    def n_rings(self) -> int:
        """Rings in the unit: modulator bank + weight bank."""
        return 2 * self.spec.vector_length

    def energy_per_vector_op_j(self) -> float:
        """Electronics energy of one vector pass (DACs + ADC + drivers)."""
        v = self.spec.vector_length
        return (
            2.0 * v * ph.DAC_ENERGY_J_PER_CONVERSION
            + ph.ADC_ENERGY_J_PER_CONVERSION
            + v * ph.MODULATOR_DRIVER_ENERGY_J_PER_BIT * self.spec.dac_bits
        )

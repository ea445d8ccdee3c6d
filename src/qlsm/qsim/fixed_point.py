"""Signed fixed-point number format shared by the classical and simulated
quantum pipelines; both must round through the same routine to stay bit-exact."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import Overflow

DEFAULT_INT_BITS = 8
DEFAULT_FRAC_BITS = 24


@dataclass(frozen=True)
class FixedPointFormat:
    """Sign-magnitude format with int_bits integer and frac_bits fraction bits."""

    int_bits: int = DEFAULT_INT_BITS
    frac_bits: int = DEFAULT_FRAC_BITS

    def __post_init__(self):
        if self.int_bits < 1 or self.frac_bits < 0:
            raise ValueError("need int_bits >= 1 and frac_bits >= 0")
        if self.int_bits + self.frac_bits > 52:
            raise ValueError("format wider than a float64 mantissa is not supported")

    @property
    def resolution(self) -> float:
        return 2.0 ** (-self.frac_bits)

    @property
    def max_value(self) -> float:
        return 2.0**self.int_bits - 2.0 ** (-self.frac_bits)

    def quantize(self, values):
        """qlsm.reference's FixedPoint.encode(self, v).decode() vectorized;
        raises naming the format's range and listing any offending values."""
        scale = 2.0**self.frac_bits
        arr = np.asarray(values, dtype=float)
        if arr.size and not np.abs(arr).max() <= self.max_value:  # NaN fails too
            bad = ~(np.abs(arr) <= self.max_value)
            raise Overflow(
                f"values not representable at ({self.int_bits},{self.frac_bits}), whose "
                f"range is +-(2^{self.int_bits} - 2^-{self.frac_bits}) = "
                f"+-{self.max_value!r}; outside it: {np.asarray(values)[bad][:8].tolist()}"
            )
        out = np.rint(arr * scale)
        out /= scale
        out += 0.0  # normalize -0.0
        return out if out.shape else float(out)

    def quantize_up(self, value: float) -> float:
        """Smallest representable value >= value (for interval boundaries)."""
        if value > self.max_value:
            raise Overflow(f"{value!r} above the representable range")
        return math.ceil(value * 2.0**self.frac_bits) / 2.0**self.frac_bits

    def to_bits(self, values) -> np.ndarray:
        """Sign-magnitude bit images as integers, suitable for XOR registers."""
        arr = np.asarray(self.quantize(values), dtype=float)
        scaled = np.round(arr * 2.0**self.frac_bits).astype(np.int64)
        sign = (scaled < 0).astype(np.int64)
        return np.abs(scaled) | (sign << (self.int_bits + self.frac_bits))

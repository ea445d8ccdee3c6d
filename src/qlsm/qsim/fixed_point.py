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

    def encode(self, value: float) -> "FixedPoint":
        """Round-to-nearest-even representable value; overflow is an error."""
        if not math.isfinite(value) or abs(value) > self.max_value:
            raise Overflow(f"{value!r} outside [-{self.max_value}, {self.max_value}]")
        # max_value is on the grid, so rounding cannot leave the range.
        magnitude = int(np.round(value * 2.0**self.frac_bits))
        return FixedPoint(fmt=self, sign=int(magnitude < 0), magnitude=abs(magnitude))

    def quantize(self, values):
        """decode(encode(v)) vectorized; raises listing any offending values."""
        scale = 2.0**self.frac_bits
        if isinstance(values, float) and abs(values) <= self.max_value:
            return round(values * scale) / scale  # half to even; an int gives no -0.0
        arr = np.asarray(values, dtype=float)
        if arr.size and not np.abs(arr).max() <= self.max_value:  # NaN fails too
            bad = ~(np.abs(arr) <= self.max_value)
            raise Overflow(
                f"values not representable at ({self.int_bits},{self.frac_bits}), "
                f"widen the integer field: {np.asarray(values)[bad][:8].tolist()}"
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

    def from_bits(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=np.int64)
        sign_bit = bits >> (self.int_bits + self.frac_bits)
        magnitude = bits & ((1 << (self.int_bits + self.frac_bits)) - 1)
        out = np.where(sign_bit == 1, -magnitude, magnitude) / 2.0**self.frac_bits
        return out if out.shape else float(out)


@dataclass(frozen=True)
class FixedPoint:
    """One encoded number: sign bit plus magnitude in resolution units."""

    fmt: FixedPointFormat
    sign: int
    magnitude: int

    def decode(self) -> float:
        return (-1.0) ** self.sign * self.magnitude * self.fmt.resolution

    def integer_bits(self) -> tuple[int, ...]:
        """(a_1 .. a_c1) with a_i weighting 2^(i-1)."""
        whole = self.magnitude >> self.fmt.frac_bits
        return tuple((whole >> i) & 1 for i in range(self.fmt.int_bits))

    def fraction_bits(self) -> tuple[int, ...]:
        """(b_1 .. b_c2) with b_j weighting 2^-j."""
        frac = self.magnitude & ((1 << self.fmt.frac_bits) - 1)
        return tuple((frac >> (self.fmt.frac_bits - j)) & 1
                     for j in range(1, self.fmt.frac_bits + 1))

    @classmethod
    def from_bit_strings(cls, integer: tuple[int, ...], fraction: tuple[int, ...],
                         sign: int, fmt: FixedPointFormat | None = None) -> "FixedPoint":
        if fmt is None:
            fmt = FixedPointFormat(int_bits=len(integer), frac_bits=len(fraction))
        if len(integer) != fmt.int_bits or len(fraction) != fmt.frac_bits:
            raise ValueError("bit strings do not match the format")
        whole = sum(b << i for i, b in enumerate(integer))
        frac = sum(b << (fmt.frac_bits - j) for j, b in enumerate(fraction, start=1))
        magnitude = (whole << fmt.frac_bits) | frac
        return cls(fmt=fmt, sign=0 if magnitude == 0 else sign, magnitude=magnitude)

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlsm.errors import Overflow
from qlsm.qsim.fixed_point import FixedPointFormat
from qlsm.reference import FixedPoint, from_bits


class TestFormat:
    def test_max_value(self):
        assert FixedPointFormat(2, 2).max_value == 3.75
        assert FixedPointFormat(8, 24).max_value == 256.0 - 2.0**-24

    def test_resolution(self):
        assert FixedPointFormat(2, 3).resolution == 0.125

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError):
            FixedPointFormat(30, 30)


class TestEncodeDecode:
    def test_bit_string_example(self):
        fp = FixedPoint.from_bit_strings((1, 0), (1, 0), 0)
        assert fp.decode() == 1.5

    def test_all_zero_bits(self):
        fp = FixedPoint.from_bit_strings((0, 0), (0, 0), 1)
        assert fp.decode() == 0.0
        assert fp.sign == 0  # canonical zero

    def test_sign_bit(self):
        fp = FixedPoint.from_bit_strings((1, 1), (0, 1), 1)
        assert fp.decode() == -(3.0 + 0.25)

    def test_round_trip_bits(self):
        fp = FixedPoint.encode(FixedPointFormat(3, 4), -2.625)
        again = FixedPoint.from_bit_strings(fp.integer_bits(), fp.fraction_bits(),
                                            fp.sign, fp.fmt)
        assert again.decode() == fp.decode() == -2.625

    def test_round_to_nearest(self):
        fmt = FixedPointFormat(2, 2)
        assert FixedPoint.encode(fmt, 1.1).decode() == 1.0
        assert FixedPoint.encode(fmt, 1.2).decode() == 1.25
        assert FixedPoint.encode(fmt, -1.1).decode() == -1.0

    def test_overflow(self):
        with pytest.raises(Overflow):
            FixedPoint.encode(FixedPointFormat(2, 2), 4.0)
        with pytest.raises(Overflow):
            FixedPoint.encode(FixedPointFormat(2, 2), float("nan"))

    @given(st.integers(min_value=-(2**10 - 1), max_value=2**10 - 1))
    def test_identity_on_representable(self, raw):
        fmt = FixedPointFormat(4, 6)
        value = raw * fmt.resolution
        assert FixedPoint.encode(fmt, value).decode() == value

    @given(st.floats(min_value=-3.7, max_value=3.7, allow_nan=False))
    def test_quantize_matches_encode(self, value):
        fmt = FixedPointFormat(2, 6)
        assert fmt.quantize(value) == FixedPoint.encode(fmt, value).decode()

    def test_quantize_error_at_most_half_resolution(self):
        fmt = FixedPointFormat(4, 8)
        values = np.linspace(-10, 10, 1001)
        err = np.abs(np.asarray(fmt.quantize(values)) - values)
        assert err.max() <= fmt.resolution / 2 + 1e-15

    def test_quantize_up(self):
        fmt = FixedPointFormat(4, 2)
        assert fmt.quantize_up(1.01) == 1.25
        assert fmt.quantize_up(1.25) == 1.25


def _quantized_bits(quantize, value):
    """The bit image of quantize(value) as an int, or "Overflow"."""
    try:
        out = quantize(value)
    except Overflow:
        return "Overflow"
    return int(np.asarray(out, dtype=np.float64).reshape(-1)[0:1].view(np.int64)[0])


def _scalar_and_array(fmt, value):
    scalar = _quantized_bits(fmt.quantize, value)
    array = _quantized_bits(lambda v: fmt.quantize(np.array([v])), value)
    return scalar, array


DEFAULT = FixedPointFormat()
STEP = DEFAULT.resolution
EDGE_VALUES = (
    [(k + 0.5) * STEP for k in range(-6, 6)]  # ties at (k + 1/2) 2^-24, -0 ones too
    + [(k + 0.5) * STEP for k in (2**31 - 1, -(2**31), 2**30 + 7, 12345)]
    + [DEFAULT.max_value, -DEFAULT.max_value,
       float(np.nextafter(DEFAULT.max_value, np.inf)),
       -float(np.nextafter(DEFAULT.max_value, np.inf)),
       DEFAULT.max_value + STEP / 2, 256.0, -256.0,
       0.0, -0.0, -1e-300, 5e-324, -STEP / 4, 1.0, -1.0,
       float("nan"), float("inf"), float("-inf")])


class TestScalarPath:
    """quantize of a Python float returns a float that matches quantize of a
    one-element array bit for bit, sign of zero included, and raises on the
    same inputs."""

    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_edge_values_match_array_path(self, value):
        scalar, array = _scalar_and_array(DEFAULT, value)
        assert scalar == array
        if scalar != "Overflow":
            assert type(DEFAULT.quantize(value)) is float

    def test_edge_values_round_as_expected(self):
        assert DEFAULT.quantize(-STEP / 2) == 0.0  # tie to the even 0, as +0.0
        assert np.signbit(DEFAULT.quantize(-STEP / 2)) == np.False_
        assert DEFAULT.quantize(1.5 * STEP) == 2 * STEP
        assert DEFAULT.quantize(2.5 * STEP) == 2 * STEP
        for bad in (float("nan"), float("inf"), 256.0,
                    float(np.nextafter(DEFAULT.max_value, np.inf))):
            with pytest.raises(Overflow, match=r"not representable at \(8,24\), whose range "
                                               r"is \+-\(2\^8 - 2\^-24\)"):
                DEFAULT.quantize(bad)

    @given(st.integers(-(2**33), 2**33), st.sampled_from([0.0, 0.25, 0.5, 0.75]))
    def test_grid_and_ties_match_array_path(self, k, part):
        value = (k + part) * STEP
        assert _scalar_and_array(DEFAULT, value)[0] == _scalar_and_array(DEFAULT, value)[1]

    @given(st.floats(allow_nan=True, allow_infinity=True),
           st.integers(1, 20), st.integers(0, 32))
    def test_any_float_matches_array_path(self, value, int_bits, frac_bits):
        fmt = FixedPointFormat(int_bits, frac_bits)
        scalar, array = _scalar_and_array(fmt, value)
        assert scalar == array
        assert _quantized_bits(fmt.quantize, np.float64(value)) == array


class TestBitImages:
    def test_xor_involution(self):
        fmt = FixedPointFormat(4, 8)
        values = np.array([0.5, -3.25, 2.0, 0.0])
        bits = fmt.to_bits(values)
        reg = np.zeros(4, dtype=np.int64)
        reg ^= bits
        np.testing.assert_array_equal(np.asarray(from_bits(fmt, reg)), fmt.quantize(values))
        reg ^= bits
        assert not reg.any()

    def test_bits_round_trip_scalar(self):
        fmt = FixedPointFormat(3, 5)
        for value in (-1.34375, 0.0, 2.5):
            assert from_bits(fmt, fmt.to_bits(value)) == fmt.quantize(value)

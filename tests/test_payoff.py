import gc
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlsm.chain import discretize_brownian, discretize_gbm
from qlsm.payoff import (PayoffSpec, call_payoff, constant_payoff,
                         mean_abs_coordinate_sum, max_power_norm, put_payoff,
                         truncate, truncation_error_coefficient)
from basis_reference import table_payoff


def small_chain():
    return discretize_brownian(1, 2, 9, 3.0)


class TestOptionPayoffs:
    def test_put_at_the_money(self):
        chain = small_chain()
        pay = put_payoff(1.0)
        pts = np.array([[1.0]])
        assert pay.step_function(1, pts)[0] == 0.0

    def test_put_in_the_money(self):
        assert put_payoff(2.0).step_function(1, np.array([[0.5]]))[0] == 1.5

    def test_call(self):
        assert call_payoff(1.0).step_function(1, np.array([[3.0]]))[0] == 2.0

    def test_basket_put_and_call_on_a_2d_grid(self):
        # Both act on the equally weighted basket: max(0, +-(mean - K)).
        chain = discretize_brownian(2, 2, 3, 2.0)
        for t in (1, 2):
            mean = chain.grid(t).mean(axis=1)
            np.testing.assert_array_equal(put_payoff(0.5).values(chain, t),
                                          np.maximum(0.0, 0.5 - mean))
            np.testing.assert_array_equal(call_payoff(0.5).values(chain, t),
                                          np.maximum(0.0, mean - 0.5))
        assert put_payoff(0.5).value_at_start(chain) == 0.5

    def test_strike_positive(self):
        with pytest.raises(ValueError):
            put_payoff(0.0)
        with pytest.raises(ValueError):
            call_payoff(-1.0)

    def test_negative_payoff_rejected(self):
        chain = small_chain()
        bad = table_payoff({1: -np.ones(9), 2: np.ones(9)}, start_value=0.0)
        with pytest.raises(ValueError, match="negative"):
            bad.values(chain, 1)

    def test_values_cached(self):
        chain = small_chain()
        pay = put_payoff(1.0)
        assert pay.values(chain, 1) is pay.values(chain, 1)

    def test_cache_releases_collected_chains(self):
        pay = put_payoff(1.0)
        chain = small_chain()
        pay.values(chain, 1)
        pay.value_at_start(chain)
        assert len(pay._grid_cache) == 1
        del chain
        gc.collect()
        assert len(pay._grid_cache) == 0

    def test_start_value(self):
        chain = small_chain()
        assert put_payoff(1.5).value_at_start(chain) == pytest.approx(1.5)


class TestBounds:
    def test_grid_bound_exact(self):
        chain = small_chain()
        pay = put_payoff(1.0)
        lo = chain.grid(2)[:, 0].min()
        assert pay.grid_bound(chain) == pytest.approx(1.0 - lo)

    def test_declared_bound_validated(self):
        chain = small_chain()
        pay = PayoffSpec(step_function=put_payoff(1.0).step_function,
                         uniform_bound=0.5)
        with pytest.raises(ValueError, match="below the grid max"):
            pay.bound_for(chain)


class TestTruncate:
    def test_clamp_above(self):
        pay = truncate(constant_payoff(5.0), 3.0)
        assert pay.step_function(1, np.array([[0.0]]))[0] == 3.0

    def test_identity_region(self):
        pay = truncate(constant_payoff(2.0), 3.0)
        assert pay.step_function(1, np.array([[0.0]]))[0] == 2.0

    def test_start_value_untouched(self):
        chain = small_chain()
        pay = truncate(put_payoff(2.0), 0.5)
        assert pay.value_at_start(chain) == pytest.approx(2.0)
        assert pay.values(chain, 2).max() <= 0.5

    def test_new_bound(self):
        assert truncate(constant_payoff(5.0), 3.0).uniform_bound == 3.0
        assert truncate(constant_payoff(2.0), 3.0).uniform_bound == 2.0

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_idempotent(self, level):
        chain = small_chain()
        pay = put_payoff(2.0)
        once = truncate(pay, level)
        twice = truncate(once, level)
        for t in (1, 2):
            np.testing.assert_array_equal(once.values(chain, t),
                                          twice.values(chain, t))

    def test_no_change_when_bound_below_level(self):
        chain = small_chain()
        pay = put_payoff(1.0)
        level = pay.grid_bound(chain) + 1.0
        clamped = truncate(pay, level)
        for t in (1, 2):
            np.testing.assert_array_equal(pay.values(chain, t),
                                          clamped.values(chain, t))


class TestMomentQuantities:
    def test_zero_payoff_reduces_to_mean_abs_sum(self):
        chain = small_chain()
        zero = constant_payoff(0.0)
        got = truncation_error_coefficient(zero, chain, 4.0)
        assert got == pytest.approx(mean_abs_coordinate_sum(chain))

    def test_power_validation(self):
        chain = small_chain()
        with pytest.raises(ValueError):
            truncation_error_coefficient(constant_payoff(1.0), chain, 2.0)

    def test_brownian_mean_abs_term(self):
        # Continuous target sqrt(2 t / pi) at the last pre-horizon step.
        chain = discretize_brownian(1, 3, 65, 5.0)
        target = math.sqrt(2.0 * 2.0 / math.pi)
        assert mean_abs_coordinate_sum(chain) == pytest.approx(target, rel=0.02)

    def test_gbm_mean_abs_term(self):
        chain = discretize_gbm(1, 3, 129, 6.0)
        assert mean_abs_coordinate_sum(chain) == pytest.approx(1.0, rel=0.02)

    def test_single_step_has_empty_second_term(self):
        chain = discretize_brownian(1, 1, 9, 3.0)
        assert mean_abs_coordinate_sum(chain) == 0.0

    def test_moment_monotone_in_power_above_one(self):
        chain = small_chain()
        pay = constant_payoff(0.0)
        shifted = PayoffSpec(
            step_function=lambda t, pts: 1.0 + np.abs(pts[:, 0]))
        m3 = max_power_norm(shifted, chain, 3.0)
        m4 = max_power_norm(shifted, chain, 4.0)
        assert m4 >= m3

    def test_formula_assembly(self):
        chain = small_chain()
        pay = put_payoff(1.0)
        p = 4.0
        expected = (chain.horizon * math.sqrt(2.0 * max_power_norm(pay, chain, p) / (p - 2.0))
                    + mean_abs_coordinate_sum(chain))
        assert truncation_error_coefficient(pay, chain, p) == pytest.approx(expected)

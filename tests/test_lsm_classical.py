import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qlsm.lsm_classical as lsm_classical
from qlsm.basis import (KIND_GENERIC, BasisSpec, constant_basis, gbm_basis, hermite_basis,
                        monomial_basis)
from qlsm.chain import MarkovChainSpec, discretize_brownian, discretize_gbm, sample_paths
from qlsm.dp import exact_approximation_error, snell_envelope
from qlsm.errors import SingularGram
from qlsm.lsm_classical import (choose_sample_count, classical_cost_units,
                                run_classical_lsm)
from qlsm.payoff import put_payoff
from basis_reference import indicator_basis, table_payoff
from lsm_reference import run_classical_lsm_per_path, run_stop_times

UNIT_ROUNDOFF = 2.0**-53


def put_instance(horizon=3, grid_size=4, radius=2.0):
    chain = discretize_brownian(1, horizon, grid_size, radius)
    return chain, put_payoff(1.0)


class TestSampleCount:
    def test_frozen_values(self):
        assert choose_sample_count(1, 1.0, 6 / math.e**2) == 1
        assert choose_sample_count(2, 0.1, 0.05) == 1235

    def test_quadratic_growth_in_size(self):
        small = choose_sample_count(2, 0.1, 0.1)
        large = choose_sample_count(4, 0.1, 0.1)
        # Four-fold from the m^2 factor plus the slowly growing log term.
        assert 3.9 <= large / small <= 4.0 * math.log(96 / 0.1) / math.log(24 / 0.1) + 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_sample_count(1, 0.0, 0.1)
        with pytest.raises(ValueError):
            choose_sample_count(1, 0.1, 1.5)


class TestClassicalRuns:
    def test_scalar_basis_coefficient_is_mean(self):
        chain, payoff = put_instance()
        run = run_classical_lsm(chain, payoff, constant_basis(3), 500, seed=0)
        # With one constant function the normal equation is a plain average.
        z = payoff.values(chain, 3)[sample_paths(chain, 500, 0)[:, 2]]
        assert run.coefficients[2][0] == pytest.approx(z.mean())

    def test_single_path_chain_equals_oracle(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=3, initial_state=[0.0],
            grids=tuple(np.array([[float(t)]]) for t in (1, 2, 3)),
            initial_distribution=[1.0],
            transitions=(np.ones((1, 1)), np.ones((1, 1))))
        payoff = table_payoff({1: np.array([0.2]), 2: np.array([0.9]),
                               3: np.array([0.4])}, start_value=0.1)
        table = snell_envelope(chain, payoff)
        run = run_classical_lsm(chain, payoff, constant_basis(3), 50, seed=1)
        assert run.estimate == pytest.approx(table.value0, abs=1e-12)

    def test_put_close_to_oracle(self):
        chain, payoff = put_instance()
        table = snell_envelope(chain, payoff)
        basis = monomial_basis(1, 2, 3)
        run = run_classical_lsm(chain, payoff, basis, 10_000, seed=3)
        approx = max(exact_approximation_error(chain, basis, t, table.continuation[t])
                     for t in (1, 2))
        assert abs(run.estimate - table.value0) <= 0.1 + approx

    def test_recursion_replay_bit_exact(self):
        # The per-path recursion under the stored coefficients stops where the
        # run did: it collects the run's price bit for bit, and its stop
        # times are those the per-path reference recorded while fitting.
        chain, payoff = put_instance()
        basis = monomial_basis(1, 1, 3)
        run = run_classical_lsm(chain, payoff, basis, 2000, seed=4)
        idx, taus = run_stop_times(run)
        per_step = np.column_stack([payoff.values(chain, t)[idx[:, t - 1]] for t in (1, 2, 3)])
        stopped = per_step[np.arange(len(idx)), taus[:, 0] - 1]
        assert max(payoff.value_at_start(chain), float(stopped.mean())) == run.estimate
        reference = run_classical_lsm_per_path(chain, payoff, basis, 2000, 4)
        np.testing.assert_array_equal(taus, reference.stopping_times)

    def test_final_time_is_horizon(self):
        chain, payoff = put_instance()
        run = run_classical_lsm(chain, payoff, constant_basis(3), 100, seed=5)
        _, taus = run_stop_times(run)
        assert (taus[:, 2] == 3).all()
        assert ((taus[:, 0] >= 1) & (taus[:, 0] <= 3)).all()

    def test_seed_determinism(self):
        chain, payoff = put_instance()
        a = run_classical_lsm(chain, payoff, constant_basis(3), 300, seed=6)
        b = run_classical_lsm(chain, payoff, constant_basis(3), 300, seed=6)
        assert a.estimate == b.estimate

    def test_too_few_paths(self):
        chain, payoff = put_instance()
        with pytest.raises(ValueError):
            run_classical_lsm(chain, payoff, monomial_basis(1, 2, 3), 2, seed=0)

    def test_singular_gram(self):
        chain, payoff = put_instance(grid_size=2)
        basis = monomial_basis(1, 2, 3)  # three functions on two grid points
        with pytest.raises(SingularGram):
            run_classical_lsm(chain, payoff, basis, 500, seed=0)

    def test_json_round_trip_fields(self):
        import json

        chain, payoff = put_instance()
        run = run_classical_lsm(chain, payoff, constant_basis(3), 200, seed=7)
        doc = json.loads(run.to_json())
        assert doc["path_count"] == 200
        assert doc["estimate"] == run.estimate
        assert doc["sample_draws"] == 200 * 3


class TestFixedGramVariant:
    def test_hermite_identity_gram_close_to_sampled(self):
        chain = discretize_brownian(1, 3, 17, 4.0)
        payoff = put_payoff(1.0)
        basis = hermite_basis(1, 2, 3, 50.0)
        sampled = run_classical_lsm(chain, payoff, basis, 60_000, seed=8)
        fixed = run_classical_lsm(chain, payoff, basis, 60_000, seed=8,
                                  gram_mode="closed_form")
        assert abs(sampled.estimate - fixed.estimate) <= 0.05
        np.testing.assert_array_equal(fixed.gram_matrices[1], np.eye(basis.size))

    def test_gbm_solves_against_vandermonde(self):
        chain = discretize_gbm(1, 2, 33, 5.0)
        payoff = put_payoff(1.0)
        basis = gbm_basis(1, 1, 2, 1e9)
        run = run_classical_lsm(chain, payoff, basis, 5000, seed=9, gram_mode="closed_form")
        expected_gram = np.array([[1.0, 1.0], [1.0, math.e]])
        np.testing.assert_allclose(run.gram_matrices[1], expected_gram)
        np.testing.assert_allclose(run.gram_matrices[1] @ run.coefficients[1],
                                   run.targets[1], atol=1e-12)

    def test_constant_basis_matches_generic(self):
        chain, payoff = put_instance()
        basis = constant_basis(3)
        a = run_classical_lsm(chain, payoff, basis, 1000, seed=10)
        # With the constant function the sampled Gram is exactly [[1]].
        np.testing.assert_allclose(a.gram_matrices[1], [[1.0]])

    def test_generic_kind_rejected(self):
        chain, payoff = put_instance()
        with pytest.raises(ValueError, match="closed-form"):
            run_classical_lsm(chain, payoff, monomial_basis(1, 1, 3), 100, seed=0,
                              gram_mode="closed_form")


class TestStatisticalBehaviour:
    def test_full_span_estimator_concentrates(self):
        chain, payoff = put_instance(grid_size=3)
        table = snell_envelope(chain, payoff)
        basis = indicator_basis(chain)
        estimates = [run_classical_lsm(chain, payoff, basis, 100_000, seed=s).estimate
                     for s in (11, 12, 13)]
        bias = np.mean(estimates) - table.value0
        spread = np.std(estimates) / math.sqrt(3)
        assert abs(bias) <= max(3 * spread, 5e-3)

    def test_failure_rate_below_analytic_budget(self):
        chain, payoff = put_instance(grid_size=3)
        table = snell_envelope(chain, payoff)
        basis = constant_basis(3)
        m, horizon = 1, 3
        bound_r = payoff.bound_for(chain)
        eps = 0.05
        n_paths = 600  # makes the failure budget non-trivial
        budget = min(1.0, 6 * m * m * math.exp(-2 * n_paths * eps * eps / (m * m)))
        approx = max(exact_approximation_error(chain, basis, t, table.continuation[t])
                     for t in (1, 2))
        sigma_min = 1.0  # constant basis Gram is exactly [[1]]
        ell = 1.0
        rhs = 5.0**horizon * (4 * eps * m * bound_r * ell**2 / sigma_min**2 + approx)
        trials = 60
        fails = sum(
            abs(run_classical_lsm(chain, payoff, basis, n_paths, seed=100 + s).estimate
                - table.value0) > rhs
            for s in range(trials))
        noise = 3 * math.sqrt(max(budget * (1 - budget), 0.25 / trials) / trials)
        assert fails / trials <= budget + noise

    def test_cost_accounting(self):
        chain, payoff = put_instance()
        run = run_classical_lsm(chain, payoff, constant_basis(3), 100, seed=14)
        units = classical_cost_units(run)
        assert units == run.sample_draws + run.payoff_queries + run.basis_queries


class TestGramModeValidation:
    @pytest.mark.parametrize("horizon", [1, 3])
    def test_unknown_mode_rejected_before_sampling(self, monkeypatch, horizon):
        chain, payoff = put_instance(horizon=horizon)

        def no_sampling(*args, **kwargs):
            raise AssertionError("paths sampled before the mode was checked")

        monkeypatch.setattr(lsm_classical, "sample_paths", no_sampling)
        with pytest.raises(ValueError, match="unknown gram_mode 'bogus'"):
            run_classical_lsm(chain, payoff, constant_basis(horizon), 100, seed=0,
                              gram_mode="bogus")


def random_chain(rng, horizon, n_states):
    grids = tuple(np.sort(rng.uniform(-1, 1, size=(n_states, 1)), axis=0)
                  for _ in range(horizon))
    return MarkovChainSpec(
        dimension=1, horizon=horizon, initial_state=[0.0], grids=grids,
        initial_distribution=rng.dirichlet(np.ones(n_states)),
        transitions=tuple(np.stack([rng.dirichlet(np.ones(n_states))
                                    for _ in range(n_states)])
                          for _ in range(horizon - 1)))


def mixed_basis(rng, horizon, size):
    """Per step, random linear combinations of the monomials 1, x, ..., x^(size-1)."""
    monomials = monomial_basis(1, size - 1, horizon)
    mix = {t: rng.normal(size=(size, size)) for t in range(1, horizon + 1)}
    return BasisSpec(kind=KIND_GENERIC, size=size, horizon=horizon,
                     evaluator=lambda t, pts: monomials.evaluate(t, pts) @ mix[int(t)])


def exact_mean(factors) -> Fraction:
    """Exact mean over paths of the product of per-path float factors."""
    total = Fraction(0)
    for row in zip(*factors):
        term = Fraction(1)
        for x in row:
            term *= Fraction(float(x))
        total += term
    return total / len(factors[0])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 4), n_states=st.integers(1, 5),
       size=st.integers(1, 3), path_count=st.integers(3, 40), closed_form=st.booleans())
def test_regression_matches_per_path_reference(seed, horizon, n_states, size, path_count,
                                               closed_form):
    # Random chains, payoff tables and basis coefficients; in closed-form mode
    # a Hermite basis (identity Gram) with a random cube zeroing some states.
    rng = np.random.Generator(np.random.Philox(seed))
    chain = random_chain(rng, horizon, n_states)
    payoff = table_payoff({t: rng.uniform(0, 1, size=n_states) for t in range(1, horizon + 1)},
                          start_value=float(rng.uniform(0, 0.5)))
    if closed_form:
        basis, mode = hermite_basis(1, size - 1, horizon, float(rng.uniform(0.2, 1.5))), \
            "closed_form"
    else:
        basis, mode = mixed_basis(rng, horizon, size), "sampled"
    try:
        reference = run_classical_lsm_per_path(chain, payoff, basis, path_count, seed, mode)
    except SingularGram:
        with pytest.raises(SingularGram):
            run_classical_lsm(chain, payoff, basis, path_count, seed, gram_mode=mode)
        return
    run = run_classical_lsm(chain, payoff, basis, path_count, seed, gram_mode=mode)
    idx, taus = run_stop_times(run)
    np.testing.assert_array_equal(idx, reference.path_indices)
    np.testing.assert_array_equal(taus, reference.stopping_times)
    assert run.estimate == reference.estimate

    for t in range(1, horizon):
        rows = basis.evaluate(t, chain.grid(t))[idx[:, t - 1]]
        later = np.array([payoff.values(chain, tau)[idx[i, tau - 1]]
                          for i, tau in enumerate(taus[:, t])])
        gram, rhs = run.gram_matrices[t], run.targets[t]
        diag = [exact_mean([rows[:, j], rows[:, j]]) for j in range(size)]
        if mode == "sampled":
            np.testing.assert_array_equal(gram, gram.T)
            # B^T diag(counts) B / N: one rounding per product and per count
            # scaling, n - 1 in the sum over states, one in the division;
            # every term is bounded by the Cauchy-Schwarz scale.
            for j in range(size):
                for k in range(size):
                    error = abs(Fraction(gram[j, k]) - exact_mean([rows[:, j], rows[:, k]]))
                    scale = math.sqrt(diag[j] * diag[k])
                    assert error <= (n_states + 3) * UNIT_ROUNDOFF * scale, (t, j, k)
        else:
            np.testing.assert_array_equal(gram, reference.gram_matrices[t])
        # B^T s / N with s the per-state sums, added in path order: at most
        # N - 1 roundings in a state's sum, n in the product, one in the division.
        z_square = exact_mean([later, later])
        for j in range(size):
            error = abs(Fraction(rhs[j]) - exact_mean([rows[:, j], later]))
            scale = math.sqrt(diag[j] * z_square)
            assert error <= (path_count + n_states + 1) * UNIT_ROUNDOFF * scale, (t, j)

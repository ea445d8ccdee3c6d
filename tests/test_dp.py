import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlsm.basis import constant_basis, gram_matrix, monomial_basis, solve_gram
from qlsm.chain import MarkovChainSpec, _product_chain, enumerate_paths
from qlsm.dp import (CoefficientRule, continuation_values,
                     exact_approximation_error, snell_envelope,
                     stop_masses)
from qlsm.errors import CapExceeded, SingularGram
from qlsm.payoff import constant_payoff
from qlsm.reference import (optimal_stopping_times, path_stop_times, payoff_at_times,
                            table_payoff, weighted_l2_norm)
from basis_reference import indicator_basis


def random_chain(rng, horizon, n_states):
    grids = tuple(np.sort(rng.uniform(-1, 1, size=(n_states, 1)), axis=0)
                  for _ in range(horizon))
    init = rng.dirichlet(np.ones(n_states))
    mats = tuple(np.stack([rng.dirichlet(np.ones(n_states))
                           for _ in range(n_states)])
                 for _ in range(horizon - 1))
    return MarkovChainSpec(dimension=1, horizon=horizon, initial_state=[0.0],
                           grids=grids, initial_distribution=init,
                           transitions=mats)


def random_payoff(rng, chain):
    tables = {t: rng.uniform(0, 1, size=chain.n_states(t))
              for t in range(1, chain.horizon + 1)}
    return table_payoff(tables, start_value=float(rng.uniform(0, 1)))


def brute_force_value(chain, payoff):
    """Max expected payoff over every per-step stop/continue decision table,
    evaluated by backward substitution; independent of the module's argmax."""
    T = chain.horizon
    z = {t: payoff.values(chain, t) for t in range(1, T + 1)}
    best = -np.inf
    step_patterns = [list(itertools.product([False, True],
                                            repeat=chain.n_states(t)))
                     for t in range(1, T)]
    for pattern in itertools.product(*step_patterns):
        values = z[T].copy()
        for t in range(T - 1, 0, -1):
            cont = chain.transition(t) @ values
            stop = np.array(pattern[t - 1])
            values = np.where(stop, z[t], cont)
        cont0 = float(chain.initial_distribution @ values)
        best = max(best, cont0)
    return max(best, payoff.value_at_start(chain))


class TestSnellEnvelope:
    def test_one_step_formula(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=1, initial_state=[0.0],
            grids=(np.array([[0.0], [1.0]]),),
            initial_distribution=[0.5, 0.5], transitions=())
        payoff = table_payoff({1: np.array([1.0, 3.0])}, start_value=1.0)
        table = snell_envelope(chain, payoff)
        assert table.value0 == pytest.approx(2.0)

    def test_constant_payoff_stops_immediately(self):
        rng = np.random.Generator(np.random.Philox(0))
        chain = random_chain(rng, 3, 3)
        table = snell_envelope(chain, constant_payoff(0.7))
        assert table.value0 == pytest.approx(0.7)
        ens = enumerate_paths(chain)
        times = optimal_stopping_times(table, ens)
        assert (times[:, 0] == 0).all()

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(42))
        for _ in range(8):
            chain = random_chain(rng, 3, 3)
            payoff = random_payoff(rng, chain)
            table = snell_envelope(chain, payoff)
            assert table.value0 == pytest.approx(brute_force_value(chain, payoff),
                                                 abs=1e-12)

    def test_cap(self):
        rng = np.random.Generator(np.random.Philox(1))
        chain = random_chain(rng, 3, 3)
        with pytest.raises(CapExceeded):
            snell_envelope(chain, constant_payoff(1.0), cap=4)


class TestStoppingTimes:
    def test_final_time_always_horizon(self):
        rng = np.random.Generator(np.random.Philox(2))
        chain = random_chain(rng, 4, 3)
        table = snell_envelope(chain, random_payoff(rng, chain))
        times = optimal_stopping_times(table, enumerate_paths(chain))
        assert (times[:, 4] == 4).all()
        assert (times[:, 0] <= times[:, 1]).all() or (times[:, 0] == 0).all()

    def test_increasing_payoff_waits(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=3, initial_state=[0.0],
            grids=tuple(np.array([[0.0]]) for _ in range(3)),
            initial_distribution=[1.0],
            transitions=(np.ones((1, 1)), np.ones((1, 1))))
        payoff = table_payoff({1: np.array([1.0]), 2: np.array([2.0]),
                               3: np.array([3.0])}, start_value=0.5)
        table = snell_envelope(chain, payoff)
        times = optimal_stopping_times(table, enumerate_paths(chain))
        assert times[0, 0] == 3

    def test_tie_stops(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=2, initial_state=[0.0],
            grids=(np.array([[0.0]]), np.array([[0.0]])),
            initial_distribution=[1.0], transitions=(np.ones((1, 1)),))
        payoff = table_payoff({1: np.array([0.4]), 2: np.array([0.4])}, 0.4)
        table = snell_envelope(chain, payoff)
        times = optimal_stopping_times(table, enumerate_paths(chain))
        assert times[0, 1] == 1
        assert times[0, 0] == 0

    def test_collected_payoff_recovers_value(self):
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(5):
            chain = random_chain(rng, 3, 4)
            payoff = random_payoff(rng, chain)
            table = snell_envelope(chain, payoff)
            ens = enumerate_paths(chain)
            times = optimal_stopping_times(table, ens)
            collected = payoff_at_times(chain, payoff, ens, times[:, 0])
            got = float(np.sum(ens.probabilities * collected))
            assert got == pytest.approx(table.value0, abs=1e-12)
            for start in (0, 1):
                # Path-by-path reference: same arithmetic, so equal exactly.
                reference = [payoff.value_at_start(chain) if tau == 0 else
                             payoff.values(chain, tau)[ens.indices[i, tau - 1]]
                             for i, tau in enumerate(times[:, start])]
                np.testing.assert_array_equal(
                    payoff_at_times(chain, payoff, ens, times[:, start]), reference)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 4),
       n_states=st.integers(1, 4))
def test_path_stop_times_matches_path_loop(seed, horizon, n_states):
    # Payoffs and scores on a quarter grid, so payoff == score is common and
    # every tie must stop.
    rng = np.random.Generator(np.random.Philox(seed))
    chain = random_chain(rng, horizon, n_states)
    payoff = table_payoff({t: rng.integers(0, 4, size=n_states) / 4.0
                           for t in range(1, horizon + 1)}, 0.0)
    rule = CoefficientRule(monomial_basis(1, 1, horizon),
                           {t: np.array([rng.integers(0, 4) / 4.0, 0.0])
                            for t in range(1, horizon)})
    ens = enumerate_paths(chain)
    z = {t: payoff.values(chain, t) for t in range(1, horizon + 1)}
    score = {t: rule.scores(chain, t) for t in range(1, horizon)}
    seen = []

    def stop_mask(t, later):
        seen.append(t)
        np.testing.assert_array_equal(later, taus_loop[:, t])
        return rule.stop_mask(chain, payoff, t)

    taus_loop = np.empty((len(ens), horizon), dtype=np.int64)
    for i in range(len(ens)):
        for t in range(1, horizon + 1):
            tau = horizon
            for u in range(horizon - 1, t - 1, -1):
                state = ens.indices[i, u - 1]
                if z[u][state] >= score[u][state]:
                    tau = u
            taus_loop[i, t - 1] = tau
    np.testing.assert_array_equal(path_stop_times(chain, ens.indices, stop_mask), taus_loop)
    assert seen == list(range(horizon - 1, 0, -1))


def sparse_row(rng, n):
    """A probability row over n states with some entries zero."""
    p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
    if not p.any():
        p[rng.integers(n)] = 1.0
    return p / p.sum()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 4), n_states=st.integers(1, 4),
       dim=st.sampled_from([1, 2]), stop_at_start=st.booleans())
def test_stop_masses_match_path_aggregation(seed, horizon, n_states, dim, stop_at_start):
    # Payoffs on a 0.1 grid, so payoff == continuation is common; a start
    # payoff of 1 is at least every continuation, so the start stops. dim 2 is
    # the product of two copies of the 1-d chain, stored as its factor.
    rng = np.random.Generator(np.random.Philox(seed))
    grids = [np.sort(rng.uniform(-1, 1, size=n_states)) for _ in range(horizon)]
    mats = [np.stack([sparse_row(rng, n_states) for _ in range(n_states)])
            for _ in range(horizon - 1)]
    chain = _product_chain(dim, grids, sparse_row(rng, n_states), mats, np.zeros(dim), None)
    start = 1.0 if stop_at_start else rng.integers(0, 11) / 10.0
    payoff = table_payoff({t: rng.integers(0, 11, size=chain.n_states(t)) / 10.0
                           for t in range(1, horizon + 1)}, start)
    table = snell_envelope(chain, payoff)
    got = stop_masses(table)

    ens = enumerate_paths(chain)
    tau = optimal_stopping_times(table, ens)[:, 0]
    collected = payoff_at_times(chain, payoff, ens, tau)
    for t in range(horizon + 1):
        at_t = tau == t
        states = np.zeros(len(ens), dtype=np.int64) if t == 0 else ens.state_indices_at(t)
        expected = np.bincount(states[at_t], weights=ens.probabilities[at_t],
                               minlength=got[t].size)
        np.testing.assert_allclose(got[t], expected, rtol=0, atol=1e-12)
    law = np.bincount(tau, weights=ens.probabilities, minlength=horizon + 1)
    np.testing.assert_allclose([p.sum() for p in got], law, rtol=0, atol=1e-12)
    expected_collected = sum(p @ payoff.values(chain, t) for t, p in enumerate(got))
    assert abs(expected_collected - table.value0) <= 1e-12
    assert abs(expected_collected - float(ens.probabilities @ collected)) <= 1e-12
    if stop_at_start:
        assert got[0][0] == 1.0


class TestContinuationUnderRule:
    def test_rule_matches_path_enumeration(self):
        # Independent oracle: stop times evaluated path by path from step 2 on,
        # payoffs collected, then conditional means grouped by the step-1 state.
        rng = np.random.Generator(np.random.Philox(4))
        chain = random_chain(rng, 3, 3)
        payoff = random_payoff(rng, chain)
        basis = monomial_basis(1, 1, 3)
        coeffs = {1: rng.normal(size=2), 2: rng.normal(size=2)}
        rule = CoefficientRule(basis=basis, coefficients=coeffs)

        ens = enumerate_paths(chain)
        z = {t: payoff.values(chain, t) for t in (1, 2, 3)}
        tau = np.full(len(ens), 3, dtype=int)
        scores2 = basis.evaluate(2, chain.grid(2)) @ coeffs[2]
        stop2 = z[2][ens.state_indices_at(2)] >= scores2[ens.state_indices_at(2)]
        tau = np.where(stop2, 2, tau)
        collected = np.array([z[tau[i]][ens.state_indices_at(tau[i])[i]]
                              for i in range(len(ens))])
        got = continuation_values(chain, payoff, rule, 1)
        for state in range(chain.n_states(1)):
            on_state = ens.state_indices_at(1) == state
            mass = ens.probabilities[on_state]
            expected = float(np.sum(mass * collected[on_state]) / mass.sum())
            assert got[state] == pytest.approx(expected, abs=1e-12)


class TestApproximationError:
    def test_full_span_zero_error(self):
        rng = np.random.Generator(np.random.Philox(6))
        chain = random_chain(rng, 3, 3)
        payoff = random_payoff(rng, chain)
        err = exact_approximation_error(chain, indicator_basis(chain), 1,
                                        snell_envelope(chain, payoff).continuation[1])
        assert err == pytest.approx(0.0, abs=1e-10)

    def test_constant_basis_constant_target(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=2, initial_state=[0.0],
            grids=(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])),
            initial_distribution=[0.5, 0.5],
            transitions=(np.full((2, 2), 0.5),))
        payoff = constant_payoff(0.3)
        err = exact_approximation_error(chain, constant_basis(2), 1,
                                        snell_envelope(chain, payoff).continuation[1])
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_residual_orthogonal_to_span(self):
        rng = np.random.Generator(np.random.Philox(7))
        chain = random_chain(rng, 3, 4)
        payoff = random_payoff(rng, chain)
        basis = monomial_basis(1, 1, 3)
        target = snell_envelope(chain, payoff).continuation[2]
        err = exact_approximation_error(chain, basis, 2, target)
        # Residual norm cannot exceed the norm of the target itself.
        assert 0.0 <= err <= weighted_l2_norm(chain, 2, target) + 1e-12

    def test_singular_gram_reported(self):
        rng = np.random.Generator(np.random.Philox(8))
        chain = random_chain(rng, 2, 2)
        payoff = random_payoff(rng, chain)
        basis = monomial_basis(1, 3, 2)  # four functions on two points
        with pytest.raises(SingularGram):
            exact_approximation_error(chain, basis, 1,
                                      snell_envelope(chain, payoff).continuation[1])

    def test_singular_verdict_is_solve_gram_verdict(self):
        # Two step-1 states 1.5e-6 apart put the degree-1 Gram's sigma_min
        # near 5.6e-13: not singular by a 1e-13 * max|A_ij| test, singular by
        # solve_gram's 1e-12 * max(1, sigma_max). The approximation error
        # gives solve_gram's verdict.
        chain = MarkovChainSpec(
            dimension=1, horizon=2, initial_state=[0.0],
            grids=(np.array([[0.0], [1.5e-6]]), np.array([[0.0], [1.0]])),
            initial_distribution=[0.5, 0.5], transitions=(np.full((2, 2), 0.5),))
        basis = monomial_basis(1, 1, 2)
        gram = gram_matrix(basis, chain, 1)
        smin = np.linalg.svd(gram, compute_uv=False)[-1]
        assert 1e-13 * np.abs(gram).max() < smin <= 1e-12
        with pytest.raises(SingularGram):
            solve_gram(gram, np.ones(2), 1)
        with pytest.raises(SingularGram):
            exact_approximation_error(chain, basis, 1,
                                      snell_envelope(chain, constant_payoff(0.3)).continuation[1])


class TestErrorPropagation:
    def test_both_inequalities_single_instance(self):
        rng = np.random.Generator(np.random.Philox(9))
        chain = random_chain(rng, 4, 3)
        payoff = random_payoff(rng, chain)
        basis = monomial_basis(1, 1, 4)
        coeffs = {t: rng.normal(scale=0.6, size=2) for t in (1, 2, 3)}
        rule = CoefficientRule(basis=basis, coefficients=coeffs)
        fitted_gap = {}
        for k in (1, 2, 3):
            approx = basis.evaluate(k, chain.grid(k)) @ coeffs[k]
            target = continuation_values(chain, payoff, rule, k)
            fitted_gap[k] = weighted_l2_norm(chain, k, approx - target)
        table = snell_envelope(chain, payoff)
        for t in (1, 2, 3):
            exact_target = table.continuation[t]
            approx = basis.evaluate(t, chain.grid(t)) @ coeffs[t]
            lhs1 = weighted_l2_norm(chain, t, approx - exact_target)
            assert lhs1 <= 2 * sum(fitted_gap[k] for k in range(t, 4)) + 1e-12
            lhs2 = weighted_l2_norm(
                chain, t,
                continuation_values(chain, payoff, rule, t) - exact_target)
            assert lhs2 <= 2 * sum(fitted_gap[k] for k in range(t + 1, 4)) + 1e-12

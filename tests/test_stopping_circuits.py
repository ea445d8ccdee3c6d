import numpy as np
import pytest

from qmc_reference import exact_moments
from qlsm.basis import monomial_basis
from qlsm.chain import MarkovChainSpec, discretize_brownian, enumerate_paths
from qlsm.errors import Overflow, QlsmError
from qlsm.payoff import put_payoff
from qlsm.qsim import FixedPointFormat, QueryLedger
from qlsm.qsim.qmc import qmontecarlo
from qlsm.reference import (composed, product_register, prepare, step,
                            stopped_payoff, stopped_payoff_values, table_payoff)
from qlsm.stopping_circuits import StoppingCircuits


def two_state_chain(horizon=3, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    grids = tuple(np.sort(rng.uniform(0.1, 2.0, size=(2, 1)), axis=0)
                  for _ in range(horizon))
    init = rng.dirichlet([1.0, 1.0])
    mats = tuple(np.stack([rng.dirichlet([1, 1]), rng.dirichlet([1, 1])])
                 for _ in range(horizon - 1))
    return MarkovChainSpec(dimension=1, horizon=horizon, initial_state=[1.0],
                           grids=grids, initial_distribution=init,
                           transitions=mats)


def circuits_for(chain, seed=1, basis_degree=1):
    rng = np.random.Generator(np.random.Philox(seed))
    basis = monomial_basis(1, basis_degree, chain.horizon)
    coeffs = {t: rng.normal(scale=0.5, size=basis.size)
              for t in range(1, chain.horizon)}
    return StoppingCircuits(chain=chain, payoff=put_payoff(1.5), basis=basis,
                            coefficients=coeffs)


def on_paths(circ, table, t):
    """A per-state step-t table gathered along the enumerated paths."""
    return table[enumerate_paths(circ.chain).state_indices_at(t)]


def reference_recursion(circ, paths):
    """Independent per-path replay of the stop/continue comparisons."""
    T = circ.chain.horizon
    n = len(paths)
    tau = {T: np.full(n, T, dtype=np.int64)}
    for t in range(T - 1, 0, -1):
        z = on_paths(circ, circ.payoff_table(t), t)
        score = on_paths(circ, circ.score_table(t), t)
        tau[t] = np.where(z >= score, t, tau[t + 1])
    return tau


class TestBackwardStep:
    def test_horizon_step_writes_constant(self):
        chain = two_state_chain()
        circ = circuits_for(chain)
        state = prepare(circ.sampling)
        step(circ, state, 3)
        np.testing.assert_array_equal(state.register_values("stop_time[3]"), 3)

    def test_tie_stops(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=2, initial_state=[0.0],
            grids=(np.array([[1.0]]), np.array([[1.0]])),
            initial_distribution=[1.0], transitions=(np.ones((1, 1)),))
        pay = table_payoff({1: np.array([0.5]), 2: np.array([0.9])}, 0.0)
        basis = monomial_basis(1, 0, 2)
        circ = StoppingCircuits(chain=chain, payoff=pay, basis=basis,
                                coefficients={1: np.array([0.5])})
        state = prepare(circ.sampling)
        step(circ, state, 2)
        step(circ, state, 1)
        assert state.register_values("stop_time[1]")[0] == 1  # payoff == score

    def test_missing_predecessor(self):
        chain = two_state_chain()
        circ = circuits_for(chain)
        state = prepare(circ.sampling)
        with pytest.raises(QlsmError, match="missing"):
            step(circ, state, 2)

    def test_missing_coefficients(self):
        chain = two_state_chain()
        circ = StoppingCircuits(chain=chain, payoff=put_payoff(1.5),
                                basis=monomial_basis(1, 1, 3), coefficients={})
        state = prepare(circ.sampling)
        step(circ, state, 3)
        with pytest.raises(QlsmError, match="no coefficient"):
            step(circ, state, 2)

    def test_matches_reference_recursion(self):
        chain = two_state_chain(seed=5)
        circ = circuits_for(chain, seed=6)
        state = prepare(circ.sampling)
        for t in range(3, 0, -1):
            step(circ, state, t)
        expected = reference_recursion(circ, enumerate_paths(circ.chain))
        for t in (1, 2, 3):
            np.testing.assert_array_equal(state.register_values(f"stop_time[{t}]"),
                                          expected[t])

    def test_circuits_on_other_coefficients_score_their_own(self):
        # The twin shares the tables that read no coefficient and scores its
        # own coefficients, whichever of the two builds a table first.
        chain = two_state_chain(seed=2)
        circ = circuits_for(chain, seed=3)
        twin = circ.on({t: -c for t, c in circ.coefficients.items()})
        assert twin.basis_table(1) is circ.basis_table(1)
        assert circ.payoff_table(2) is twin.payoff_table(2)
        for t in (1, 2):
            fresh = StoppingCircuits(chain=chain, payoff=circ.payoff, basis=circ.basis,
                                     coefficients=twin.coefficients)
            np.testing.assert_array_equal(twin.score_table(t), fresh.score_table(t))
            assert not np.array_equal(twin.score_table(t), circ.score_table(t))


class TestStoppedPayoff:
    def test_first_step_uses_unit_factor(self):
        chain = two_state_chain(seed=2)
        circ = circuits_for(chain, seed=3)
        state = prepare(circ.sampling)
        for t in range(3, 0, -1):
            step(circ, state, t)
        stopped_payoff(circ, state, 1, 0)
        tau = state.register_values("stop_time[1]").astype(int)
        z = {t: on_paths(circ, circ.payoff_table(t), t) for t in (1, 2, 3)}
        expected = np.array([z[tau[i]][i] for i in range(len(tau))])
        np.testing.assert_array_equal(
            state.register_values(product_register(1, 0)),
            np.asarray(circ.fmt.quantize(expected)))

    def test_all_stopped_now_gives_plain_product(self):
        chain = two_state_chain(seed=7)
        basis = monomial_basis(1, 1, 3)
        # Huge negative scores: payoff >= score everywhere, stop immediately.
        circ = StoppingCircuits(chain=chain, payoff=put_payoff(1.5), basis=basis,
                                coefficients={1: np.array([-50.0, 0.0]),
                                              2: np.array([-50.0, 0.0])})
        state = prepare(circ.sampling)
        step(circ, state, 3)
        step(circ, state, 2)
        stopped_payoff(circ, state, 2, 1)
        z2 = on_paths(circ, circ.payoff_table(2), 2)
        factor = on_paths(circ, circ.basis_table(1), 1)[:, 1]
        np.testing.assert_array_equal(
            state.register_values(product_register(2, 1)),
            np.asarray(circ.fmt.quantize(z2 * factor)))

    def test_member_range(self):
        chain = two_state_chain()
        circ = circuits_for(chain)
        state = prepare(circ.sampling)
        step(circ, state, 3)
        with pytest.raises(QlsmError, match="out of range"):
            stopped_payoff(circ, state, 3, 99)

    def test_variable_rounding_shift_is_checked(self):
        # At 4 fraction bits rounding payoff * basis factor moves this
        # stopped-payoff mean by 0.019, past epsilon/100: the variable hands
        # qmontecarlo the unrounded products, so its check sees the shift.
        chain = two_state_chain(seed=1)
        coarse = FixedPointFormat(8, 4)
        circ = StoppingCircuits(chain=chain, payoff=put_payoff(1.5),
                                basis=monomial_basis(1, 1, 3),
                                coefficients=circuits_for(chain, seed=3).coefficients,
                                fmt=coarse)
        var = circ.variable(2, 1)
        np.testing.assert_array_equal(var.oracle.values, coarse.quantize(var.oracle.raw_values))
        with pytest.raises(Overflow, match="rounding shifts the mean"):
            qmontecarlo(var, 0.05, 0.1, 8.0, 1)


class TestComposed:
    def test_horizon_special_case(self):
        chain = two_state_chain(seed=9)
        circ = circuits_for(chain, seed=10)
        values = stopped_payoff_values(circ, 3, 1)
        z3 = on_paths(circ, circ.payoff_table(3), 3)
        factor = on_paths(circ, circ.basis_table(2), 2)[:, 1]
        np.testing.assert_array_equal(values,
                                      np.asarray(circ.fmt.quantize(z3 * factor)))

    def test_matches_classical_recursion_bit_exact(self):
        for seed in range(5):
            chain = two_state_chain(seed=seed)
            circ = circuits_for(chain, seed=seed + 50)
            paths = enumerate_paths(circ.chain)
            tau_ref = reference_recursion(circ, paths)
            for t in (1, 2, 3):
                for member in range(circ.basis.size):
                    values = stopped_payoff_values(circ, t, member)
                    z = {u: on_paths(circ, circ.payoff_table(u), u) for u in (1, 2, 3)}
                    z_at = np.array([z[tau_ref[t][i]][i] for i in range(len(paths))])
                    factor = (np.ones(len(paths)) if t == 1
                              else on_paths(circ, circ.basis_table(t - 1), t - 1)[:, member])
                    expected = np.asarray(circ.fmt.quantize(z_at * factor))
                    np.testing.assert_array_equal(values, expected)

    def test_involution_restores_annotations(self):
        chain = two_state_chain(seed=11)
        basis = monomial_basis(1, 1, 3)
        rng = np.random.Generator(np.random.Philox(12))
        # Strike above every grid point keeps the product strictly positive.
        circ = StoppingCircuits(chain=chain, payoff=put_payoff(3.0), basis=basis,
                                coefficients={t: rng.normal(size=2) for t in (1, 2)})
        state = prepare(circ.sampling)
        amps_before = state.amplitudes.copy()
        composed(circ, state, 2, 0)
        assert state.nonzero_registers() == [product_register(2, 0)]
        composed(circ, state, 2, 0, inverse=True)
        assert state.nonzero_registers() == []
        np.testing.assert_array_equal(state.amplitudes, amps_before)

    def test_ancilla_hygiene(self):
        chain = two_state_chain(seed=13)
        circ = circuits_for(chain, seed=14)
        state = prepare(circ.sampling)
        composed(circ, state, 1, 1)
        assert state.nonzero_registers() == [product_register(1, 1)]

    def test_dirty_ancilla_rejected(self):
        chain = two_state_chain()
        circ = circuits_for(chain)
        state = prepare(circ.sampling)
        step(circ, state, 3)
        with pytest.raises(QlsmError, match="dirty"):
            composed(circ, state, 2, 0)

    def test_cost_model(self):
        chain = two_state_chain(seed=15)
        circ = circuits_for(chain, seed=16)
        T, m = 3, circ.basis.size
        for t in (1, 2, 3):
            ledger = QueryLedger()
            state = prepare(circ.sampling)
            composed(circ, state, t, 0, ledger)
            dispatch = T * int(np.ceil(np.log2(T)))
            assert ledger.function_queries["z"] == 2 * (T - t + 1) + dispatch
            assert ledger.function_queries["e"] == 2 * (T - t + 1) * m + 1
            booked = circ.composed_cost(t)
            assert booked == {"payoff": 2 * (T - t + 1) + dispatch,
                              "basis": 2 * (T - t + 1) * m + 1}

    def test_variable_exact_mean(self):
        chain = two_state_chain(seed=17)
        circ = circuits_for(chain, seed=18)
        var = circ.variable(2, 0)
        probs = enumerate_paths(circ.chain).probabilities
        manual = float(np.sum(probs * stopped_payoff_values(circ, 2, 0)))
        assert exact_moments(var)[0] == pytest.approx(manual, abs=1e-14)


class TestSingleStepChain:
    def test_horizon_one_payoff_only(self):
        chain = discretize_brownian(1, 1, 5, 2.0)
        basis = monomial_basis(1, 0, 1)
        circ = StoppingCircuits(chain=chain, payoff=put_payoff(1.0), basis=basis,
                                coefficients={})
        values = stopped_payoff_values(circ, 1, 0)
        np.testing.assert_array_equal(values, on_paths(circ, circ.payoff_table(1), 1))

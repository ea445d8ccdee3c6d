import json
import math

import numpy as np
import pytest

from qlsm.basis import constant_basis, gbm_basis, hermite_basis, monomial_basis
from qlsm.chain import MarkovChainSpec, discretize_brownian, discretize_gbm
from qlsm.dp import (CoefficientRule, continuation_values, exact_approximation_error,
                     path_stop_times, snell_envelope, stop_decision)
from qlsm.errors import Overflow, QlsmError, ScheduleViolation
from qlsm.lsm_quantum import (EstimationSchedule, _basis_product_variable, oracle_sigma_min,
                              run_quantum_lsm, run_quantum_lsm_brownian, run_quantum_lsm_gbm,
                              schedule_from_smoothness)
from qlsm.payoff import PayoffSpec, put_payoff, table_payoff
from qlsm.qsim import FixedPointFormat, QueryLedger
from qlsm.qsim.qmc import qmontecarlo
from qlsm.stopping_circuits import StoppingCircuits


# Toy chains with payoff bounds below 1 trip the sensitivity-normalization
# warning by design; it is asserted separately below.
pytestmark = pytest.mark.filterwarnings(
    "ignore:sqrt\\(m\\)\\*R\\*L/sigma_min < 1")


def two_path_chain():
    return MarkovChainSpec(
        dimension=1, horizon=2, initial_state=[0.0],
        grids=(np.array([[0.0]]), np.array([[0.0], [1.0]])),
        initial_distribution=[1.0],
        transitions=(np.array([[0.5, 0.5]]),))


class TestSchedule:
    def test_split_formulas(self):
        s = EstimationSchedule(epsilon=0.12, delta=0.3, horizon=4, basis_size=3)
        assert s.gram_accuracy == pytest.approx(0.04)
        assert s.target_accuracy == pytest.approx(0.12 / math.sqrt(3))
        assert s.gram_failure == pytest.approx(0.3 / (4 * 4 * 9))
        assert s.target_failure == pytest.approx(0.3 / (4 * 4 * 3))

    def test_epsilon_above_half_sigma_rejected(self):
        chain = two_path_chain()
        payoff = put_payoff(1.0)
        with pytest.raises(ScheduleViolation):
            run_quantum_lsm(chain, payoff, constant_basis(2), 0.9, 0.1,
                            sigma_min_lower=1.0, seed=0)

    def test_sigma_min_required_without_oracle(self):
        chain = two_path_chain()
        with pytest.raises(ScheduleViolation, match="sigma_min_lower"):
            run_quantum_lsm(chain, put_payoff(1.0), constant_basis(2), 0.1, 0.1,
                            seed=0, sigma_min_oracle=False)

    def test_normalization_warning_fires(self):
        chain = two_path_chain()
        payoff = table_payoff({1: np.array([0.1]), 2: np.array([0.3, 0.2])}, 0.0)
        with pytest.warns(UserWarning, match="sigma_min"):
            run_quantum_lsm(chain, payoff, constant_basis(2), 0.05, 0.2,
                            sigma_min_lower=1.0, seed=0)


class TestGramModeValidation:
    @pytest.mark.parametrize("horizon", [1, 2])
    def test_unknown_mode_rejected_before_estimation(self, monkeypatch, horizon):
        # A one-step chain fits no regression, so a check inside the per-step
        # loop would never see the mode.
        def no_estimation(*args, **kwargs):
            raise AssertionError("an entry was estimated before the mode was checked")

        monkeypatch.setattr("qlsm.lsm_quantum.qmontecarlo", no_estimation)
        monkeypatch.setattr("qlsm.lsm_quantum.qmontecarlo_batch", no_estimation)
        chain = discretize_brownian(1, horizon, 4, 2.0)
        with pytest.raises(ValueError, match="unknown gram_mode 'bogus'"):
            run_quantum_lsm(chain, put_payoff(1.0), constant_basis(horizon), 0.1, 0.1,
                            sigma_min_lower=1.0, seed=0, gram_mode="bogus")


class TestGenericRuns:
    def test_single_step_reduces_to_mean_estimation(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=1, initial_state=[0.0],
            grids=(np.array([[0.0], [1.0]]),),
            initial_distribution=[0.25, 0.75], transitions=())
        payoff = table_payoff({1: np.array([0.8, 0.2])}, start_value=0.0)
        exact = 0.25 * 0.8 + 0.75 * 0.2
        run = run_quantum_lsm(chain, payoff, constant_basis(1), 0.05, 0.1,
                              sigma_min_lower=1.0, seed=0)
        assert run.gram_matrices == {}
        assert abs(run.estimate - max(0.0, exact)) <= 0.05

    def test_two_path_failure_rate(self):
        chain = two_path_chain()
        payoff = table_payoff({1: np.array([0.1]), 2: np.array([0.9, 0.2])},
                              start_value=0.0)
        table = snell_envelope(chain, payoff)
        eps, delta, trials = 0.08, 0.2, 200
        fails = 0
        for seed in range(trials):
            run = run_quantum_lsm(chain, payoff, constant_basis(2), eps, delta,
                                  sigma_min_lower=1.0, seed=seed)
            fails += abs(run.estimate - table.value0) > eps
        assert fails / trials <= delta + 3 * math.sqrt(delta * (1 - delta) / trials)

    def test_estimate_is_max_with_start_value(self):
        chain = two_path_chain()
        payoff = table_payoff({1: np.array([0.0]), 2: np.array([0.1, 0.1])},
                              start_value=0.7)
        run = run_quantum_lsm(chain, payoff, constant_basis(2), 0.02, 0.2,
                              sigma_min_lower=1.0, seed=1)
        assert run.estimate == pytest.approx(0.7)
        assert run.final_payoff_estimate <= 0.2

    def test_run_past_the_enumeration_cap_enumerates_no_path(self, monkeypatch):
        # 8^7 = 2,097,152 paths, twice the enumeration cap. Every law comes
        # from the chain, so the run completes with enumeration refused.
        from qlsm.qsim import FixedPointFormat

        def refuse(*args, **kwargs):
            raise AssertionError("the quantum run enumerated paths")

        monkeypatch.setattr("qlsm.qsim.oracles.enumerate_paths", refuse)
        monkeypatch.setattr("qlsm.chain.enumerate_paths", refuse)
        chain = discretize_brownian(1, 7, 8, 2.2)
        assert chain.path_space_size() == 2_097_152
        payoff, basis = put_payoff(1.0), constant_basis(7)
        run = run_quantum_lsm(chain, payoff, basis, 0.05, 0.1, sigma_min_lower=1.0, seed=4)
        rule = CoefficientRule(basis, run.coefficients, quantize=FixedPointFormat().quantize)
        exact = float(continuation_values(chain, payoff, rule, 0)[0])
        assert abs(run.final_payoff_estimate - exact) <= 0.05

    def test_unvisited_state_stays_out_of_the_fixed_point_tables(self):
        # The circuit tables hold 0 at grid states no path visits, so such a
        # state's payoff may lie outside the fixed-point range; the same
        # payoff overflows once the state carries mass.
        def chain_with(init):
            grid = np.array([[-1.0], [0.0], [1.0]])
            P = np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.8, 0.0]])
            return MarkovChainSpec(dimension=1, horizon=3, initial_state=[0.0],
                                   grids=(grid,) * 3, initial_distribution=init,
                                   transitions=(P, P))

        payoff = table_payoff({t: np.array([0.2, 0.5, 1000.0]) for t in (1, 2, 3)}, 0.0)
        basis = monomial_basis(1, 1, 3)
        unvisited = chain_with([0.5, 0.5, 0.0])
        run = run_quantum_lsm(unvisited, payoff, basis, 0.05, 0.2,
                              sigma_min_oracle=True, seed=2)
        exact = snell_envelope(unvisited, payoff).value0
        assert abs(run.estimate - exact) <= 0.3
        with pytest.raises(Overflow, match="not representable"):
            run_quantum_lsm(chain_with([0.4, 0.4, 0.2]), payoff, basis, 0.05, 0.2,
                            sigma_min_oracle=True, seed=2)

    def test_gram_entry_rounding_shift_is_checked(self):
        # At 4 fraction bits the squared degree-1 Hermite member's table
        # rounds its step-2 mean by 0.012, past epsilon/100: the Gram entry
        # hands qmontecarlo the unrounded products, so its check sees it.
        coarse = FixedPointFormat(8, 4)
        circ = StoppingCircuits(chain=discretize_brownian(1, 3, 8, 2.2), payoff=put_payoff(1.0),
                                basis=hermite_basis(1, 2, 3, 4.0), coefficients={}, fmt=coarse)
        var = _basis_product_variable(circ, 2, 1, 1)
        np.testing.assert_array_equal(var.oracle.values, coarse.quantize(var.oracle.raw_values))
        with pytest.raises(Overflow, match="rounding shifts the mean"):
            qmontecarlo(var, 0.05, 0.1, 8.0, 1)

    @pytest.mark.parametrize("horizon", [4, 6])
    def test_each_score_table_built_once(self, horizon, monkeypatch):
        # One set of circuits serves the whole run, so each step's scores are
        # computed once: horizon - 1 score tables, not one per later step.
        steps = []
        row_scores = CoefficientRule.row_scores

        def counted(rule, t, rows):
            steps.append(t)
            return row_scores(rule, t, rows)

        monkeypatch.setattr(CoefficientRule, "row_scores", counted)
        chain = discretize_brownian(1, horizon, 3, 2.2)
        run_quantum_lsm(chain, put_payoff(1.0), monomial_basis(1, 1, horizon), 0.05, 0.2,
                        sigma_min_oracle=True, seed=0)
        assert sorted(steps) == list(range(1, horizon))

    def test_backward_resolve_targets(self):
        from qlsm.chain import enumerate_paths
        from qlsm.qsim import FixedPointFormat
        from qlsm.stopping_circuits import StoppingCircuits

        chain = discretize_brownian(1, 3, 4, 2.0)
        payoff = put_payoff(1.0)
        basis = monomial_basis(1, 1, 3)
        run = run_quantum_lsm(chain, payoff, basis, 0.02, 0.1, seed=2,
                              sigma_min_oracle=True)
        # Every estimated entry lands within its per-entry accuracy at this
        # seed (the per-entry failure budget is delta/(4 T m) ~ 0.003).
        for t, est in run.targets.items():
            assert (np.abs(est - run.exact_targets[t])
                    <= run.schedule.target_accuracy).all()

        # Re-running the circuits with the stored coefficients reproduces the
        # estimation targets' exact means, independently recomputed from the
        # target definition by full path enumeration.
        fmt = FixedPointFormat()
        ens = enumerate_paths(chain)
        circ = StoppingCircuits(chain=chain, payoff=payoff, basis=basis,
                                coefficients=run.coefficients, fmt=fmt)
        taus, _ = path_stop_times(chain, ens.indices, lambda u, later: stop_decision(
            circ.payoff_table(u), circ.score_table(u)))
        for t in run.exact_targets:
            tau = taus[:, t]  # tau_{t+1}
            z = {u: np.asarray(fmt.quantize(
                payoff.values(chain, u)[ens.state_indices_at(u)]))
                for u in range(1, 4)}
            z_at = np.array([z[tau[i]][i] for i in range(len(ens))])
            rows = np.asarray(fmt.quantize(
                basis.evaluate(t, chain.grid(t))[ens.state_indices_at(t)]))
            for member in range(basis.size):
                definition = float(np.sum(
                    ens.probabilities
                    * np.asarray(fmt.quantize(z_at * rows[:, member]))))
                assert run.exact_targets[t][member] == pytest.approx(
                    definition, abs=1e-12)

    def test_sensitivity_conformance(self):
        chain = discretize_brownian(1, 3, 4, 2.0)
        payoff = put_payoff(1.0)
        basis = monomial_basis(1, 1, 3)
        run = run_quantum_lsm(chain, payoff, basis, 0.01, 0.1, seed=3,
                              sigma_min_oracle=True)
        m = basis.size
        for t in run.targets:
            gram_exact = run.exact_grams[t]
            smin = float(np.linalg.svd(gram_exact, compute_uv=False)[-1])
            eps_a = float(np.linalg.norm(run.gram_matrices[t] - gram_exact, 2))
            eps_b = float(np.linalg.norm(run.targets[t] - run.exact_targets[t]))
            if eps_a > smin / 2:
                continue
            alpha_exact = np.linalg.solve(gram_exact, run.exact_targets[t])
            gap = float(np.linalg.norm(run.coefficients[t] - alpha_exact))
            bound = 2.0 / smin * (eps_a * np.linalg.norm(run.exact_targets[t]) / smin
                                  + eps_b)
            # Coefficients were additionally rounded to fixed point.
            assert gap <= bound + 1e-6 * m

    def test_ledger_grows_as_accuracy_shrinks(self):
        chain = two_path_chain()
        payoff = table_payoff({1: np.array([0.1]), 2: np.array([0.9, 0.2])}, 0.0)
        costs = []
        for eps in (0.08, 0.04, 0.02):
            run = run_quantum_lsm(chain, payoff, constant_basis(2), eps, 0.2,
                                  sigma_min_lower=1.0, seed=4)
            costs.append(run.ledger.total_units(2))
        assert costs[0] < costs[1] < costs[2]
        assert 1.6 <= costs[1] / costs[0] <= 2.7
        assert 1.6 <= costs[2] / costs[1] <= 2.7


    def test_entry_reports_explain_every_estimate(self):
        # The criterion-6 instance: T = 3, m = 3.
        chain = discretize_brownian(1, 3, 8, 2.2)
        payoff = put_payoff(1.0)
        basis = hermite_basis(1, 2, 3, 4.0)
        sigma_min = oracle_sigma_min(basis, chain)
        eps0 = sigma_min**2 / (4.0 * basis.size * payoff.bound_for(chain))
        run = run_quantum_lsm(chain, payoff, basis, eps0, 0.2,
                              sigma_min_lower=sigma_min, seed=7)
        assert len(run.entry_reports) == 25
        check_entry_reports(run)

    def test_basket_entry_reports_cover_every_batched_entry(self):
        # The quantum-basket2d benchmark instance, T = 4, m = 6: each step's
        # 36 Gram entries are one batch and its 6 targets another.
        chain = discretize_brownian(2, 4, 5, 2.2)
        payoff = PayoffSpec(step_function=lambda t, pts: np.maximum(0.0, 1.0 - pts.mean(axis=1)))
        basis = hermite_basis(2, 2, 4, 4.0)
        run = run_quantum_lsm(chain, payoff, basis, 0.02, 0.2,
                              sigma_min_lower=oracle_sigma_min(basis, chain), seed=1)
        assert len(run.entry_reports) == 127
        check_entry_reports(run)


def check_entry_reports(run):
    """Every estimated entry has its report, and the reports explain the run."""
    T, m = run.chain.horizon, run.basis.size
    names = ({f"basis_product[t={t},{j},{k}]" for t in range(1, T)
              for j in range(m) for k in range(m)}
             | {f"stopped_payoff[t={t},m={i}]" for t in range(2, T + 1) for i in range(m)}
             | {"stopped_payoff[t=1,m=0]"})
    assert len(names) == (T - 1) * m * m + (T - 1) * m + 1
    assert set(run.entry_reports) == names
    merged = QueryLedger()
    for name, rep in run.entry_reports.items():
        merged.merge(rep.ledger)
        assert rep.error == abs(rep.estimate - rep.exact_mean)
        # A constant entry is read off one sample; the rest run AE pieces.
        assert rep.pieces or rep.exact_variance == 0.0
        assert all(p.queries >= 2 for p in rep.pieces)
    assert merged.snapshot() == run.ledger.snapshot()
    sched = run.schedule
    gram = run.entry_reports["basis_product[t=2,1,0]"]
    assert (gram.epsilon, gram.delta) == (sched.gram_accuracy, sched.gram_failure)
    assert gram.estimate == run.gram_matrices[2][1, 0]
    target = run.entry_reports["stopped_payoff[t=3,m=2]"]
    assert (target.epsilon, target.delta) == (sched.target_accuracy, sched.target_failure)
    assert (target.estimate, target.exact_mean) == (run.targets[2][2], run.exact_targets[2][2])
    final = run.entry_reports["stopped_payoff[t=1,m=0]"]
    assert (final.estimate, final.delta) == (run.final_payoff_estimate, run.delta / 2.0)
    assert "entry_reports" not in json.loads(run.to_json())


class TestModelVariants:
    def test_brownian_skips_gram_estimation(self):
        chain = discretize_brownian(1, 2, 9, 3.5)
        payoff = put_payoff(1.0)
        basis = hermite_basis(1, 1, 2, 20.0)
        with pytest.warns(UserWarning, match="cube radius") as caught:
            run = run_quantum_lsm_brownian(chain, payoff, basis, 0.05, 0.2,
                                           seed=5, power=4.0)
        # The cube-radius warning points at the caller's line.
        assert [w.filename for w in caught if "cube radius" in str(w.message)] == [__file__]
        assert run.gram_mode == "identity"
        assert all("basis_product" not in name
                   for name in run.ledger.function_queries)
        np.testing.assert_array_equal(run.gram_matrices[1], np.eye(basis.size))
        assert run.lambda_required is not None
        assert run.payoff.truncation_level == pytest.approx(20.0 ** 0.5)

    def test_wide_cube_matches_estimated_gram_run(self):
        # With the cube containing every grid point and a clamp level above
        # the payoff bound, the identity-Gram shortcut and the generic
        # estimated-Gram run price the same instance; their estimates differ
        # by at most the two runs' combined estimation budgets.
        chain = discretize_brownian(1, 2, 9, 3.5)
        payoff = put_payoff(1.0)
        basis = hermite_basis(1, 1, 2, 50.0)
        eps, delta = 0.04, 0.2
        level = payoff.bound_for(chain) + 1.0
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = run_quantum_lsm_brownian(chain, payoff, basis, eps, delta,
                                            seed=20, power=4.0,
                                            truncation_level=level)
        generic = run_quantum_lsm(chain, payoff, basis, eps, delta, seed=21,
                                  sigma_min_oracle=True)
        budget = 8 * chain.horizon * eps * basis.size \
            * payoff.bound_for(chain) / generic.sigma_min_lower**2
        assert abs(fast.estimate - generic.estimate) <= 2 * budget

    def test_brownian_requires_hermite(self):
        chain = discretize_brownian(1, 2, 5, 2.0)
        with pytest.raises(ValueError, match="Hermite"):
            run_quantum_lsm_brownian(chain, put_payoff(1.0), constant_basis(2),
                                     0.05, 0.2)

    def test_gbm_uses_closed_form_and_svd(self):
        chain = discretize_gbm(1, 2, 17, 4.0)
        payoff = put_payoff(1.0)
        basis = gbm_basis(1, 1, 2, 1e6)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = run_quantum_lsm_gbm(chain, payoff, basis, 0.05, 0.2, seed=6)
        assert run.gram_mode == "closed_form"
        expected = np.array([[1.0, 1.0], [1.0, math.e]])
        np.testing.assert_allclose(run.gram_matrices[1], expected)
        smin = np.linalg.svd(expected, compute_uv=False)[-1]
        assert run.sigma_min_lower == pytest.approx(smin)
        assert run.epsilon <= run.sigma_min_lower / 2

    def test_gbm_two_dimensional_run(self):
        # Multi-coordinate chain: product grids, Kronecker closed form and the
        # scaled-monomial basis must agree on index ordering end to end.
        from qlsm.chain import discretize_gbm
        from qlsm.payoff import PayoffSpec
        from qlsm.qsim import FixedPointFormat

        chain = discretize_gbm(2, 2, 7, 2.5)
        payoff = PayoffSpec(
            step_function=lambda t, pts: np.maximum(0.0, 1.0 - pts.mean(axis=1)),
            label="basket-put")
        table = snell_envelope(chain, payoff)
        basis = gbm_basis(2, 1, 2, 1e9)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = run_quantum_lsm_gbm(chain, payoff, basis, 0.02, 0.2, seed=3,
                                      power=6.0, fmt=FixedPointFormat(20, 24))
        approx = max(exact_approximation_error(chain, payoff, basis, t)
                     for t in (1,))
        assert abs(run.estimate - table.value0) <= 0.05 + approx
        assert run.gram_matrices[1].shape == (4, 4)

    def test_gbm_sigma_min_bound_violation_is_typed(self, monkeypatch):
        monkeypatch.setattr("qlsm.lsm_quantum.vandermonde_sigma_min_bound",
                            lambda degree, dim, t: (1e-9, 1e-9))
        with pytest.raises(QlsmError, match="analytic bound"):
            run_quantum_lsm_gbm(discretize_gbm(1, 2, 17, 4.0), put_payoff(1.0),
                                gbm_basis(1, 1, 2, 1e6), 0.05, 0.2, seed=6)

    def test_gbm_requires_monomials(self):
        chain = discretize_gbm(1, 2, 9, 3.0)
        with pytest.raises(ValueError, match="monomial"):
            run_quantum_lsm_gbm(chain, put_payoff(1.0), constant_basis(2),
                                0.05, 0.2)


class TestSmoothnessSchedules:
    def test_generic_smooth_degree(self):
        sched = schedule_from_smoothness(1, 1, 0.1, "generic-smooth",
                                         smoothness=1, smooth_const=1.0)
        assert sched.degree == 100
        assert sched.basis_size == 101

    def test_two_step_degree(self):
        sched = schedule_from_smoothness(2, 1, 0.5, "generic-smooth",
                                         smoothness=1, smooth_const=1.0)
        assert sched.degree == 100  # ceil(2 * 25 / 0.5)

    def test_lipschitz_degree(self):
        sched = schedule_from_smoothness(1, 1, 1.0, "generic-lipschitz",
                                         lipschitz_const=1.0, cube_radius=1.0)
        assert sched.degree == 880

    def test_brownian_accuracy_formula(self):
        sched = schedule_from_smoothness(2, 1, 0.3, "brownian",
                                         smoothness=1, smooth_const=1.0,
                                         payoff_bound=1.0)
        expected = (1.0 / (3.0 * math.e**2)) * (0.3 / 75.0) ** 2
        assert sched.accuracy == pytest.approx(expected, rel=1e-12)

    def test_size_consistency_with_basis_module(self):
        sched = schedule_from_smoothness(1, 2, 0.4, "generic-smooth",
                                         smoothness=2, smooth_const=1.0)
        from qlsm.basis import hermite_multi_indices

        assert sched.basis_size == len(hermite_multi_indices(2, sched.degree))

    def test_inconsistent_smoothness(self):
        with pytest.raises(ValueError, match="inconsistent"):
            schedule_from_smoothness(1, 1, 0.9, "generic-smooth",
                                     smoothness=40, smooth_const=1.0)

    def test_gbm_schedule_runs(self):
        sched = schedule_from_smoothness(1, 1, 0.4, "gbm", smoothness=2,
                                         smooth_const=0.5, payoff_bound=1.0)
        assert sched.degree == 5
        assert sched.accuracy > 0.0
        assert sched.cube_radius > 1.0

    def test_gbm_schedule_underflow_safe(self):
        # The exponential factor drives the accuracy below float range; the
        # cube-radius requirement must still come out finite via log space.
        sched = schedule_from_smoothness(1, 1, 0.4, "gbm", smoothness=1,
                                         smooth_const=0.5, payoff_bound=1.0)
        assert sched.accuracy == 0.0
        assert np.isfinite(sched.cube_radius)
        assert sched.cube_radius > 10.0


class TestSerialization:
    def test_run_record_round_trip(self):
        import json

        chain = two_path_chain()
        payoff = table_payoff({1: np.array([0.1]), 2: np.array([0.9, 0.2])}, 0.0)
        run = run_quantum_lsm(chain, payoff, constant_basis(2), 0.05, 0.2,
                              sigma_min_lower=1.0, seed=7)
        doc = json.loads(run.to_json())
        assert doc["epsilon"] == 0.05
        assert doc["ledger"]["grover_applications"] == run.ledger.grover_applications
        assert "1" in doc["coefficients"]

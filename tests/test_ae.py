import numpy as np
import pytest

from qlsm.chain import MarkovChainSpec
from qlsm.qsim import (ControlledRotation, EstimationOperator, FunctionOracle,
                       QueryLedger, SamplingOracle, ae_outcome_distribution,
                       draw_ae_estimates, statevector_ae_distribution)
from qlsm.qsim.ae import _embed
from qlsm.qsim.fixed_point import FixedPointFormat


def operator_with_amplitude(a: float) -> EstimationOperator:
    chain = MarkovChainSpec(
        dimension=1, horizon=1, initial_state=[0.0],
        grids=(np.array([[0.0], [1.0]]),),
        initial_distribution=[0.75, 0.25], transitions=())
    sampling = SamplingOracle(chain)
    fmt = FixedPointFormat(4, 20)
    values = fmt.quantize(np.array([a, a]))
    oracle = FunctionOracle(name="h", fmt=fmt, raw_values=values, query_cost={"payoff": 1})
    rot = ControlledRotation(oracle=oracle, low=0.0, high=1.0)
    return EstimationOperator(sampling=sampling, rotation=rot,
                              masses=sampling.ensemble.probabilities)


class TestAnalyticDistribution:
    def test_probabilities_normalized(self):
        for a in (0.0, 0.2, 0.5, 0.77, 1.0):
            _, probs, _ = ae_outcome_distribution(a, 16)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_amplitude_exact(self):
        est, probs, _ = ae_outcome_distribution(0.0, 8)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert est[0] == 0.0

    def test_unit_amplitude_exact(self):
        est, probs, _ = ae_outcome_distribution(1.0, 8)
        peak = int(np.argmax(probs))
        assert probs[peak] == pytest.approx(1.0, abs=1e-12)
        assert est[peak] == pytest.approx(1.0)

    def test_grid_amplitudes_concentrate(self):
        # theta on the estimation grid: the two symmetric outcomes carry
        # probability one half each.
        a = np.sin(np.pi * 3 / 16) ** 2
        est, probs, _ = ae_outcome_distribution(a, 16)
        assert probs[3] == pytest.approx(0.5, abs=1e-12)
        assert probs[13] == pytest.approx(0.5, abs=1e-12)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            ae_outcome_distribution(0.5, 12)


class TestStatevectorCrossCheck:
    @pytest.mark.parametrize("amplitude", [0.0, 0.1, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("queries", [4, 8, 16])
    def test_modes_agree(self, amplitude, queries):
        _, analytic, _ = ae_outcome_distribution(amplitude, queries)
        system = np.array([np.sqrt(1 - amplitude), np.sqrt(amplitude)], dtype=complex)
        sv = statevector_ae_distribution(system, np.array([False, True]), queries)
        np.testing.assert_allclose(analytic, sv, atol=1e-9)

    def test_multi_state_system(self):
        # Good amplitude spread over several flagged components.
        system = np.sqrt(np.array([0.3, 0.2, 0.4, 0.1], dtype=complex))
        mask = np.array([False, True, False, True])
        sv = statevector_ae_distribution(system, mask, 8)
        _, analytic, _ = ae_outcome_distribution(0.3, 8)
        np.testing.assert_allclose(analytic, sv, atol=1e-9)

    def test_qubit_cap(self):
        system = np.zeros(2**10, dtype=complex)
        system[0] = 1.0
        with pytest.raises(ValueError, match="capped"):
            statevector_ae_distribution(system, np.zeros(2**10, bool), 16)

    def test_hybrid_operator_statevector_mode(self):
        # The prepared hybrid state, simulated as a dense Grover circuit, has
        # the outcome law the analytic sampler draws from.
        op = operator_with_amplitude(0.37)
        system, mask = _embed(op.prepare(None))
        sv = statevector_ae_distribution(system, mask, 8)
        _, analytic, _ = ae_outcome_distribution(op.amplitude, 8)
        np.testing.assert_allclose(analytic, sv, atol=1e-9)


class TestSamplingAndLedger:
    def test_ledger_accounting(self):
        op = operator_with_amplitude(0.5)
        for repetitions in (1, 5):
            ledger = QueryLedger()
            rng = np.random.Generator(np.random.Philox(3))
            draws = draw_ae_estimates(op, 16, repetitions, rng, ledger=ledger)
            assert draws.shape == (repetitions,)
            assert ledger.grover_applications == 16 * repetitions
            assert ledger.state_preparations == (2 * 16 + 1) * repetitions
            assert ledger.rotations == (2 * 16 + 1) * repetitions
            assert ledger.function_queries["h"] == 2 * (2 * 16 + 1) * repetitions

    def test_repeated_draws_marginal(self):
        op = operator_with_amplitude(0.25)
        rng = np.random.Generator(np.random.Philox(5))
        draws = draw_ae_estimates(op, 64, 400, rng)
        assert abs(np.median(draws) - 0.25) < 0.05

    def test_degenerate_draws_exact(self):
        rng = np.random.Generator(np.random.Philox(7))
        op = operator_with_amplitude(0.0)
        assert draw_ae_estimates(op, 8, 1, rng)[0] == 0.0
        op = operator_with_amplitude(1.0)
        assert draw_ae_estimates(op, 8, 1, rng)[0] == 1.0

import math

import numpy as np
import pytest

from qlsm.chain import MarkovChainSpec
from qlsm.errors import Overflow, ScheduleViolation, VarianceExceeded
from qlsm.qsim import (FixedPointFormat, FunctionOracle, QmcVariable,
                       SamplingOracle, median_repetitions, qmontecarlo)
from qlsm.qsim.qmc import _median


def uniform_chain(permutation=None):
    grids = (np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))
    chain = MarkovChainSpec(dimension=1, horizon=2, initial_state=[0.0],
                            grids=grids, initial_distribution=[0.5, 0.5],
                            transitions=(np.full((2, 2), 0.5),))
    return chain


def variable_from_values(values, fmt=None, chain=None):
    chain = chain or uniform_chain()
    sampling = SamplingOracle(chain)
    fmt = fmt or FixedPointFormat()
    oracle = FunctionOracle(name="h", fmt=fmt, raw_values=np.asarray(values, dtype=float),
                            query_cost={"payoff": 1})
    return QmcVariable(sampling=sampling, oracle=oracle,
                       masses=sampling.ensemble.probabilities)


class TestBasics:
    def test_constant_is_exact(self):
        var = variable_from_values([0.375, 0.375, 0.375, 0.375])
        rep = qmontecarlo(var, 0.2, 0.1, 1.0, 0)
        assert rep.estimate == 0.375
        assert rep.exact_variance == 0.0

    def test_repetition_constant(self):
        assert median_repetitions(0.1) == math.ceil(18 * math.log(10))
        assert median_repetitions(0.05) == math.ceil(18 * math.log(20))

    def test_parameter_validation(self):
        var = variable_from_values([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            qmontecarlo(var, 0.0, 0.1, 1.0, 0)
        with pytest.raises(ValueError):
            qmontecarlo(var, 0.1, 1.5, 1.0, 0)

    def test_variance_guard(self):
        var = variable_from_values([0.0, 1.0, 0.0, 0.0])  # variance 0.1875
        with pytest.raises(VarianceExceeded):
            qmontecarlo(var, 0.1, 0.1, 0.1, 0)
        with pytest.warns(UserWarning):
            rep = qmontecarlo(var, 0.1, 0.1, 0.1, 0, override_variance=True)
        assert abs(rep.estimate - 0.25) < 0.5

    def test_rounding_budget_guard(self):
        # Two fraction bits cannot carry a 1e-3 accuracy request.
        fmt = FixedPointFormat(4, 2)
        var = variable_from_values([0.3, 0.4, 0.55, 0.7], fmt=fmt)
        with pytest.raises(Overflow, match="epsilon/100"):
            qmontecarlo(var, 1e-3, 0.1, 1.0, 0)


class TestAccuracy:
    def test_indicator_failure_rate(self):
        var = variable_from_values([1.0, 0.0, 0.0, 0.0])
        failures = 0
        trials = 200
        for seed in range(trials):
            rep = qmontecarlo(var, 0.05, 0.1, 0.5, seed)
            failures += abs(rep.estimate - 0.25) > 0.05
        assert failures / trials <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / trials)

    def test_signed_variable(self):
        values = np.array([-0.8, -0.1, 0.3, 0.9])
        var = variable_from_values(values)
        mean = values.mean()
        failures = 0
        for seed in range(100):
            rep = qmontecarlo(var, 0.08, 0.1, 0.7, seed)
            failures += abs(rep.estimate - mean) > 0.08
        assert failures / 100 <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / 100)

    def test_estimate_within_epsilon_typical(self):
        var = variable_from_values([0.9, 0.1, 0.6, 0.2])
        rep = qmontecarlo(var, 0.03, 0.05, 0.5, 12)
        assert rep.error is not None and rep.error <= 0.03


class TestCostModel:
    def test_cost_doubles_when_accuracy_halves(self):
        var = variable_from_values([1.0, 0.0, 0.0, 0.0])
        coarse = qmontecarlo(var, 0.04, 0.1, 0.5, 3).ledger.total_units(2)
        fine = qmontecarlo(var, 0.02, 0.1, 0.5, 3).ledger.total_units(2)
        assert 1.7 <= fine / coarse <= 2.6

    def test_cost_factor_recorded_and_bounded(self):
        var = variable_from_values([1.0, 0.0, 0.0, 0.0])
        for eps, delta in ((0.05, 0.1), (0.02, 0.05)):
            rep = qmontecarlo(var, eps, delta, 0.5, 1)
            assert rep.cost_factor is not None
            assert rep.cost_factor <= 32.0
            assert rep.median_constant == 18.0

    def test_ledger_merges_into_caller(self):
        from qlsm.qsim import QueryLedger

        var = variable_from_values([1.0, 0.0, 0.0, 0.0])
        ledger = QueryLedger()
        qmontecarlo(var, 0.1, 0.2, 0.5, 0, ledger=ledger)
        assert ledger.grover_applications > 0
        assert ledger.state_preparations > 0


class TestStructure:
    def test_relabeling_invariance(self):
        values = np.array([0.7, 0.1, 0.4, 0.2])
        chain = uniform_chain()
        base = qmontecarlo(variable_from_values(values, chain=chain),
                           0.05, 0.1, 0.5, 9).estimate
        # Same distribution presented with permuted grid labels.
        permuted = MarkovChainSpec(
            dimension=1, horizon=2, initial_state=[0.0],
            grids=(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])),
            initial_distribution=[0.5, 0.5],
            transitions=(np.full((2, 2), 0.5),))
        values_perm = np.array([0.4, 0.2, 0.7, 0.1])
        other = qmontecarlo(variable_from_values(values_perm, chain=permuted),
                            0.05, 0.1, 0.5, 9).estimate
        assert abs(base - other) <= 0.05

    def test_pieces_partition_positive_part(self):
        values = np.array([0.0, 0.9, 2.4, 3.7])
        var = variable_from_values(values)
        rep = qmontecarlo(var, 0.1, 0.2, 1.6, 4)
        pos = [p for p in rep.pieces if p.part == "positive"]
        assert pos[0].low == 0.0
        for left, right in zip(pos, pos[1:]):
            assert right.low > left.high
        quantized_max = float(np.max(var.oracle.values))
        assert pos[-1].high >= quantized_max - rep.center

    def test_center_is_sampled_value(self):
        values = np.array([0.7, 0.1, 0.4, 0.2])
        rep = qmontecarlo(variable_from_values(values), 0.05, 0.1, 0.5, 2)
        assert rep.center in set(np.asarray(FixedPointFormat().quantize(values)))


class TestQueryCap:
    def test_query_cap_raises_schedule_violation(self):
        var = variable_from_values([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ScheduleViolation, match=r"budget .* cap of 1073741824"):
            qmontecarlo(var, 1e-12, 0.1, 1.0, 0)


class TestSortMedian:
    def test_matches_numpy_median_bit_for_bit(self):
        rng = np.random.default_rng(12)
        grid = np.sin(np.pi * np.arange(64) / 128) ** 2
        for n in range(1, 201):
            for draws in (rng.random(n), rng.choice(grid, n), rng.normal(size=n) * 1e-300,
                          np.full(n, 0.3)):
                assert np.float64(_median(draws)).view(np.int64) == \
                    np.float64(np.median(draws)).view(np.int64), n

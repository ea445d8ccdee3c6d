import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qmc_reference
from qlsm.basis import hermite_basis, sup_norm_bound
from qlsm.chain import MarkovChainSpec, discretize_brownian, enumerate_paths
from qlsm.errors import Overflow, QlsmError, ScheduleViolation, VarianceExceeded
from qlsm.lsm_quantum import _basis_product_variable
from qlsm.payoff import put_payoff
from qlsm.qsim import (FixedPointFormat, FunctionOracle, QmcVariable, QueryLedger,
                       SamplingOracle, median_repetitions, qmontecarlo, qmontecarlo_batch)
from qlsm.qsim.qmc import _BATCH_BYTES, _medians, _queries_for
from qlsm.stopping_circuits import StoppingCircuits


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
                       masses=enumerate_paths(chain).probabilities)


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
            draws = np.stack([rng.random(n), rng.choice(grid, n), rng.normal(size=n) * 1e-300,
                              np.full(n, 0.3)])
            expected = np.array([np.median(row) for row in draws])
            assert _medians(draws).view(np.int64).tolist() == expected.view(np.int64).tolist(), n


def bits(value):
    """value with every float replaced by its hex form, so -0.0 != 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return bits(dataclasses.astuple(value))
    return value


def report_bits(report):
    return bits([report.estimate, report.center, report.exact_mean, report.exact_variance,
                 report.cost_reference, report.cost_factor, report.repetitions,
                 report.pieces]), report.ledger.snapshot()


def shared_variables(tables, masses, fmts, chain=None):
    """One variable per value table, all on the same sampling and masses."""
    sampling = SamplingOracle(chain or uniform_chain())
    return [QmcVariable(sampling=sampling, masses=masses, oracle=FunctionOracle(
                name=f"entry[{i}]", fmt=fmt, raw_values=table, query_cost={"basis": 2}))
            for i, (table, fmt) in enumerate(zip(tables, fmts))]


def random_tables(rng, kinds, n, coarse):
    """Value tables on the default grid: signed, one-signed or constant rows;
    coarse rows take few distinct values, so sampled centers tie."""
    scale = 2.0**FixedPointFormat().frac_bits
    tables = []
    for kind in kinds:
        if coarse:
            row = rng.integers(-8, 9, size=n) / 4.0
        else:
            row = np.round(rng.uniform(-2.0, 2.0, size=n) * scale) / scale
        if kind == "positive":
            row = np.abs(row)
        elif kind == "negative":
            row = -np.abs(row)
        elif kind == "constant":
            row = np.full(n, row[0])
        tables.append(row)
    return tables


def sparse_masses(rng, n):
    masses = rng.random(n) * (rng.random(n) < 0.7)
    if not masses.any():
        masses[rng.integers(n)] = 1.0
    return masses / masses.sum()


def run_both(variables, epsilon, delta, sigma, seeds):
    """(batch, serial reference) outcomes: reports, generator states and the
    caller's ledger, or the first error's type and message."""
    outcomes = []
    for estimate in (
            lambda rngs, ledger: qmontecarlo_batch(variables, epsilon, delta, sigma, rngs,
                                                   ledger=ledger),
            lambda rngs, ledger: [qmc_reference.qmontecarlo(var, epsilon, delta, sigma, rng,
                                                            ledger=ledger)
                                  for var, rng in zip(variables, rngs)]):
        rngs = [np.random.Generator(np.random.Philox(seed)) for seed in seeds]
        ledger = QueryLedger()
        try:
            reports = estimate(rngs, ledger)
        except QlsmError as exc:
            outcomes.append((type(exc), str(exc)))
            continue
        outcomes.append(([report_bits(r) for r in reports],
                         [repr(rng.bit_generator.state) for rng in rngs], ledger.snapshot()))
    return outcomes


class TestBatchAgainstSerialReference:
    """The batch estimator against estimating its entries one at a time."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), entries=st.integers(1, 40),
           kind_set=st.sampled_from([("mixed",), ("positive", "negative"), ("constant",),
                                     ("mixed", "positive", "negative", "constant")]),
           coarse=st.booleans(), log_epsilon=st.integers(3, 14),
           delta=st.sampled_from([0.3, 0.05, 1e-4]), slack=st.floats(1.0, 4.0))
    def test_reports_ledgers_and_streams_match(self, seed, n, entries, kind_set, coarse,
                                               log_epsilon, delta, slack):
        rng = np.random.default_rng(seed)
        masses = sparse_masses(rng, n)
        kinds = rng.choice(kind_set, size=entries).tolist()
        variables = shared_variables(random_tables(rng, kinds, n, coarse), masses,
                                     [FixedPointFormat()] * len(kinds))
        sigma = slack * max(math.sqrt(v.exact_variance()) for v in variables)
        seeds = rng.integers(0, 2**63, size=len(kinds)).tolist()
        batch, serial = run_both(variables, 2.0**-log_epsilon, delta, sigma, seeds)
        assert batch == serial

    def test_windowed_and_tailed_query_counts_both_covered(self):
        # M <= 128 puts every outcome in the window; larger M leaves tails.
        # At 2^-3 one batch mixes both, at 2^-14 every piece has tails.
        rng = np.random.default_rng(3)
        masses = sparse_masses(rng, 12)
        variables = shared_variables(random_tables(rng, ["mixed"] * 6, 12, False), masses,
                                     [FixedPointFormat()] * 6)
        sigma = max(math.sqrt(v.exact_variance()) for v in variables)
        for epsilon, windowed in ((2.0**-3, {True, False}), (2.0**-14, {False})):
            batch, serial = run_both(variables, epsilon, 0.1, sigma, range(6))
            assert batch == serial
            reports = qmontecarlo_batch(variables, epsilon, 0.1, sigma, range(6))
            assert {p.queries <= 128 for r in reports for p in r.pieces} == windowed

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["ok", "constant", "overflow", "variance", "cap"]),
                          min_size=1, max_size=12))
    def test_first_failing_entry_raises_as_in_order(self, seed, kinds):
        # At epsilon 2^-30 and sigma 4: "ok" rows span 2^-10 and need M near
        # 2^23; "cap" rows span 6 and need more than 2^30; "variance" rows
        # exceed sigma^2; "overflow" rows are off a 4-bit fraction grid.
        rng = np.random.default_rng(seed)
        n = 10
        masses = sparse_masses(rng, n)
        scale = 2.0**FixedPointFormat().frac_bits
        tables, fmts = [], []
        for kind in kinds:
            fmt = FixedPointFormat()
            if kind == "ok":
                row = np.round(rng.uniform(0.0, 2.0**-10, size=n) * scale) / scale
            elif kind == "constant":
                row = np.full(n, 0.75)
            elif kind == "overflow":
                fmt = FixedPointFormat(8, 4)
                row = rng.uniform(0.01, 0.04, size=n)
            elif kind == "variance":
                row = np.where(np.arange(n) % 2, 12.0, -12.0)
            else:
                row = np.where(np.arange(n) % 2, 3.0, -3.0)
            tables.append(row)
            fmts.append(fmt)
        variables = shared_variables(tables, masses, fmts)
        batch, serial = run_both(variables, 2.0**-30, 0.1, 4.0, range(len(kinds)))
        assert batch == serial

    def test_each_error_kind_is_raised(self):
        masses = np.full(4, 0.25)
        cases = [(Overflow, FixedPointFormat(8, 4), [0.01, 0.02, 0.03, 0.04]),
                 (VarianceExceeded, FixedPointFormat(), [-12.0, 12.0, -12.0, 12.0]),
                 (ScheduleViolation, FixedPointFormat(), [-3.0, 3.0, -3.0, 3.0])]
        for error, fmt, row in cases:
            ok = shared_variables([np.full(4, 0.5), np.array(row)], masses,
                                  [FixedPointFormat(), fmt])
            batch, serial = run_both(ok, 2.0**-30, 0.1, 4.0, [1, 2])
            assert batch == serial and batch[0] is error

    def test_mismatched_inputs_rejected(self):
        masses = np.full(4, 0.25)
        variables = shared_variables([np.zeros(4), np.ones(4)], masses,
                                     [FixedPointFormat()] * 2)
        with pytest.raises(ValueError, match="one generator per variable"):
            qmontecarlo_batch(variables, 0.1, 0.1, 1.0, [1])
        other = shared_variables([np.zeros(4)], masses.copy(), [FixedPointFormat()])
        with pytest.raises(ValueError, match="share sampling and masses"):
            qmontecarlo_batch(variables[:1] + other, 0.1, 0.1, 1.0, [1, 2])
        assert qmontecarlo_batch([], 0.1, 0.1, 1.0, []) == []


class TestClosedFormQueries:
    def test_matches_doubling_on_power_of_two_boundaries(self):
        budgets = list(np.geomspace(1e-13, 20.0, 300))
        caps = (0.0, 1e-12, 1e-4, 0.01, 0.2, 0.25, 0.3, 1.0, 5.0)
        for amp_cap in caps:
            spread = min(0.5, math.sqrt(amp_cap))
            for k in range(1, 33):
                m = 1 << k
                edge = 2.0 * math.pi * spread / m + math.pi**2 / m**2
                budgets += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
        for amp_cap in caps:
            for budget in budgets:
                outcomes = []
                for queries_for in (_queries_for, qmc_reference.queries_for):
                    try:
                        outcomes.append(queries_for(budget, amp_cap))
                    except ScheduleViolation as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (budget, amp_cap)


class TestBatchMemory:
    def test_gram_step_peak_bounded_by_block_budget(self):
        # 2-d chain, n = 60: one Gram step is 225 entries on 3,600 states,
        # 13 MB of value tables held by the variables themselves. The batch
        # works through blocks and chunks; its own peak stays near the budget.
        chain = discretize_brownian(2, 2, 60, 2.2)
        basis = hermite_basis(2, 4, 2, 4.0)
        circuits = StoppingCircuits(chain=chain, payoff=put_payoff(1.0), basis=basis,
                                    coefficients={})
        variables = [_basis_product_variable(circuits, 1, j, k)
                     for j in range(basis.size) for k in range(basis.size)]
        sup = sup_norm_bound(basis, chain)
        seeds = [np.random.SeedSequence(i) for i in range(len(variables))]
        tracemalloc.start()
        try:
            reports = qmontecarlo_batch(variables, 0.02 / basis.size, 1e-4, sup * sup, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == 225 and variables[0].masses.size == 3600
        assert peak <= _BATCH_BYTES + (2 << 20)

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
from qlsm.payoff import put_payoff
from qlsm.qsim import (CostWeights, EntryBatch, FixedPointFormat, FunctionOracle, QmcVariable,
                       QueryLedger, SamplingOracle, median_repetitions, qmontecarlo,
                       qmontecarlo_batch)
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

    def test_rounding_budget_guard(self):
        # Two fraction bits cannot carry a 1e-3 accuracy request.
        fmt = FixedPointFormat(4, 2)
        var = variable_from_values([0.3, 0.4, 0.55, 0.7], fmt=fmt)
        with pytest.raises(Overflow, match=r"epsilon/100 at this entry's epsilon 0\.001; .* "
                                            r"needs an epsilon of at least 1\.25$"):
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

    def test_cost_factor_is_unit_free_under_query_weights(self):
        # The ledger total and the per-application cost of the reference
        # weigh payoff queries alike, so scaling every weight together
        # leaves the factor as it is.
        var = variable_from_values([1.0, 0.0, 0.0, 0.0])
        factors = [qmontecarlo(var, 0.05, 0.1, 0.5, 1,
                               weights=CostWeights(scale, 10 * scale, 10 * scale)).cost_factor
                   for scale in (1.0, 3.0)]
        assert factors[0] == pytest.approx(factors[1], rel=1e-12)

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
        with pytest.raises(ScheduleViolation, match=(
                r"^entry 'h' needs more than the cap of 1073741824 amplitude-estimation "
                r"queries at its epsilon 1e-12; every entry of its batch fits the cap at an "
                r"epsilon of at least 2\.96e-09, though a later batch can still need more$")):
            qmontecarlo(var, 1e-12, 0.1, 1.0, 0)
        # The least epsilon it names is where the pieces start to fit.
        with pytest.raises(ScheduleViolation, match="at its epsilon 2.95e-09"):
            qmontecarlo(var, 2.95e-9, 0.1, 1.0, 0)
        assert qmontecarlo(var, 2.97e-9, 0.1, 1.0, 0).pieces

    def test_refusal_before_another_failure_covers_the_planned_entries(self):
        # Entries 0 and 2 span 6 and 12, past the cap at 2^-30; entry 1 is a
        # rounding shift of resolution/1000, more than 2^-30/100, so planning
        # stops at it and the refusal's epsilon covers entry 0 alone. At that
        # epsilon the shift passes and entry 2, planned at last, needs more.
        resolution = FixedPointFormat().resolution
        shifted = np.array([16.0, 32.0, 48.0, 64.0]) * resolution + resolution / 1000.0
        cap = np.array([-3.0, 3.0, -3.0, 3.0])
        batch = shared_batch([cap, shifted, 2.0 * cap], np.full(4, 0.25))
        head = ("entry '{}' needs more than the cap of 1073741824 amplitude-estimation "
                "queries at its epsilon {}; ")
        outcomes = run_both(batch, 2.0**-30, 0.1, 8.0, [1, 2, 3])
        assert outcomes == [(ScheduleViolation, head.format("entry[0]", "9.31e-10") + (
            "the entries of its batch before its first other failure fit the cap at an "
            "epsilon of at least 1.77e-08, though a later entry or batch can still need "
            "more"))] * 2
        outcomes = run_both(batch, 1.78e-8, 0.1, 8.0, [1, 2, 3])
        assert outcomes == [(ScheduleViolation, head.format("entry[2]", "1.78e-08") + (
            "every entry of its batch fits the cap at an epsilon of at least 7.09e-08, "
            "though a later batch can still need more"))] * 2
        assert all(report.pieces for report in
                   qmontecarlo_batch(batch, 7.1e-8, 0.1, 8.0, [1, 2, 3])[::2])


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


def shared_batch(tables, masses, fmt=None, rng=None):
    """One entry per value table, all on one law. Entry i is table i times a
    right column read at each row's state: a column of ones, or, given rng,
    one of three columns on a few states (ones, or quarters in 1/4..1), so
    that the values are products of two shared columns."""
    n, count = masses.size, len(tables)
    right, at, factors = np.ones((1, 1)), np.zeros(n, dtype=np.intp), [0] * count
    if rng is not None:
        states = int(rng.integers(1, n + 1))
        right = np.column_stack([np.ones(states), rng.integers(1, 5, size=(states, 2)) / 4.0])
        at, factors = rng.integers(0, states, size=n), rng.integers(0, 3, size=count).tolist()
    return EntryBatch(sampling=SamplingOracle(uniform_chain()), masses=masses,
                      fmt=fmt or FixedPointFormat(), query_cost={"basis": 2},
                      names=[f"entry[{i}]" for i in range(count)],
                      columns=list(zip(range(count), factors)),
                      left=np.column_stack(tables), right=right, at=at)


def entry_variables(batch):
    return [batch.variable(i) for i in range(len(batch.names))]


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


def run_both(batch, epsilon, delta, sigma, seeds):
    """(batch, serial reference) outcomes: reports, generator states and the
    caller's ledger, or the first error's type and message. The reference
    forms each entry's oracle just before estimating it, so an entry out of
    the format's range fails in its place."""
    outcomes = []
    for estimate in (
            lambda rngs, ledger: qmontecarlo_batch(batch, epsilon, delta, sigma, rngs,
                                                   ledger=ledger),
            lambda rngs, ledger: qmc_reference.qmontecarlo_entries(
                batch, epsilon, delta, sigma, rngs, ledger=ledger)):
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
        batch = shared_batch(random_tables(rng, kinds, n, coarse), masses, rng=rng)
        sigma = slack * max(math.sqrt(qmc_reference.exact_moments(v)[1])
                            for v in entry_variables(batch))
        seeds = rng.integers(0, 2**63, size=len(kinds)).tolist()
        estimated, serial = run_both(batch, 2.0**-log_epsilon, delta, sigma, seeds)
        assert estimated == serial

    def test_windowed_and_tailed_query_counts_both_covered(self):
        # M <= 128 puts every outcome in the window; larger M leaves tails.
        # At 2^-3 one batch mixes both, at 2^-14 every piece has tails.
        rng = np.random.default_rng(3)
        masses = sparse_masses(rng, 12)
        batch = shared_batch(random_tables(rng, ["mixed"] * 6, 12, False), masses)
        sigma = max(math.sqrt(qmc_reference.exact_moments(v)[1]) for v in entry_variables(batch))
        for epsilon, windowed in ((2.0**-3, {True, False}), (2.0**-14, {False})):
            estimated, serial = run_both(batch, epsilon, 0.1, sigma, range(6))
            assert estimated == serial
            reports = qmontecarlo_batch(batch, epsilon, 0.1, sigma, range(6))
            assert {p.queries <= 128 for r in reports for p in r.pieces} == windowed

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["ok", "constant", "range", "shift", "variance",
                                           "cap"]), min_size=1, max_size=12))
    def test_first_failing_entry_raises_as_in_order(self, seed, kinds):
        # At epsilon 2^-30 and sigma 4, on the default format: "ok" rows span
        # 2^-10 and need M near 2^23; "cap" rows span 6 and need more than
        # 2^30; "variance" rows exceed sigma^2; "range" rows hold a value
        # past the format's 2^8; "shift" rows are off the fraction grid, so
        # rounding moves their mean by more than epsilon/100.
        rng = np.random.default_rng(seed)
        n = 10
        masses = sparse_masses(rng, n)
        scale = 2.0**FixedPointFormat().frac_bits
        rows = {"constant": np.full(n, 0.75),
                "range": np.where(np.arange(n) == rng.integers(n), 300.0, 0.5),
                "variance": np.where(np.arange(n) % 2, 12.0, -12.0),
                "cap": np.where(np.arange(n) % 2, 3.0, -3.0)}
        tables = [np.round(rng.uniform(0.0, 2.0**-10, size=n) * scale) / scale if kind == "ok"
                  else rng.uniform(0.01, 0.04, size=n) if kind == "shift" else rows[kind]
                  for kind in kinds]
        estimated, serial = run_both(shared_batch(tables, masses), 2.0**-30, 0.1, 4.0,
                                     range(len(kinds)))
        assert estimated == serial

    def test_each_error_kind_is_raised(self):
        masses = np.full(4, 0.25)
        cases = [(Overflow, "not representable", FixedPointFormat(), [0.5, 300.0, 0.0, 0.25]),
                 (Overflow, "rounding shifts", FixedPointFormat(8, 4), [0.01, 0.02, 0.03, 0.04]),
                 (VarianceExceeded, "variance", FixedPointFormat(), [-12.0, 12.0, -12.0, 12.0]),
                 (ScheduleViolation, "cap", FixedPointFormat(), [-3.0, 3.0, -3.0, 3.0])]
        for error, message, fmt, row in cases:
            batch = shared_batch([np.full(4, 0.5), np.array(row)], masses, fmt)
            estimated, serial = run_both(batch, 2.0**-30, 0.1, 4.0, [1, 2])
            assert estimated == serial and estimated[0] is error and message in estimated[1]

    def test_out_of_range_entry_fails_after_earlier_entries(self):
        # Each block is formed and rounded when it is estimated, so an entry
        # past the format's range fails in its place: an earlier entry's
        # variance error raises first. Without it, the error names the entry
        # and its offending row.
        masses = np.full(4, 0.25)
        batch = shared_batch([np.full(4, 0.5), np.array([-12.0, 12.0, -12.0, 12.0]),
                              np.array([0.5, 300.0, 0.0, 0.25])], masses)
        with pytest.raises(VarianceExceeded):
            qmontecarlo_batch(batch, 2.0**-10, 0.1, 4.0, [1, 2, 3])
        with pytest.raises(Overflow, match=r"function 'entry\[2\]' not representable at "
                                            r"\(8,24\); offending row indices \[1\]"):
            qmontecarlo_batch(dataclasses.replace(batch, names=batch.names[::2],
                                                  columns=batch.columns[::2]),
                              2.0**-10, 0.1, 4.0, [1, 3])

    def test_mismatched_inputs_rejected(self):
        batch = shared_batch([np.zeros(4), np.ones(4)], np.full(4, 0.25))
        with pytest.raises(ValueError, match="one generator per entry"):
            qmontecarlo_batch(batch, 0.1, 0.1, 1.0, [1])
        empty = dataclasses.replace(batch, names=[], columns=[])
        assert qmontecarlo_batch(empty, 0.1, 0.1, 1.0, []) == []


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
        # 13 MB of raw and rounded value tables were they formed together.
        # The batch forms each block's tables only when it estimates the
        # block, so the peak of forming and estimating them stays near the
        # budget.
        chain = discretize_brownian(2, 2, 60, 2.2)
        basis = hermite_basis(2, 4, 2, 4.0)
        circuits = StoppingCircuits(chain=chain, payoff=put_payoff(1.0), basis=basis,
                                    coefficients={})
        sup = sup_norm_bound(basis, chain)
        seeds = [np.random.SeedSequence(i) for i in range(basis.size**2)]
        tracemalloc.start()
        try:
            batch = circuits.gram(1)
            reports = qmontecarlo_batch(batch, 0.02 / basis.size, 1e-4, sup * sup, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == 225 and batch.masses.size == 3600
        assert peak <= _BATCH_BYTES + (2 << 20)

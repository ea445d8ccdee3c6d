"""Value laws against their per-path references on random small chains.

Estimation reads each entry's law: a value table, a per-path label array and
row masses. The register replay of the composed circuit and the one-value-
per-path oracle stay as references; every law must reproduce them exactly.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlsm.basis import monomial_basis
from qlsm.chain import MarkovChainSpec, discretize_brownian
from qlsm.dp import CoefficientRule
from qlsm.payoff import table_payoff
from qlsm.qsim import (ControlledRotation, EstimationOperator, FixedPointFormat,
                       FunctionOracle, QmcVariable, qmontecarlo, sampling_oracle)
from qlsm.stopping_circuits import StoppingCircuits

FMT = FixedPointFormat()


def sparse_dirichlet(rng, n):
    """A probability row with some entries zero, so some states go unvisited."""
    p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
    if not p.any():
        p[rng.integers(n)] = 1.0
    return p / p.sum()


def random_circuits(seed, dim, n_states, horizon):
    rng = np.random.Generator(np.random.Philox(seed))
    grids = tuple(rng.uniform(-1.5, 1.5, size=(n_states, dim)) for _ in range(horizon))
    chain = MarkovChainSpec(
        dimension=dim, horizon=horizon, initial_state=np.zeros(dim), grids=grids,
        initial_distribution=sparse_dirichlet(rng, n_states),
        transitions=tuple(np.stack([sparse_dirichlet(rng, n_states)
                                    for _ in range(n_states)])
                          for _ in range(horizon - 1)))
    # Coarse payoff tables make ties and repeated stopped values common.
    tables = {t: rng.integers(0, 5, size=n_states) / 4.0 for t in range(1, horizon + 1)}
    basis = monomial_basis(dim, 1, horizon)
    coefficients = {t: FMT.quantize(rng.normal(scale=0.6, size=basis.size))
                    for t in range(1, horizon)}
    return StoppingCircuits(chain=chain, payoff=table_payoff(tables, 0.0), basis=basis,
                            coefficients=coefficients, fmt=FMT)


def per_path(var):
    """The same variable with one value per path and no labels."""
    oracle = var.oracle
    expanded = FunctionOracle(name=oracle.name, fmt=oracle.fmt,
                              raw_values=oracle.values[oracle.labels],
                              query_cost=dict(oracle.query_cost))
    return QmcVariable(sampling=var.sampling, oracle=expanded)


def plan(report):
    return [(p.part, p.low, p.high, p.queries, p.budget) for p in report.pieces]


chains = dict(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
              n_states=st.integers(1, 4), horizon=st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(**chains)
def test_stopped_payoff_law_matches_register_replay(seed, dim, n_states, horizon):
    circ = random_circuits(seed, dim, n_states, horizon)
    for t in range(1, horizon + 1):
        for member in range(circ.basis.size):
            var = circ.variable(t, member)
            law_values = var.oracle.values[var.oracle.labels]
            replay = circ.stopped_payoff_values(t, member)
            # Bit-for-bit, signed zeros included.
            np.testing.assert_array_equal(law_values.view(np.int64), replay.view(np.int64))
            assert abs(var.masses.sum() - 1.0) <= 1e-15
            assert (var.masses > 0.0).all()


@settings(max_examples=40, deadline=None)
@given(**chains)
def test_rule_scores_are_the_circuit_scores(seed, dim, n_states, horizon):
    # One fixed-point score: the rule's multiply-accumulate on the whole grid,
    # read at the present states, is the circuits' score table bit for bit,
    # equals a scalar replay that rounds after every multiply and add, and
    # both make the same stop decisions.
    circ = random_circuits(seed, dim, n_states, horizon)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    coefficients = {t: rng.normal(scale=2.0, size=circ.basis.size)
                    for t in range(1, horizon)}
    circ = StoppingCircuits(chain=circ.chain, payoff=circ.payoff, basis=circ.basis,
                            coefficients=coefficients, fmt=FMT)
    rule = CoefficientRule(circ.basis, coefficients, quantize=FMT.quantize)
    for t in range(1, horizon):
        states = circ.sampling.step_law(t).states
        rows = circ.basis.evaluate(t, circ.chain.grid(t))
        for state, score in zip(states, circ.score_table(t)):
            acc = 0.0
            for k in range(circ.basis.size):
                acc = FMT.quantize(acc + FMT.quantize(FMT.quantize(rows[state, k])
                                                      * FMT.quantize(coefficients[t][k])))
            assert acc == score
        np.testing.assert_array_equal(rule.scores(circ.chain, t)[states].view(np.int64),
                                      circ.score_table(t).view(np.int64))
        np.testing.assert_array_equal(rule.stop_mask(circ.chain, circ.payoff, t)[states],
                                      circ.payoff_table(t) >= circ.score_table(t))


@settings(max_examples=40, deadline=None)
@given(**chains)
def test_step_law_gathers_per_path_tables(seed, dim, n_states, horizon):
    circ = random_circuits(seed, dim, n_states, horizon)
    ens = circ.sampling.ensemble
    for t in range(1, horizon + 1):
        law = circ.sampling.step_law(t)
        idx = ens.state_indices_at(t)
        np.testing.assert_array_equal(law.states[law.labels], idx)
        np.testing.assert_array_equal(
            np.bincount(idx, ens.probabilities, minlength=circ.chain.n_states(t))[law.states],
            law.masses)
        rows = FMT.quantize(circ.basis.evaluate(t, circ.chain.grid(t))[idx])
        np.testing.assert_array_equal(circ.quantized_basis_rows(t), rows)


@settings(max_examples=25, deadline=None)
@given(entry=st.integers(0, 2**16), **chains)
def test_qmontecarlo_on_law_matches_per_path(entry, seed, dim, n_states, horizon):
    circ = random_circuits(seed, dim, n_states, horizon)
    t = 1 + entry % horizon
    var = circ.variable(t, entry % circ.basis.size)
    reference = per_path(var)
    sigma = 1.1 * np.sqrt(reference.exact_variance()) + 1e-3
    law_rep = qmontecarlo(var, 0.05, 0.2, sigma, entry)
    path_rep = qmontecarlo(reference, 0.05, 0.2, sigma, entry)
    assert law_rep.ledger.snapshot() == path_rep.ledger.snapshot()
    assert law_rep.center == path_rep.center
    assert plan(law_rep) == plan(path_rep)
    assert law_rep.exact_mean == pytest.approx(path_rep.exact_mean, abs=1e-12)
    for a, b in zip(law_rep.pieces, path_rep.pieces):
        assert abs(a.amplitude - b.amplitude) <= 1e-12


def abs_operator(var, high):
    """Preparation plus a rotation by |value| / high, through var's labels."""
    oracle = FunctionOracle(name="abs", fmt=FMT, raw_values=np.abs(var.oracle.values),
                            labels=var.oracle.labels)
    return EstimationOperator(sampling=var.sampling,
                              rotation=ControlledRotation(oracle=oracle, low=0.0, high=high))


@settings(max_examples=20, deadline=None)
@given(entry=st.integers(0, 2**16), **chains)
def test_register_writes_expand_through_labels(entry, seed, dim, n_states, horizon):
    circ = random_circuits(seed, dim, n_states, horizon)
    var = circ.variable(1 + entry % horizon, entry % circ.basis.size)
    reference = per_path(var)
    state = circ.sampling.prepare()
    var.oracle.apply(state, "law")
    reference.oracle.apply(state, "path")
    np.testing.assert_array_equal(state.register_bits("law"), state.register_bits("path"))

    high = float(np.max(np.abs(var.oracle.values))) + 1.0
    law_op, path_op = abs_operator(var, high), abs_operator(reference, high)
    assert law_op.good_probability() == pytest.approx(path_op.good_probability(), abs=1e-14)
    law_state, path_state = law_op.prepare(), path_op.prepare()
    np.testing.assert_array_equal(law_state.rotation, path_state.rotation)
    assert law_state.good_probability() == pytest.approx(law_op.good_probability(), abs=1e-14)


def test_constant_law_shortcut_matches_per_path():
    # A one-valued variable takes the one-sample zero-variance branch, billing
    # one preparation, however its masses round: the 512 criterion-6 path
    # probabilities sum to exactly 1.0 in path order but not lumped into one
    # row, and the 729 probabilities of the 2-d basket chain in neither order.
    for chain in (discretize_brownian(1, 3, 8, 2.2), discretize_brownian(2, 3, 3, 2.2)):
        sampling = sampling_oracle(chain)
        probs = sampling.ensemble.probabilities
        lumped = float(np.bincount(np.zeros(probs.size, int), probs)[0])
        assert {float(np.sum(probs)), lumped} != {1.0}
        oracle = FunctionOracle(name="one", fmt=FMT, raw_values=np.array([1.0]),
                                query_cost={"basis": 2}, labels=np.zeros(probs.size, int))
        var = QmcVariable(sampling=sampling, oracle=oracle)
        law_rep = qmontecarlo(var, 0.05, 0.1, 1.0, 3)
        path_rep = qmontecarlo(per_path(var), 0.05, 0.1, 1.0, 3)
        assert law_rep.exact_variance == path_rep.exact_variance == 0.0
        assert law_rep.ledger.snapshot() == path_rep.ledger.snapshot()
        assert law_rep.ledger.state_preparations == 1 and not law_rep.pieces
        assert law_rep.estimate == path_rep.estimate == law_rep.exact_mean == 1.0

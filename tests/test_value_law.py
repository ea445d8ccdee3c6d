"""Value laws against their per-path references on random small chains.

Estimation reads each entry's law: a value table and the masses of its rows,
computed from the chain by dynamic programs, never from enumerated paths.
The register replay of the composed circuit over the enumerated paths
(qlsm.reference) is the reference; every law must reproduce it exactly.
"""
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmc_reference import exact_moments
from qlsm.basis import monomial_basis
from qlsm.chain import MarkovChainSpec, discretize_brownian, enumerate_paths
from qlsm.dp import CoefficientRule, stop_decision
from qlsm.payoff import PayoffSpec
from qlsm.qsim import (ControlledRotation, EstimationOperator, FixedPointFormat,
                       FunctionOracle, QmcVariable, SamplingOracle, qmontecarlo)
from qlsm.reference import (apply_oracle, path_stop_times, prepare, prepare_operator,
                            stopped_payoff_values, table_payoff)
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


def per_path(circ, t, member):
    """The stopped payoff at (t, member) as a per-path variable: the register
    replay's values with the path probabilities as masses."""
    oracle = FunctionOracle(name=f"stopped_payoff[t={t},m={member}]", fmt=FMT,
                            raw_values=stopped_payoff_values(circ, t, member),
                            query_cost=circ.composed_cost(t))
    return QmcVariable(sampling=circ.sampling, oracle=oracle,
                       masses=enumerate_paths(circ.chain).probabilities)


def path_keys(circ, t):
    """Each path's row key in the stopped law at t: its state at step t-1 (0,
    the start point, at t=1) and the quantized payoff at its first stop at or
    after t, as the rows of an (N, 2) array."""
    ens = enumerate_paths(circ.chain)
    tau = path_stop_times(circ.chain, ens.indices, lambda u, later: stop_decision(
        circ.payoff_table(u), circ.score_table(u)))[:, t - 1]
    payoff = np.empty(len(ens))
    for u in range(t, circ.chain.horizon + 1):
        at = tau == u
        payoff[at] = circ.payoff_table(u)[ens.state_indices_at(u)[at]]
    prev = ens.state_indices_at(t - 1) if t > 1 else np.zeros(len(ens), dtype=np.int64)
    return np.column_stack([prev, payoff])


def law_support(circ, t):
    """The distinct path keys, ascending, and each path's index among them."""
    support, inverse = np.unique(path_keys(circ, t), axis=0, return_inverse=True)
    return support, inverse.ravel()


def present_states(chain, t):
    """The step-t grid states of positive marginal mass."""
    return np.flatnonzero(chain.marginals[t - 1] > 0.0)


def plan(report):
    return [(p.part, p.low, p.high, p.queries, p.budget) for p in report.pieces]


chains = dict(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
              n_states=st.integers(1, 4), horizon=st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(**chains)
def test_stopped_payoff_law_matches_register_replay(seed, dim, n_states, horizon):
    # The DP law is the replay lumped by (state at t-1, stopped payoff): the
    # same support, every path of a row carrying the row's value bit for bit,
    # signed zeros included, and masses summing the path probabilities.
    circ = random_circuits(seed, dim, n_states, horizon)
    probs = enumerate_paths(circ.chain).probabilities
    for t in range(1, horizon + 1):
        support, inverse = law_support(circ, t)
        targets = circ.targets(t)
        masses, payoff, prev = targets.masses, targets.left[:, 0], targets.at
        np.testing.assert_array_equal(np.column_stack([prev, payoff]), support)
        np.testing.assert_allclose(masses, np.bincount(inverse, probs), rtol=0, atol=1e-14)
        assert abs(masses.sum() - 1.0) <= 1e-15
        assert (masses > 0.0).all()
        for member in range(circ.basis.size):
            var = circ.variable(t, member)
            replay = stopped_payoff_values(circ, t, member)
            np.testing.assert_array_equal(var.oracle.values[inverse].view(np.int64),
                                          replay.view(np.int64))
            np.testing.assert_array_equal(var.masses, masses)


@settings(max_examples=40, deadline=None)
@given(**chains)
def test_rule_scores_are_the_circuit_scores(seed, dim, n_states, horizon):
    # One fixed-point score: at the present states, the rule's
    # multiply-accumulate on the whole grid is the circuits' score table bit
    # for bit, equals a scalar replay that rounds after every multiply and
    # add, and both make the same stop decisions.
    circ = random_circuits(seed, dim, n_states, horizon)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    coefficients = {t: rng.normal(scale=2.0, size=circ.basis.size)
                    for t in range(1, horizon)}
    circ = StoppingCircuits(chain=circ.chain, payoff=circ.payoff, basis=circ.basis,
                            coefficients=coefficients, fmt=FMT)
    rule = CoefficientRule(circ.basis, coefficients, quantize=FMT.quantize)
    for t in range(1, horizon):
        states = present_states(circ.chain, t)
        rows = circ.basis.evaluate(t, circ.chain.grid(t))
        scores = circ.score_table(t)[states]
        for state, score in zip(states, scores):
            acc = 0.0
            for k in range(circ.basis.size):
                acc = FMT.quantize(acc + FMT.quantize(FMT.quantize(rows[state, k])
                                                      * FMT.quantize(coefficients[t][k])))
            assert acc == score
        np.testing.assert_array_equal(rule.scores(circ.chain, t)[states].view(np.int64),
                                      scores.view(np.int64))
        np.testing.assert_array_equal(rule.stop_mask(circ.chain, circ.payoff, t)[states],
                                      circ.payoff_table(t)[states] >= scores)


@settings(max_examples=40, deadline=None)
@given(**chains)
def test_step_law_gathers_per_path_tables(seed, dim, n_states, horizon):
    # The step law is the chain's marginal: its positive-mass states are the
    # states some path visits, with their summed path probabilities, and the
    # per-path views gather the grid tables.
    circ = random_circuits(seed, dim, n_states, horizon)
    ens = enumerate_paths(circ.chain)
    for t in range(1, horizon + 1):
        states = present_states(circ.chain, t)
        idx = ens.state_indices_at(t)
        np.testing.assert_array_equal(states, np.flatnonzero(np.bincount(idx)))
        np.testing.assert_allclose(circ.chain.marginals[t - 1][states],
                                   np.bincount(idx, ens.probabilities)[states],
                                   rtol=0, atol=1e-14)
        rows = FMT.quantize(circ.basis.evaluate(t, circ.chain.grid(t))[idx])
        np.testing.assert_array_equal(circ.basis_table(t)[idx], rows)


@dataclass(eq=False)
class PinnedSampling(SamplingOracle):
    """Draws and bills as usual but reports one fixed row every shot, so the
    rough center is that row's value and the generator stays in step."""

    row: int = 0

    def measure(self, cdf, count, rng, ledger=None):
        super().measure(cdf, count, rng, ledger)
        return np.full(count, self.row)


def pinned(var, center):
    """var with its rough center fixed at `center`, a value of its support."""
    row = int(np.flatnonzero((var.oracle.values == center) & (var.masses > 0.0))[0])
    return QmcVariable(sampling=PinnedSampling(var.sampling.chain, row=row),
                       oracle=var.oracle, masses=var.masses)


@settings(max_examples=25, deadline=None)
@given(entry=st.integers(0, 2**16), **chains)
def test_qmontecarlo_on_law_matches_per_path(entry, seed, dim, n_states, horizon):
    # Law rows and paths are drawn differently for the rough center, so it
    # is fixed here; from there the ledger, the piece plan and the
    # amplitudes must agree.
    circ = random_circuits(seed, dim, n_states, horizon)
    t, member = 1 + entry % horizon, entry % circ.basis.size
    var = circ.variable(t, member)
    reference = per_path(circ, t, member)
    sigma = 1.1 * np.sqrt(exact_moments(reference)[1]) + 1e-3
    support = var.oracle.values[var.masses > 0.0]
    center = float(support[entry % support.size])
    law_rep = qmontecarlo(pinned(var, center), 0.05, 0.2, sigma, entry)
    path_rep = qmontecarlo(pinned(reference, center), 0.05, 0.2, sigma, entry)
    assert law_rep.ledger.snapshot() == path_rep.ledger.snapshot()
    assert law_rep.center == path_rep.center == center
    assert plan(law_rep) == plan(path_rep)
    assert law_rep.exact_mean == pytest.approx(path_rep.exact_mean, abs=1e-12)
    for a, b in zip(law_rep.pieces, path_rep.pieces):
        assert abs(a.amplitude - b.amplitude) <= 1e-12


def abs_operator(var, high):
    """Preparation plus a rotation by |value| / high, weighed by var's masses."""
    oracle = FunctionOracle(name="abs", fmt=FMT, raw_values=np.abs(var.oracle.values))
    return EstimationOperator(sampling=var.sampling, masses=var.masses,
                              rotation=ControlledRotation(oracle=oracle, low=0.0, high=high))


@settings(max_examples=20, deadline=None)
@given(entry=st.integers(0, 2**16), **chains)
def test_register_writes_match_law_rows(entry, seed, dim, n_states, horizon):
    # The replay oracle writes each path its law row's bits, and the rotated
    # path state flags the probability the law's operator computes.
    circ = random_circuits(seed, dim, n_states, horizon)
    t, member = 1 + entry % horizon, entry % circ.basis.size
    var = circ.variable(t, member)
    reference = per_path(circ, t, member)
    _, inverse = law_support(circ, t)
    state = prepare(circ.sampling)
    apply_oracle(reference.oracle, state, "path")
    np.testing.assert_array_equal(state.register_bits("path"),
                                  FMT.to_bits(var.oracle.values)[inverse])

    high = float(np.max(np.abs(var.oracle.values))) + 1.0
    law_op, path_op = abs_operator(var, high), abs_operator(reference, high)
    assert law_op.amplitude == pytest.approx(path_op.amplitude, abs=1e-14)
    assert prepare_operator(path_op).good_probability() == pytest.approx(law_op.amplitude,
                                                                         abs=1e-14)


def test_constant_law_shortcut_matches_per_path():
    # A one-valued variable takes the one-sample zero-variance branch, billing
    # one preparation, however its masses round: the 512 criterion-6 path
    # probabilities sum to exactly 1.0 in path order but not lumped into one
    # row, and the 729 probabilities of the 2-d basket chain in neither order.
    for chain in (discretize_brownian(1, 3, 8, 2.2), discretize_brownian(2, 3, 3, 2.2)):
        sampling = SamplingOracle(chain)
        probs = enumerate_paths(chain).probabilities
        lumped = np.bincount(np.zeros(probs.size, int), probs)
        assert {float(np.sum(probs)), float(lumped[0])} != {1.0}
        law = QmcVariable(sampling=sampling, masses=lumped, oracle=FunctionOracle(
            name="one", fmt=FMT, raw_values=np.array([1.0]), query_cost={"basis": 2}))
        paths = QmcVariable(sampling=sampling, masses=probs, oracle=FunctionOracle(
            name="one", fmt=FMT, raw_values=np.ones(probs.size), query_cost={"basis": 2}))
        law_rep = qmontecarlo(law, 0.05, 0.1, 1.0, 3)
        path_rep = qmontecarlo(paths, 0.05, 0.1, 1.0, 3)
        assert law_rep.exact_variance == path_rep.exact_variance == 0.0
        assert law_rep.ledger.snapshot() == path_rep.ledger.snapshot()
        assert law_rep.ledger.state_preparations == 1 and not law_rep.pieces
        assert law_rep.estimate == path_rep.estimate == law_rep.exact_mean == 1.0


def test_stopped_law_keeps_only_the_live_step():
    # An injective payoff on a 1-d chain, n = 1000 per step, T = 3: C = 3000
    # distinct values, so each C x n array of the induction is 24 MB. The law
    # at t=1 needs values[1] alone; holding every step's values and
    # continuation arrays (five of them) peaked at 123 MB. With one step in
    # hand the peak is three such arrays and the step's indicators.
    chain = discretize_brownian(1, 3, 1000, 2.2)
    basis = monomial_basis(1, 2, 3)
    circ = StoppingCircuits(
        chain=chain, payoff=PayoffSpec(step_function=lambda t, pts: np.exp(pts[:, 0]) + 0.1 * t),
        basis=basis, coefficients={t: np.array([1.5, 0.5, 0.1]) for t in (1, 2)}, fmt=FMT)
    for t in range(1, 4):
        circ.payoff_table(t)
        circ.basis_table(t)
    for t in (1, 2):
        circ.score_table(t)
    chain.marginals
    tracemalloc.start()
    try:
        masses = circ.targets(1).masses
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.unique(np.concatenate([circ.payoff_table(t) for t in (1, 2, 3)])).size == 3000
    assert abs(masses.sum() - 1.0) <= 1e-12
    assert peak <= 80e6

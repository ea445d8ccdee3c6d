"""Product chains stored as one block's factors, against the same chains
stored dense.

``discretize_brownian``/``_gbm`` keep the 1-d initial law and transitions
and the number of copies; ``chain.push``, ``chain.expect`` and sampling
apply the factor one block at a time. The dense reference is the chain's own
JSON, which writes the full Kronecker powers and reads back as a chain of
copies=1.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qlsm.chain as chain_module
from qlsm.basis import hermite_basis
from qlsm.chain import (MarkovChainSpec, _product_chain, discretize_brownian,
                        discretize_gbm, sample_paths)
from qlsm.dp import CoefficientRule, continuation_values, snell_envelope
from qlsm.lsm_classical import run_classical_lsm
from qlsm.payoff import put_payoff
from qlsm.qsim.fixed_point import FixedPointFormat
from qlsm.reference import table_payoff
from qlsm.stopping_circuits import StoppingCircuits

TOL = 1e-14


def sparse_row(rng, n):
    """A probability row over n states with some zero entries."""
    p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.8)
    if not p.any():
        p[rng.integers(n)] = 1.0
    return p / p.sum()


def random_product_chain(seed, dim, n, horizon):
    """dim copies of a random 1-d chain whose first grid has n points and
    later grids 2..5 points, so factors are not all square."""
    rng = np.random.Generator(np.random.Philox(seed))
    sizes = [n, *rng.integers(2, 6, size=horizon - 1)]
    grids = [np.sort(rng.uniform(-2.0, 2.0, size=m)) for m in sizes]
    mats = [np.stack([sparse_row(rng, sizes[t + 1]) for _ in range(sizes[t])])
            for t in range(horizon - 1)]
    return _product_chain(dim, grids, sparse_row(rng, n), mats, np.zeros(dim), None)


def dense_copy(chain):
    return MarkovChainSpec.from_json(chain.to_json())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]),
       n=st.integers(2, 5), horizon=st.integers(2, 4), draw_seed=st.integers(0, 2**32 - 1))
def test_factored_chain_matches_dense(seed, dim, n, horizon, draw_seed):
    chain = random_product_chain(seed, dim, n, horizon)
    dense = dense_copy(chain)
    rng = np.random.Generator(np.random.Philox(draw_seed))

    # The JSON round trip writes the full law and kernels.
    assert chain.copies == dim and dense.copies == 1
    np.testing.assert_array_equal(dense.initial_distribution, chain.marginals[0])
    for t in range(1, horizon):
        np.testing.assert_array_equal(dense.transitions[t - 1], chain.transition(t))
    assert dense.to_json() == chain.to_json()

    for a, b in zip(chain.marginals, dense.marginals):
        np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL)

    payoff = table_payoff({t: rng.uniform(0.0, 1.0, size=chain.n_states(t))
                           for t in range(1, horizon + 1)}, start_value=0.25)
    for a, b in zip(snell_envelope(chain, payoff).values,
                    snell_envelope(dense, payoff).values):
        np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL)

    basis = hermite_basis(dim, 1, horizon, 4.0)
    coefficients = {t: rng.normal(0.0, 0.5, size=basis.size) for t in range(1, horizon)}
    rule = CoefficientRule(basis, coefficients, quantize=FixedPointFormat().quantize)
    for t in range(horizon):
        np.testing.assert_allclose(continuation_values(chain, payoff, rule, t),
                                   continuation_values(dense, payoff, rule, t),
                                   rtol=TOL, atol=TOL)

    factored, flat = (StoppingCircuits(chain=c, payoff=payoff, basis=basis,
                                       coefficients=coefficients) for c in (chain, dense))
    for t in range(1, horizon + 1):
        law, ref = factored.targets(t), flat.targets(t)
        np.testing.assert_allclose(law.masses, ref.masses, rtol=TOL, atol=TOL)
        for a, b in ((law.left, ref.left), (law.right, ref.right), (law.at, ref.at)):
            np.testing.assert_array_equal(a, b)

    np.testing.assert_array_equal(sample_paths(chain, 300, draw_seed),
                                  sample_paths(dense, 300, draw_seed))


def test_no_dense_kronecker_power_on_product_chains(monkeypatch):
    # Building, the exact oracle, the marginals, sampling and a classical run
    # never form a Kronecker power of a transition matrix.
    kron_power = chain_module._kron_power

    def vector_powers_only(mat, dim):
        assert mat.ndim == 1 or dim == 1, "dense transition built"
        return kron_power(mat, dim)

    monkeypatch.setattr(chain_module, "_kron_power", vector_powers_only)
    payoff = put_payoff(1.0)
    for chain in (discretize_brownian(3, 3, 12, 2.2), discretize_gbm(2, 3, 9, 2.5)):
        assert chain.marginals[-1].shape == (chain.n_states(chain.horizon),)
        snell_envelope(chain, payoff)
        sample_paths(chain, 1000, 1)
        basis = hermite_basis(chain.dimension, 2, chain.horizon, 4.0)
        run_classical_lsm(chain, payoff, basis, 2000, 1)
    with pytest.raises(AssertionError, match="dense transition built"):
        chain.transition(1)


def test_four_dimensional_classical_run_memory():
    # d=4, n=10: a dense transition would be 10^8 entries (800 MB) per step.
    tracemalloc.start()
    try:
        chain = discretize_brownian(4, 3, 10, 2.2)
        run = run_classical_lsm(chain, put_payoff(1.0),
                                hermite_basis(4, 2, 3, 4.0), 100_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2**20
    assert np.isfinite(run.estimate)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]),
       n=st.integers(2, 5), horizon=st.integers(2, 4), k=st.integers(1, 4))
def test_expect_batches_over_leading_axes(seed, dim, n, horizon, k):
    # A (k, n_{t+1}) array is k value vectors, one per row; a 1-d vector
    # goes through the kernel as it always did, bit for bit.
    chain = random_product_chain(seed, dim, n, horizon)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    for t in range(horizon):
        values = rng.normal(size=(k, chain.n_states(t + 1)))
        kernel = chain.marginals[0][None, :] if t == 0 else chain.transition(t)
        np.testing.assert_allclose(chain.expect(t, values), values @ kernel.T,
                                   rtol=TOL, atol=TOL)
        vector = values[0]
        if t == 0:
            single = np.array([float(chain.marginals[0] @ vector)])
        elif dim == 1:
            single = chain.transitions[t - 1] @ vector
        else:
            single = chain_module._apply_factor(vector, chain.transitions[t - 1].T, dim)
        np.testing.assert_array_equal(chain.expect(t, vector).view(np.int64),
                                      single.view(np.int64))


def test_stopped_law_memory(monkeypatch):
    # d=3, n=10: the law at t=2 lumps 1,638,000 (stop state, step-1 state)
    # pairs into 37,000 (step-1 state, payoff value) rows, without a dense
    # transition or a start law per step-1 state.
    kron_power = chain_module._kron_power

    def vector_powers_only(mat, dim):
        assert mat.ndim == 1 or dim == 1, "dense transition built"
        return kron_power(mat, dim)

    monkeypatch.setattr(chain_module, "_kron_power", vector_powers_only)
    chain = discretize_brownian(3, 3, 10, 2.2)
    basis = hermite_basis(3, 2, 3, 4.0)
    circ = StoppingCircuits(chain=chain, payoff=put_payoff(1.0),
                            basis=basis, coefficients={
                                t: np.linspace(0.6, -0.3, basis.size) for t in (1, 2)})
    for t in range(1, 4):
        circ.payoff_table(t)
        circ.basis_table(t)
    for t in (1, 2):
        circ.score_table(t)
    tracemalloc.start()
    try:
        targets = circ.targets(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert targets.masses.size == targets.left.size == targets.at.size == 37_000
    assert abs(targets.masses.sum() - 1.0) <= 1e-12

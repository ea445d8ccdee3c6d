"""Path sampling against the dense per-path cumulative-row reference.

``sample_paths`` draws each step by a binary search on the chain's cached row
CDFs. The dense reference below gathers the full cumulative row of every
path and counts the entries below the uniform draw; both read the same
Philox stream, so their indices must agree exactly, seed by seed.
"""
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from qlsm.chain import (MarkovChainSpec, _count_below, discretize_brownian,
                        sample_path, sample_paths)


def dense_sample_paths(chain, count, seed):
    """The per-path gather that sampling used before the row search."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    out = np.empty((count, chain.horizon), dtype=np.int64)
    cum = np.cumsum(chain.initial_distribution)
    out[:, 0] = np.searchsorted(cum, rng.random(count), side="right")
    np.clip(out[:, 0], 0, chain.n_states(1) - 1, out=out[:, 0])
    for t in range(1, chain.horizon):
        cum_rows = np.cumsum(chain.transition(t), axis=1)[out[:, t - 1]]
        u = rng.random(count)
        out[:, t] = (cum_rows < u[:, None]).sum(axis=1)
        np.clip(out[:, t], 0, chain.n_states(t + 1) - 1, out=out[:, t])
    return out


def sparse_row(rng, n, live):
    """A probability row over n states, zero beyond the first `live` and at
    some random entries before it."""
    p = np.zeros(n)
    p[:live] = rng.dirichlet(np.ones(live)) * (rng.random(live) < 0.7)
    if not p.any():
        p[rng.integers(live)] = 1.0
    return p / p.sum()


def random_chain(seed, dim, horizon):
    """Per-step sizes 1..6, zero entries, and zero-mass trailing columns."""
    rng = np.random.Generator(np.random.Philox(seed))
    sizes = rng.integers(1, 7, size=horizon)
    live = [int(rng.integers(1, n + 1)) for n in sizes]  # columns that carry mass
    grids = tuple(rng.uniform(-1.5, 1.5, size=(n, dim)) for n in sizes)
    mats = tuple(np.stack([sparse_row(rng, sizes[t + 1], live[t + 1])
                           for _ in range(sizes[t])])
                 for t in range(horizon - 1))
    return MarkovChainSpec(dimension=dim, horizon=horizon, initial_state=np.zeros(dim),
                           grids=grids, initial_distribution=sparse_row(rng, sizes[0], live[0]),
                           transitions=mats)


chains = dict(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
              horizon=st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(**chains, draw_seed=st.integers(0, 2**32 - 1), count=st.integers(1, 300))
def test_indices_match_dense_reference(seed, dim, horizon, draw_seed, count):
    chain = random_chain(seed, dim, horizon)
    np.testing.assert_array_equal(sample_paths(chain, count, draw_seed),
                                  dense_sample_paths(chain, count, draw_seed))
    assert sample_path(chain, draw_seed).indices == tuple(sample_paths(chain, 1, draw_seed)[0])


@settings(max_examples=60, deadline=None)
@given(**chains)
def test_row_search_counts_ties_exactly(seed, dim, horizon):
    # Draws equal to a CDF entry, or one ulp either side of it, are where a
    # lower bound and a strict count could part; flat runs from zero entries
    # repeat values.
    chain = random_chain(seed, dim, max(horizon, 2))
    cdf = chain.row_cdfs[0]
    n = cdf.shape[1]
    vals = np.unique(np.concatenate([cdf.ravel(), [0.0, 1.0]]))
    u = np.concatenate([vals, np.nextafter(vals, -1.0), np.nextafter(vals, 2.0)])
    rows = np.repeat(np.arange(cdf.shape[0]), u.size)
    u = np.tile(u, cdf.shape[0])
    expected = (cdf[rows] < u[:, None]).sum(axis=1)
    np.testing.assert_array_equal(np.minimum(_count_below(cdf, rows, u), n), expected)


def test_row_cdfs_cached_per_chain():
    chain = discretize_brownian(1, 3, 5, 2.0)
    first = chain.row_cdfs
    sample_paths(chain, 10, 0)
    assert chain.row_cdfs is first
    for P, cdf in zip(chain.transitions, first):
        np.testing.assert_array_equal(cdf, np.cumsum(P, axis=1))
        assert not cdf.flags.writeable


def test_sampling_memory_does_not_scale_with_states():
    # 20k paths on 1,728 states per step: a per-path cumulative-row gather
    # would take 276 MB per step.
    chain = discretize_brownian(3, 3, 12, 2.2)
    sample_paths(chain, 10, 0)  # fills the row-CDF cache
    tracemalloc.start()
    try:
        sample_paths(chain, 20_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20

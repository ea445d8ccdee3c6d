"""Path sampling against the dense per-path cumulative-row reference.

``sample_paths`` draws each step from the chain's cached row CDFs: a guide
table answers most draws with one lookup and a binary search counts the
rest. The dense reference below gathers the full cumulative row of every
path and counts the entries below the uniform draw; both read the same
Philox stream, so their indices must agree exactly, seed by seed.
"""
import hashlib
import tracemalloc

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from qlsm.chain import (_GUIDE_BYTES, MarkovChainSpec, _count_below, _guide_table, _invert,
                        _product_chain, _sample_index_matrix, discretize_brownian, sample_paths)


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


def random_factors(seed, sizes):
    """Initial law and transitions over per-step sizes, with zero entries
    and zero-mass trailing columns."""
    rng = np.random.Generator(np.random.Philox(seed))
    live = [int(rng.integers(1, n + 1)) for n in sizes]
    mats = [np.stack([sparse_row(rng, sizes[t + 1], live[t + 1]) for _ in range(sizes[t])])
            for t in range(len(sizes) - 1)]
    grids = [np.sort(rng.uniform(-2.0, 2.0, size=n)) for n in sizes]
    return grids, sparse_row(rng, sizes[0], live[0]), mats


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 3),
       sizes=st.lists(st.integers(1, 20), min_size=1, max_size=3),
       draw_seed=st.integers(0, 2**32 - 1))
def test_product_chain_indices_match_dense_reference(seed, copies, sizes, draw_seed):
    # The dense reference inverts each full Kronecker row; keep it small.
    assume(max(sizes) ** copies <= 400)
    grids, init, mats = random_factors(seed, sizes)
    chain = _product_chain(copies, grids, init, mats, np.zeros(copies), None)
    dense = MarkovChainSpec.from_json(chain.to_json())
    np.testing.assert_array_equal(sample_paths(chain, 300, draw_seed),
                                  dense_sample_paths(dense, 300, draw_seed))


def boundary_draws(cdf, buckets):
    """0, every CDF entry and one ulp either side, the bucket edges g/G and
    one ulp either side, 1 - 2^-53, 1, inf and NaN."""
    edges = np.arange(buckets + 1) / buckets
    vals = np.unique(np.concatenate([cdf.ravel(), edges, [0.0, 1.0 - 2.0**-53]]))
    return np.concatenate([vals, np.nextafter(vals, -1.0), np.nextafter(vals, 2.0),
                           [np.inf, np.nan]])


def check_boundary_draws(cdf, guide, first):
    n = cdf.shape[1]
    u = boundary_draws(cdf, guide.shape[1] - 1)
    u = u[~(u < 0.0)]
    rows = np.repeat(np.arange(cdf.shape[0]), u.size)
    u = np.tile(u, cdf.shape[0])
    if first:
        expected = (cdf[rows] <= u[:, None]).sum(axis=1)
        expected[np.isnan(u)] = n  # searchsorted sorts NaN last
    else:
        expected = (cdf[rows] < u[:, None]).sum(axis=1)
    got = _invert(cdf, guide, rows, u.copy(), first)
    np.testing.assert_array_equal(got, np.minimum(expected, n - 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 20), min_size=2, max_size=3))
def test_guided_counts_match_reference_at_boundaries(seed, sizes):
    grids, init, mats = random_factors(seed, sizes)
    chain = _product_chain(1, grids, init, mats, np.zeros(1), None)
    for t, (cdf, guide) in enumerate(chain.sampling_tables):
        assert guide is not None
        check_boundary_draws(cdf, guide, t == 0)


def test_guided_counts_clip_on_rows_ending_below_one():
    # Rows ending well below 1 leave buckets past their last entry whose
    # count is n, clipped to n-1; chains validate rows to 1e-12, so only
    # the table on its own reaches them.
    cdf = np.array([[0.125, 0.25, 0.5], [0.0, 0.0, 0.3], [0.3, 0.3, 0.3]])
    guide = _guide_table(cdf, 1 << 20)
    for first in (True, False):
        check_boundary_draws(cdf[:1] if first else cdf, guide[:1] if first else guide, first)


class ZeroUniforms:
    """A generator stand-in whose every uniform is exactly 0.0."""

    def random(self, size):
        return np.zeros(size)


def test_zero_uniform_skips_zero_mass_transition():
    # From state 1 the move to state 0 has mass 0; u = 0.0 must not pick it.
    grid = np.array([[0.0], [1.0]])
    chain = MarkovChainSpec(dimension=1, horizon=2, initial_state=np.zeros(1),
                            grids=(grid, grid), initial_distribution=np.array([0.0, 1.0]),
                            transitions=(np.array([[0.5, 0.5], [0.0, 1.0]]),))
    np.testing.assert_array_equal(_sample_index_matrix(chain, 2, ZeroUniforms()),
                                  [[1, 1], [1, 1]])


def test_three_dimensional_draws_pinned():
    # Digests of the indices as drawn before guide tables, binary search
    # alone: the tables change no index.
    chain = discretize_brownian(3, 3, 12, 2.2)
    digests = [hashlib.sha256(sample_paths(chain, 100_000, s).tobytes()).hexdigest()
               for s in range(3)]
    assert digests == [
        "4d8ed08449b57a02e493243c3d535daf43fb3323acc40c09d8ffbe60ef6a47fc",
        "24563ea5daf20c952e091e37bc9e09e940ff34a647dd8393e7348c90962e7f9c",
        "665ff8b9dda4beaaab6ebeba9c60aa556b1004aa3eab039f1aee0b02eebd1d37",
    ]


def test_guide_tables_stay_under_cap():
    # n = 1000 rows would need G >= 4000 buckets, 8 MB per factor: the
    # factors are searched, and only the one-row initial law has a table.
    chain = discretize_brownian(1, 3, 1000, 3.0)
    guides = [guide for _, guide in chain.sampling_tables]
    assert sum(guide.nbytes for guide in guides if guide is not None) <= _GUIDE_BYTES
    assert guides[1:] == [None, None]
    small = discretize_brownian(3, 3, 12, 2.2)
    for _, guide in small.sampling_tables:
        assert guide.shape[1] - 1 == 256 and guide.dtype == np.int8
        assert not guide.flags.writeable

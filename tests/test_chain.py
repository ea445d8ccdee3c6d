import functools
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from qlsm.chain import (MarkovChainSpec, _normal_cdf, discretize_brownian,
                        discretize_gbm, enumerate_paths, sample_paths)
from qlsm.errors import CapExceeded


def moment(chain, t, order, coord=0):
    """Exact E[X_{t,coord}^order]: a sum over the step-t marginal."""
    return float(np.sum(chain.marginals[t - 1] * chain.grid(t)[:, coord] ** order))


def two_state_fair_chain(horizon=2):
    grids = tuple(np.array([[0.0], [1.0]]) for _ in range(horizon))
    mats = tuple(np.full((2, 2), 0.5) for _ in range(horizon - 1))
    return MarkovChainSpec(dimension=1, horizon=horizon, initial_state=[0.0],
                           grids=grids, initial_distribution=[0.5, 0.5],
                           transitions=mats)


def single_path_chain():
    return MarkovChainSpec(
        dimension=1, horizon=3, initial_state=[0.0],
        grids=tuple(np.array([[float(t)]]) for t in range(1, 4)),
        initial_distribution=[1.0],
        transitions=(np.ones((1, 1)), np.ones((1, 1))))


class TestValidation:
    def test_row_sum_checked(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MarkovChainSpec(dimension=1, horizon=2, initial_state=[0.0],
                            grids=(np.array([[0.0]]), np.array([[0.0]])),
                            initial_distribution=[1.0],
                            transitions=(np.array([[0.5]]),))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            MarkovChainSpec(dimension=1, horizon=1, initial_state=[0.0],
                            grids=(np.array([[0.0], [1.0]]),),
                            initial_distribution=[1.5, -0.5], transitions=())

    @pytest.mark.parametrize("bad_row, message", [
        ([0.7, 0.25, 0.25, 0.25], r"^transition 1->2 row 2 does not sum to 1 \(off by 4\.50e-01\)$"),
        ([-0.1, 0.35, 0.5, 0.25], r"^transition 1->2 row 2 has negative entries$"),
    ])
    def test_first_bad_row_named(self, bad_row, message):
        # Rows 2 and 3 are bad; the error names row 2, as a row-by-row scan would.
        P = np.full((5, 4), 0.25)
        P[2] = bad_row
        P[3] = [0.5, 0.5, 0.5, -0.5]
        with pytest.raises(ValueError, match=message):
            MarkovChainSpec(dimension=1, horizon=2, initial_state=[0.0],
                            grids=(np.zeros((5, 1)), np.zeros((4, 1))),
                            initial_distribution=np.full(5, 0.2), transitions=(P,))

    def test_initial_distribution_message(self):
        with pytest.raises(ValueError, match="^initial distribution does not sum to 1"):
            MarkovChainSpec(dimension=1, horizon=1, initial_state=[0.0],
                            grids=(np.zeros((2, 1)),), initial_distribution=[0.5, 0.6],
                            transitions=())

    @pytest.mark.parametrize("where, message", [
        ("initial", r"^initial distribution has non-finite entries$"),
        ("transition", r"^transition 1->2 row 1 has non-finite entries$"),
        ("grid", r"^grid at step 2 row 1 has non-finite entries$"),
    ])
    def test_non_finite_entries_rejected(self, where, message):
        # A NaN row passed the sum and sign checks: the chain then reported
        # NaN marginals and sampling drew state 0 from it.
        init = np.array([0.5, 0.5])
        P = np.full((2, 2), 0.5)
        grid2 = np.array([[0.0], [1.0]])
        if where == "initial":
            init = np.array([np.nan, np.nan])
        elif where == "transition":
            P[1] = np.nan
        else:
            grid2 = np.array([[0.0], [np.nan]])
        with pytest.raises(ValueError, match=message):
            MarkovChainSpec(dimension=1, horizon=2, initial_state=[0.0],
                            grids=(np.array([[0.0], [1.0]]), grid2),
                            initial_distribution=init, transitions=(P,))

    def test_grid_shape_checked(self):
        with pytest.raises(ValueError):
            MarkovChainSpec(dimension=2, horizon=1, initial_state=[0.0, 0.0],
                            grids=(np.array([[0.0]]),),
                            initial_distribution=[1.0], transitions=())


class TestNormalCdf:
    @given(st.floats(-8.0, 8.0))
    def test_matches_scipy_ndtr(self, z):
        assert _normal_cdf(z) == pytest.approx(float(ndtr(z)), rel=1e-13, abs=0.0)


class TestEnumerate:
    def test_two_by_two_paths_sum_to_one(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=2, initial_state=[0.0],
            grids=(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])),
            initial_distribution=[0.3, 0.7],
            transitions=(np.array([[0.2, 0.8], [0.9, 0.1]]),))
        ens = enumerate_paths(chain)
        assert len(ens) == 4
        assert abs(ens.probabilities.sum() - 1.0) < 1e-10

    def test_degenerate_chain_single_path(self):
        ens = enumerate_paths(single_path_chain())
        assert len(ens) == 1
        assert ens.probabilities[0] == pytest.approx(1.0, abs=1e-12)

    def test_fair_chain_uniform_paths(self):
        ens = enumerate_paths(two_state_fair_chain())
        assert len(ens) == 4
        np.testing.assert_allclose(ens.probabilities, 0.25, atol=1e-12)

    def test_path_probability_is_product(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=3, initial_state=[0.0],
            grids=tuple(np.array([[0.0], [1.0]]) for _ in range(3)),
            initial_distribution=[0.25, 0.75],
            transitions=(np.array([[0.2, 0.8], [0.6, 0.4]]),
                         np.array([[0.5, 0.5], [0.05, 0.95]])))
        ens = enumerate_paths(chain)
        for indices, probability in zip(ens.indices, ens.probabilities):
            prob = chain.initial_distribution[indices[0]]
            for t in range(1, 3):
                prob *= chain.transition(t)[indices[t - 1], indices[t]]
            assert probability == pytest.approx(prob, abs=1e-12)

    def test_zero_probability_paths_dropped(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=2, initial_state=[0.0],
            grids=(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])),
            initial_distribution=[1.0, 0.0],
            transitions=(np.array([[1.0, 0.0], [0.5, 0.5]]),))
        ens = enumerate_paths(chain)
        assert len(ens) == 1
        np.testing.assert_array_equal(ens.indices, [[0, 0]])

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_paths(two_state_fair_chain(), cap=3)

    def test_state_indices_step_range(self):
        ens = enumerate_paths(single_path_chain())
        for t in (1, 2, 3):
            np.testing.assert_array_equal(ens.state_indices_at(t), [0])
        for t in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                ens.state_indices_at(t)


class TestSampling:
    def test_single_path_any_seed(self):
        chain = single_path_chain()
        for seed in (0, 1, 123):
            np.testing.assert_array_equal(sample_paths(chain, 5, seed), 0)

    def test_seed_determinism(self):
        chain = two_state_fair_chain(3)
        np.testing.assert_array_equal(sample_paths(chain, 50, 7), sample_paths(chain, 50, 7))

    def test_empirical_frequencies(self):
        chain = two_state_fair_chain()
        idx = sample_paths(chain, 100_000, seed=11)
        codes = idx[:, 0] * 2 + idx[:, 1]
        freq = np.bincount(codes, minlength=4) / len(codes)
        np.testing.assert_allclose(freq, 0.25, atol=0.01)

    def test_tv_distance_decays(self):
        chain = two_state_fair_chain(3)
        ens = enumerate_paths(chain)

        def tv(n, seed):
            idx = sample_paths(chain, n, seed)
            codes = idx[:, 0] * 4 + idx[:, 1] * 2 + idx[:, 2]
            freq = np.bincount(codes, minlength=8) / n
            return 0.5 * np.abs(freq - ens.probabilities).sum()

        coarse = np.mean([tv(200, s) for s in range(8)])
        fine = np.mean([tv(20_000, s + 100) for s in range(8)])
        # Ten times more samples per path state: roughly sqrt(100)-fold decay.
        assert fine < coarse / 3.0


class TestImageMeasure:
    def test_first_step_is_initial_distribution(self):
        chain = two_state_fair_chain()
        np.testing.assert_allclose(chain.marginals[0], [0.5, 0.5])

    def test_deterministic_chain_point_mass(self):
        np.testing.assert_allclose(single_path_chain().marginals[2], [1.0])

    def test_fair_chain_second_step(self):
        np.testing.assert_allclose(two_state_fair_chain().marginals[1], [0.5, 0.5], atol=1e-12)

    def test_matches_enumeration_marginal(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=3, initial_state=[0.0],
            grids=tuple(np.array([[0.0], [1.0], [2.0]]) for _ in range(3)),
            initial_distribution=[0.2, 0.5, 0.3],
            transitions=tuple(np.array([[0.1, 0.6, 0.3],
                                        [0.25, 0.25, 0.5],
                                        [0.4, 0.4, 0.2]]) for _ in range(2)))
        ens = enumerate_paths(chain)
        for t in (1, 2, 3):
            marginal = np.zeros(3)
            np.add.at(marginal, ens.state_indices_at(t), ens.probabilities)
            np.testing.assert_allclose(chain.marginals[t - 1], marginal, atol=1e-12)

    def test_step_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            two_state_fair_chain().grid(3)

    def test_marginals_are_cached_sequential_products(self):
        # The full initial law pushed left to right by chain.push bit for
        # bit, read-only and built once. On a 1-d
        # chain push is mass @ P_t itself; on a product chain it applies the
        # stored factor block by block and stays within 1e-15 of the dense
        # products.
        for dim in (1, 2):
            chain = discretize_brownian(dim, 4, 5, 2.2)
            mass = dense = chain.marginals[0]
            np.testing.assert_array_equal(
                dense, functools.reduce(np.kron, [chain.initial_distribution] * dim))
            for t in range(1, chain.horizon + 1):
                if t > 1:
                    mass = chain.push(t - 1, mass)
                    dense = dense @ chain.transition(t - 1)
                    if dim == 1:
                        np.testing.assert_array_equal(mass.view(np.int64),
                                                      (law @ chain.transitions[t - 2]).view(np.int64))
                law = chain.marginals[t - 1]
                np.testing.assert_array_equal(law.view(np.int64), mass.view(np.int64))
                np.testing.assert_allclose(law, dense, rtol=0.0, atol=1e-15)
                assert not law.flags.writeable
            assert chain.marginals is chain.marginals
            with pytest.raises(ValueError):
                chain.marginals[0][0] = 0.0


class TestBrownianDiscretization:
    def test_symmetric_mean_zero(self):
        chain = discretize_brownian(1, 1, 3, 2.0)
        assert abs(moment(chain, 1, 1)) < 1e-10

    def test_step_two_variance(self):
        chain = discretize_brownian(1, 2, 33, 5.0)
        var = moment(chain, 2, 2) - moment(chain, 2, 1) ** 2
        diag = chain.diagnostics[1]
        assert abs(var - 2.0) == pytest.approx(diag.variance_error, abs=1e-12)
        assert diag.variance_error <= diag.tolerance
        assert diag.variance_error < 0.05

    def test_marginal_matches_independent_quadrature(self):
        # Independent oracle: per-bin quadrature of the continuous densities,
        # composed step by step, against the module's binned marginal.
        chain = discretize_brownian(1, 2, 7, 4.0)

        def bin_masses(grid, mean, sd):
            h = grid[1] - grid[0]
            edges = np.concatenate([[grid[0] - h / 2],
                                    (grid[:-1] + grid[1:]) / 2,
                                    [grid[-1] + h / 2]])
            masses = np.array([
                quad(lambda x: math.exp(-((x - mean) / sd) ** 2 / 2)
                     / (sd * math.sqrt(2 * math.pi)), lo, hi)[0]
                for lo, hi in zip(edges[:-1], edges[1:])])
            return masses / masses.sum()

        g1 = chain.grid(1)[:, 0]
        g2 = chain.grid(2)[:, 0]
        mu1 = bin_masses(g1, 0.0, 1.0)
        mu2 = np.zeros_like(g2)
        for i, u in enumerate(g1):
            mu2 += mu1[i] * bin_masses(g2, u, 1.0)
        np.testing.assert_allclose(chain.marginals[0], mu1, atol=1e-9)
        np.testing.assert_allclose(chain.marginals[1], mu2, atol=1e-9)

    def test_refinement_shrinks_moment_error(self):
        coarse = discretize_brownian(1, 2, 8, 4.0).diagnostics[1].variance_error
        fine = discretize_brownian(1, 2, 16, 4.0).diagnostics[1].variance_error
        assert fine < coarse / 1.8

    def test_dimension_two_product_structure(self):
        chain = discretize_brownian(2, 2, 5, 3.0)
        assert chain.n_states(1) == 25
        assert abs(moment(chain, 2, 1, coord=0)) < 1e-10
        assert abs(moment(chain, 2, 1, coord=1)) < 1e-10

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            discretize_brownian(1, 2, 1, 2.0)
        with pytest.raises(ValueError):
            discretize_brownian(1, 2, 4, -1.0)


class TestGbmDiscretization:
    def test_mean_one(self):
        chain = discretize_gbm(1, 2, 65, 6.0)
        for t in (1, 2):
            err = abs(moment(chain, t, 1) - 1.0)
            assert err == pytest.approx(chain.diagnostics[t - 1].mean_error, abs=1e-12)
            assert err <= chain.diagnostics[t - 1].tolerance
            assert err < 0.01

    def test_higher_moments_lognormal(self):
        chain = discretize_gbm(1, 1, 257, 9.0)
        for order in (2, 3):
            target = math.exp(order * (order - 1) / 2.0)
            got = moment(chain, 1, order)
            assert got == pytest.approx(target, rel=0.02)

    def test_degenerate_single_point(self):
        # A one-point grid has no spacing to bin the Brownian law with.
        with pytest.raises(ValueError, match="at least 2"):
            discretize_gbm(1, 3, 1, 2.0)

    def test_refinement_shrinks_mean_error(self):
        coarse = discretize_gbm(1, 1, 17, 5.0).diagnostics[0].mean_error
        fine = discretize_gbm(1, 1, 33, 5.0).diagnostics[0].mean_error
        assert fine < coarse / 1.8


class TestArrayOwnership:
    def test_caller_arrays_are_copied(self):
        # Writable arrays a caller passes in are copied: mutating them after
        # construction leaves the chain as it was built.
        grid = np.array([[0.0], [1.0]])
        init = np.array([0.25, 0.75])
        P = np.array([[0.5, 0.5], [0.1, 0.9]])
        start = np.array([0.0])
        chain = MarkovChainSpec(dimension=1, horizon=2, initial_state=start,
                                grids=(grid, grid), initial_distribution=init,
                                transitions=(P,))
        before = chain.to_json()
        marginal = chain.marginals[1].copy()
        for arr in (grid, init, P, start):
            arr[...] = 7.0
        assert chain.to_json() == before
        np.testing.assert_array_equal(chain.marginals[1], marginal)
        for arr in (chain.initial_state, *chain.grids, chain.initial_distribution,
                    *chain.transitions, *chain.row_cdfs):
            assert not arr.flags.writeable

    def test_built_arrays_frozen_not_copied(self):
        # discretize_brownian keeps the 1-d factors it builds, frozen, and no
        # Kronecker power: on the 3-d 12-point chain a dense transition or
        # row CDF would be 23.9 MB. Building the chain peaks under 1 MB, and
        # the first sampling call, which caches the 12 x 12 row CDFs, under
        # 10 MB above the chain (its output alone is 2.4 MB).
        tracemalloc.start()
        try:
            chain = discretize_brownian(3, 3, 12, 2.2)
            built_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sample_paths(chain, 100_000, 1)
            sample_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert built_peak < 2**20
        assert sample_peak < 10 * 2**20
        for P in (*chain.transitions, *chain.row_cdfs):
            assert P.shape == (12, 12)
            assert not P.flags.writeable


class TestSerialization:
    def test_round_trip(self):
        chain = discretize_brownian(1, 3, 5, 3.0)
        doc = chain.to_json()
        again = MarkovChainSpec.from_json(doc)
        assert again.to_json() == doc
        parsed = json.loads(doc)
        assert parsed["horizon"] == 3
        assert len(parsed["transitions"]) == 2

    def test_from_dict(self):
        chain = two_state_fair_chain()
        again = MarkovChainSpec.from_json(json.loads(chain.to_json()))
        np.testing.assert_allclose(again.transition(1), chain.transition(1))


class TestPinnedDiagnostics:
    """sha256 of repr(chain.diagnostics) over a range of discretizations, as
    pinned when each model had its own diagnostics walk."""

    CASES = [(horizon, n, radius) for horizon in (1, 2, 4) for n in (2, 3, 8)
             for radius in (1.5, 2.2, 4.0)]
    DIGESTS = {
        "brownian": "0450250ed0fd3d040474455ab7fa84c12d2c577af828fbeda89d5ee6df76a130",
        "gbm": "f797ed3b233f997fd8ec8041b8ccddd5dabb86df3ab6860719cadd0d74a0d8df",
    }

    @pytest.mark.parametrize("model", ["brownian", "gbm"])
    def test_diagnostics(self, model):
        discretize = discretize_brownian if model == "brownian" else discretize_gbm
        digest = hashlib.sha256()
        for horizon, n, radius in self.CASES:
            digest.update(repr(discretize(1, horizon, n, radius).diagnostics).encode())
        assert digest.hexdigest() == self.DIGESTS[model]

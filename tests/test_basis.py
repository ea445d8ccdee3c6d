import math

import numpy as np
import pytest
from scipy.integrate import quad

from qlsm.basis import (closed_form_gram, constant_basis, gbm_basis,
                        gbm_tail_bound, gram_matrix, hermite, hermite_basis,
                        hermite_gram_identity_bound, hermite_multi_indices,
                        indicator_basis, jackson_lipschitz_bound,
                        jackson_smooth_bound, l2_norm_bound, monomial_basis,
                        solve_gram, sup_norm_bound, validate_linear_independence,
                        vandermonde_gram, vandermonde_sigma_min_bound)
from qlsm.chain import MarkovChainSpec, discretize_brownian, discretize_gbm
from qlsm.errors import SingularGram


class TestHermitePolynomials:
    def test_base_cases(self):
        assert hermite(0, 2.7) == 1.0
        assert hermite(1, 0.5) == pytest.approx(1.0)
        assert hermite(2, 0.5) == pytest.approx(-1.0)

    def test_against_numpy_coefficients(self):
        xs = np.linspace(-3, 3, 11)
        for order in range(11):
            coeffs = np.zeros(order + 1)
            coeffs[order] = 1.0
            np.testing.assert_allclose(hermite(order, xs),
                                       np.polynomial.hermite.hermval(xs, coeffs),
                                       rtol=1e-10)

    def test_squared_norm_order_one(self):
        val, _ = quad(lambda x: hermite(1, x) ** 2 * math.exp(-x * x) / math.sqrt(math.pi),
                      -np.inf, np.inf)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_order_negative(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)


class TestHermiteBasis:
    def test_size(self):
        assert hermite_basis(1, 3, 2, 4.0).size == 4
        assert hermite_basis(2, 2, 2, 4.0).size == 6  # C(4, 2)

    def test_constant_member_inside_cube(self):
        basis = hermite_basis(2, 2, 2, 3.0)
        j = basis.multi_indices.index((0, 0))
        pts = np.array([[0.5, -1.0], [2.9, 2.9]])
        np.testing.assert_allclose(basis.evaluate(1, pts)[:, j], 1.0)

    def test_vanishes_outside_cube(self):
        basis = hermite_basis(1, 2, 2, 2.0)
        vals = basis.evaluate(1, np.array([[2.5], [-3.0]]))
        np.testing.assert_array_equal(vals, 0.0)

    def test_untruncated_gram_is_identity(self):
        # Gauss-Hermite quadrature of the products under the step marginal.
        basis = hermite_basis(1, 3, 2, 1e6)
        nodes, weights = np.polynomial.hermite.hermgauss(64)
        for t in (1.0, 2.0):
            pts = (nodes * math.sqrt(2.0 * t))[:, None]
            mat = basis.evaluate(t, pts)
            gram = (mat * weights[:, None]).T @ mat / math.sqrt(math.pi)
            np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_l2_bound_at_most_one(self):
        chain = discretize_brownian(1, 3, 41, 5.0)
        basis = hermite_basis(1, 2, 3, 100.0)
        assert l2_norm_bound(basis, chain) <= 1.0 + 0.05

    def test_two_dimensional_orthonormality(self):
        # Product Gauss-Hermite quadrature over both coordinates.
        basis = hermite_basis(2, 2, 2, 1e6)
        nodes, weights = np.polynomial.hermite.hermgauss(32)
        t = 2.0
        xs, ys = np.meshgrid(nodes, nodes, indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel()]) * math.sqrt(2.0 * t)
        w2 = (weights[:, None] * weights[None, :]).ravel() / math.pi
        mat = basis.evaluate(t, pts)
        gram = (mat * w2[:, None]).T @ mat
        np.testing.assert_allclose(gram, np.eye(basis.size), atol=1e-10)

    def test_grid_gram_close_to_identity_within_tail_bound(self):
        chain = discretize_brownian(1, 3, 301, 5.0)
        lam = 7.5
        basis = hermite_basis(1, 2, 3, lam)
        for t in (1, 2):
            gram = gram_matrix(basis, chain, t)
            dev = np.linalg.norm(gram - np.eye(basis.size), 2)
            bound = hermite_gram_identity_bound(2, 1, t, lam)
            assert dev <= bound


class TestGbmBasis:
    def test_size(self):
        assert gbm_basis(1, 3, 2, 10.0).size == 4
        assert gbm_basis(2, 1, 2, 10.0).size == 4

    def test_zero_index_constant(self):
        basis = gbm_basis(1, 2, 2, 10.0)
        j = basis.multi_indices.index((0,))
        np.testing.assert_allclose(
            basis.evaluate(1, np.array([[0.5], [2.0]]))[:, j], 1.0)

    def test_gram_entry_frozen_and_quadrature(self):
        # k=2, l=3, t=1 entry of the closed form.
        assert math.exp(6.0) == pytest.approx(403.4288, abs=5e-5)
        nodes, weights = np.polynomial.hermite.hermgauss(96)
        t = 1.0
        x = np.exp(math.sqrt(2 * t) * nodes - t / 2)
        e2 = x**2 * math.exp(-2 * (2 - 1) * t / 2)
        e3 = x**3 * math.exp(-3 * (3 - 1) * t / 2)
        integral = float(np.sum(weights * e2 * e3) / math.sqrt(math.pi))
        assert integral == pytest.approx(math.exp(6.0), rel=1e-9)

    def test_closed_form_blocks(self):
        basis = gbm_basis(1, 1, 2, 10.0)
        expected = np.array([[1.0, 1.0], [1.0, math.e]])
        np.testing.assert_allclose(closed_form_gram(basis, 1.0), expected)

    def test_tensor_factorization(self):
        one = vandermonde_gram(2, 1, 0.7)
        two = vandermonde_gram(2, 2, 0.7)
        np.testing.assert_allclose(two, np.kron(one, one))
        basis = gbm_basis(2, 2, 2, 1e9)
        # Entry for indices a=(k1,k2), b=(l1,l2) factorizes coordinate-wise.
        a, b = (1, 2), (2, 1)
        ia, ib = basis.multi_indices.index(a), basis.multi_indices.index(b)
        got = closed_form_gram(basis, 0.7)[ia, ib]
        assert got == pytest.approx(one[1, 2] * one[2, 1], rel=1e-12)

    def test_generic_has_no_closed_form(self):
        with pytest.raises(ValueError, match="no closed-form Gram"):
            closed_form_gram(constant_basis(2), 1.0)
        with pytest.raises(ValueError, match="no closed-form Gram"):
            closed_form_gram(monomial_basis(1, 2, 2), 1.0)

    def test_grid_gram_converges_to_closed_form(self):
        chain = discretize_gbm(1, 2, 301, 8.0)
        basis = gbm_basis(1, 2, 2, 1e9)
        got = gram_matrix(basis, chain, 1)
        np.testing.assert_allclose(got, closed_form_gram(basis, 1.0), rtol=0.05)


class TestHermiteTailBound:
    @staticmethod
    def integral(k, l, lam):
        val, _ = quad(lambda x: hermite(k, x) * hermite(l, x) * math.exp(-x * x),
                      lam, np.inf, limit=200, epsabs=1e-13, epsrel=1e-11)
        return abs(val)

    def test_lattice_bounds(self):
        from qlsm.basis import hermite_tail_bound

        # Slack covers only the quadrature oracle's own error; the bound is
        # exactly tight at k=l=0.
        for lam in (2.0, 4.0, 6.0):
            for k in range(7):
                for l in range(k + 1):
                    integral = self.integral(k, l, lam)
                    exact_form, simple = hermite_tail_bound(k, l, lam)
                    assert integral <= exact_form * (1 + 1e-7) + 1e-30
                    assert integral <= simple * (1 + 1e-7) + 1e-30

    def test_exact_form_below_simplified(self):
        from qlsm.basis import hermite_tail_bound

        for lam in np.linspace(1.0, 8.0, 8):
            for k in range(9):
                for l in range(k + 1):
                    exact_form, simple = hermite_tail_bound(k, l, float(lam))
                    assert exact_form <= simple * (1 + 1e-12)

    def test_base_case_value(self):
        from qlsm.basis import hermite_tail_bound

        integral = self.integral(0, 0, 2.0)
        assert integral == pytest.approx(math.sqrt(math.pi) / 2 * math.erfc(2.0),
                                         rel=1e-10)
        exact_form, simple = hermite_tail_bound(0, 0, 2.0)
        assert integral <= exact_form <= simple
        expected_simple = 4.0 * math.exp(2 * math.sqrt(2) * 2.0) * math.exp(-4.0)
        assert simple == pytest.approx(expected_simple, rel=1e-12)

    def test_decreasing_in_radius(self):
        from qlsm.basis import hermite_tail_bound

        assert hermite_tail_bound(3, 2, 10.0)[1] < hermite_tail_bound(3, 2, 5.0)[1]

    def test_argument_order_enforced(self):
        from qlsm.basis import hermite_tail_bound

        with pytest.raises(ValueError):
            hermite_tail_bound(1, 2, 3.0)


class TestGbmTailBound:
    @staticmethod
    def integral(k, lam, t):
        val, _ = quad(lambda u: math.exp(k * u - (u + t / 2) ** 2 / (2 * t))
                      / math.sqrt(2 * math.pi * t), math.log(lam), np.inf,
                      limit=200)
        return val

    def test_valid_regime(self):
        for t in (0.5, 1.0):
            for k in range(5):
                lam = math.exp(t * (k - 0.5)) * 1.1
                assert self.integral(k, lam, t) <= gbm_tail_bound(k, lam, t)

    def test_decreasing_beyond_mode(self):
        k, t = 2, 1.0
        radii = [math.exp(t * (k - 0.5)) * r for r in (1.5, 3.0, 6.0)]
        bounds = [gbm_tail_bound(k, lam, t) for lam in radii]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_k_zero_matches_lognormal_tail(self):
        t, lam = 1.0, 3.0
        closed = 0.5 * math.erfc((math.log(lam) + t / 2) / math.sqrt(2 * t))
        assert self.integral(0, lam, t) == pytest.approx(closed, rel=1e-9)
        assert closed <= gbm_tail_bound(0, lam, t)


class TestVandermondeSigmaMin:
    def test_frozen_two_by_two(self):
        mat = vandermonde_gram(1, 1, 1.0)
        smin = np.linalg.svd(mat, compute_uv=False)[-1]
        assert smin == pytest.approx(0.5407619434843349, abs=1e-12)
        sharp, simple = vandermonde_sigma_min_bound(1, 1, 1.0)
        assert 1.0 / smin <= sharp <= simple

    def test_simplified_value(self):
        _, simple = vandermonde_sigma_min_bound(2, 1, 1.0)
        assert simple == pytest.approx(math.exp(6.0) * 4.0, rel=1e-12)
        assert simple == pytest.approx(1613.715, abs=0.01)

    def test_bounds_hold_on_lattice(self):
        for t in (0.5, 1.0):
            for d in (1, 2):
                for q in (1, 2, 3, 4):
                    mat = vandermonde_gram(q, d, t)
                    smin = np.linalg.svd(mat, compute_uv=False)[-1]
                    sharp, simple = vandermonde_sigma_min_bound(q, d, t)
                    assert 1.0 / smin <= sharp
                    assert 1.0 / smin <= simple

    def test_tensor_square(self):
        one = vandermonde_gram(2, 1, 1.0)
        two = vandermonde_gram(2, 2, 1.0)
        s1 = np.linalg.svd(one, compute_uv=False)[-1]
        s2 = np.linalg.svd(two, compute_uv=False)[-1]
        assert s2 == pytest.approx(s1 * s1, rel=1e-10)

    def test_ordering_at_unit_time(self):
        for q in (1, 2, 3):
            sharp, simple = vandermonde_sigma_min_bound(q, 1, 1.0)
            assert sharp <= simple


class TestJacksonBounds:
    def test_lipschitz_frozen(self):
        assert jackson_lipschitz_bound(10, 1, 1.0, 1.0) == pytest.approx(8.0)

    def test_smooth_halving(self):
        one = jackson_smooth_bound(10, 1, 3.0)
        two = jackson_smooth_bound(20, 1, 3.0)
        assert two == pytest.approx(one / 2.0)

    def test_smooth_requires_degree_above_smoothness(self):
        with pytest.raises(ValueError):
            jackson_smooth_bound(3, 3, 1.0)


class TestGramMachinery:
    def test_multi_index_budget(self):
        indices = hermite_multi_indices(2, 2)
        assert len(indices) == 6
        assert all(sum(k) <= 2 for k in indices)

    def test_linear_dependence_detected(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=2, initial_state=[0.0],
            grids=(np.array([[1.0], [2.0]]), np.array([[1.0], [2.0]])),
            initial_distribution=[0.5, 0.5],
            transitions=(np.full((2, 2), 0.5),))
        basis = monomial_basis(1, 2, 2)  # 3 functions on 2 points
        with pytest.raises(SingularGram):
            validate_linear_independence(basis, chain)

    def test_exact_gram_singularity_names_the_basis(self):
        # Degree 5 on the 5 x 5 grid of the 2-d basket: 21 functions on 25
        # states are dependent, so the exact Gram is singular at every step
        # and no path count can help.
        chain = discretize_brownian(2, 4, 5, 2.2)
        basis = hermite_basis(2, 5, 4, 4.0)
        gram = gram_matrix(basis, chain, 2)
        for raise_singular in (lambda: validate_linear_independence(basis, chain),
                               lambda: solve_gram(gram, np.ones(basis.size), 2)):
            with pytest.raises(SingularGram, match="shrink the basis") as caught:
                raise_singular()
            assert "linearly dependent on the states" in str(caught.value)
            assert "regeneration" not in str(caught.value)

    def test_indicator_basis_spans(self):
        chain = MarkovChainSpec(
            dimension=1, horizon=2, initial_state=[0.0],
            grids=(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])),
            initial_distribution=[0.4, 0.6],
            transitions=(np.array([[0.3, 0.7], [0.8, 0.2]]),))
        basis = indicator_basis(chain)
        mat = basis.evaluate(1, chain.grid(1))
        np.testing.assert_array_equal(mat, np.eye(2))

    def test_indicator_basis_matches_point_loop(self):
        # Integer coordinates make equal distances exact, so ties occur; the
        # first nearest slot wins, as in the point-by-point loop.
        rng = np.random.Generator(np.random.Philox(4))
        grid = rng.integers(-3, 4, size=(6, 2)).astype(float)
        chain = MarkovChainSpec(dimension=2, horizon=1, initial_state=[0.0, 0.0],
                                grids=(grid,), initial_distribution=np.full(6, 1 / 6),
                                transitions=())
        points = np.vstack([rng.integers(-4, 5, size=(40, 2)).astype(float),
                            (grid[0] + grid[1]) / 2])
        expected = np.zeros((points.shape[0], 6))
        tied = 0
        for i, p in enumerate(points):
            dist = np.linalg.norm(grid - p[None, :], axis=1)
            expected[i, int(np.argmin(dist))] = 1.0
            tied += np.count_nonzero(dist == dist.min()) > 1
        assert tied
        np.testing.assert_array_equal(indicator_basis(chain).evaluate(1, points), expected)

    def test_sup_norm_bound(self):
        chain = discretize_brownian(1, 3, 21, 4.0)
        basis = hermite_basis(1, 2, 3, 100.0)
        direct = max(np.abs(basis.evaluate(t, chain.grid(t))).max() for t in (1, 2))
        assert sup_norm_bound(basis, chain) == pytest.approx(direct)

"""Regression bases: truncated Hermite products, scaled monomials for
geometric Brownian motion, closed-form Gram matrices, and the norm, Hermite
tail and singular-value bounds that the runs and validate-bounds evaluate."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chain import MarkovChainSpec, _kron_power
from .errors import SingularGram

KIND_GENERIC = "generic"
KIND_HERMITE = "hermite-truncated"
KIND_GBM = "gbm-monomial-truncated"

_SINGULAR_REL_TOL = 1e-12


def hermite(order: int, x):
    """Physicists' Hermite polynomial H_order, by the three-term recurrence."""
    if order < 0:
        raise ValueError("order must be non-negative")
    value = _hermite_rows(order, np.asarray(x, dtype=float))[order]
    return value if value.shape else float(value)


def _hermite_rows(max_order: int, x: np.ndarray) -> np.ndarray:
    """Rows 0..max_order of Hermite values at the points of x."""
    out = np.empty((max_order + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if max_order >= 1:
        out[1] = 2.0 * x
    for k in range(1, max_order):
        out[k + 1] = 2.0 * x * out[k] - 2.0 * k * out[k - 1]
    return out


def _log_hermite_normalizer(order: int) -> float:
    # log of 1/sqrt(order! * 2^order); log-space keeps large orders finite.
    return -0.5 * (math.lgamma(order + 1) + order * math.log(2.0))


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """A per-step family of regression functions with shared dimension."""

    kind: str
    size: int
    horizon: int
    evaluator: Callable[[float, np.ndarray], np.ndarray] = field(repr=False)
    degree: int | None = None
    cube_radius: float | None = None
    multi_indices: tuple[tuple[int, ...], ...] | None = None
    l2_bound: float | None = None

    def evaluate(self, t: float, points: np.ndarray) -> np.ndarray:
        """(n, size) matrix of basis values at step t on the given points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = self.evaluator(t, points)
        if out.shape != (points.shape[0], self.size):
            raise ValueError("evaluator returned a wrongly shaped matrix")
        return out


def hermite_multi_indices(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Multi-indices with entries in 0..degree summing to at most degree."""
    return tuple(k for k in itertools.product(range(degree + 1), repeat=dim) if sum(k) <= degree)


def gbm_multi_indices(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(range(degree + 1), repeat=dim))


def _product_basis(kind: str, indices: tuple[tuple[int, ...], ...], horizon: int,
                   factors: Callable, degree: int, cube_radius: float | None = None,
                   l2_bound: float | None = None) -> BasisSpec:
    """Products over coordinates: member idx at step t is the product over
    axes with idx[axis] = k >= 1 of rows[k][:, axis] * scales[k], where
    factors(t, points) gives rows[k], the order-k factor values as an (n, d)
    array, and scales[k]; order 0 is the factor 1. With a cube_radius every
    member is zeroed at points outside the cube."""
    if degree < 0 or (cube_radius is not None and cube_radius <= 0):
        raise ValueError("degree must be >= 0 and cube_radius positive")

    def evaluator(t: float, points: np.ndarray) -> np.ndarray:
        rows, scales = factors(t, points)
        out = np.empty((points.shape[0], len(indices)))
        for j, idx in enumerate(indices):
            vals = np.ones(points.shape[0])
            for axis, k in enumerate(idx):
                if k:
                    vals = vals * rows[k][:, axis] * scales[k]
            out[:, j] = vals
        if cube_radius is not None:
            out[~np.all(np.abs(points) <= cube_radius, axis=1)] = 0.0
        return out

    return BasisSpec(kind=kind, size=len(indices), horizon=horizon, evaluator=evaluator,
                     degree=degree, cube_radius=cube_radius, multi_indices=indices,
                     l2_bound=l2_bound)


def hermite_basis(dim: int, degree: int, horizon: int, cube_radius: float) -> BasisSpec:
    """Normalized Hermite products in x/sqrt(2t), zeroed outside the cube
    of half-width cube_radius; orthonormal under the Gaussian step marginals."""
    norms = [math.exp(_log_hermite_normalizer(k)) for k in range(degree + 1)]

    def factors(t: float, points: np.ndarray):
        return _hermite_rows(degree, points / math.sqrt(2.0 * t)), norms

    return _product_basis(KIND_HERMITE, hermite_multi_indices(dim, degree), horizon, factors,
                          degree, cube_radius, l2_bound=1.0)


def gbm_basis(dim: int, degree: int, horizon: int, cube_radius: float) -> BasisSpec:
    """Monomials x^k scaled by exp(-k(k-1)t/2) per coordinate, zeroed outside
    the cube; their exact Gram under log-normal marginals is Vandermonde."""
    def factors(t: float, points: np.ndarray):
        return ([points**k for k in range(degree + 1)],
                [math.exp(-k * (k - 1) * t / 2.0) for k in range(degree + 1)])

    ell = math.exp(degree * degree * horizon * dim / 2.0)
    return _product_basis(KIND_GBM, gbm_multi_indices(dim, degree), horizon, factors,
                          degree, cube_radius, l2_bound=ell)


def constant_basis(horizon: int) -> BasisSpec:
    """The one function 1: the empty product."""
    return _product_basis(KIND_GENERIC, ((),), horizon, lambda t, points: ((), ()), 0,
                          l2_bound=1.0)


def monomial_basis(dim: int, degree: int, horizon: int) -> BasisSpec:
    """Plain multivariate monomials up to total degree, untruncated."""
    def factors(t: float, points: np.ndarray):
        return [points**k for k in range(degree + 1)], [1.0] * (degree + 1)

    return _product_basis(KIND_GENERIC, hermite_multi_indices(dim, degree), horizon,
                          factors, degree)


def vandermonde_gram(degree: int, dim: int, t: float) -> np.ndarray:
    """Tensor power of the Vandermonde-structured matrix with entries e^{klt}."""
    return _kron_power(np.exp(np.outer(np.arange(degree + 1), np.arange(degree + 1)) * t), dim)


def closed_form_gram(basis: BasisSpec, t: float) -> np.ndarray:
    """Exact untruncated Gram matrix at step t; raises for kinds without one."""
    if basis.kind == KIND_HERMITE:
        return np.eye(basis.size)
    if basis.kind == KIND_GBM:
        dim = len(basis.multi_indices[0])
        return vandermonde_gram(basis.degree, dim, t)
    raise ValueError(f"basis kind {basis.kind!r} has no closed-form Gram")


def gram_matrix(basis: BasisSpec, chain: MarkovChainSpec, t: int) -> np.ndarray:
    """Exact Gram matrix of the basis under the step-t marginal, summed over
    the step-t grid."""
    mat = basis.evaluate(t, chain.grid(t))
    return (mat * chain.marginals[t - 1][:, None]).T @ mat


def checked_sigma_min(gram: np.ndarray, t: int) -> float:
    """Smallest singular value of step t's Gram; raises SingularGram when
    sigma_min <= 1e-12 * max(1, sigma_max)."""
    svals = np.linalg.svd(gram, compute_uv=False)
    if svals[-1] <= _SINGULAR_REL_TOL * max(1.0, svals[0]):
        raise SingularGram(t, float(svals[-1]))
    return float(svals[-1])


def solve_gram(gram: np.ndarray, rhs: np.ndarray, t: int) -> np.ndarray:
    """Regression coefficients gram^-1 rhs by a pivoted solve, after
    checked_sigma_min's singular check."""
    checked_sigma_min(gram, t)
    return np.linalg.solve(gram, rhs)


def l2_norm_bound(basis: BasisSpec, chain: MarkovChainSpec) -> float:
    """Exact max over steps and members of the L2(marginal) norm."""
    worst = 0.0
    for t in range(1, chain.horizon):
        mat = basis.evaluate(t, chain.grid(t))
        norms = np.sqrt(np.sum(chain.marginals[t - 1][:, None] * mat * mat, axis=0))
        worst = max(worst, float(norms.max()))
    return worst


def sup_norm_bound(basis: BasisSpec, chain: MarkovChainSpec) -> float:
    """Exact max over steps and members of |e| on the grids (almost-sure bound)."""
    worst = 0.0
    for t in range(1, chain.horizon):
        mat = basis.evaluate(t, chain.grid(t))
        worst = max(worst, float(np.abs(mat).max()))
    return worst


def _hermite_sum_identity(order: int, x: float) -> float:
    # (H_{order+1}^2 - H_order H_{order+2}) / 2, always positive.
    h = _hermite_rows(order + 2, np.asarray([x], dtype=float))[:, 0]
    return 0.5 * (h[order + 1] ** 2 - h[order] * h[order + 2])


def hermite_tail_bound(k: int, l: int, cube_radius: float) -> tuple[float, float]:
    """Upper bounds on |integral over [cube_radius, inf) of H_k H_l e^{-x^2}|.

    Returns (exact-form bound, simplified bound), the exact form built from
    complementary-error and Hermite values. Caller must order l <= k. The
    Hermite-value term keeps the full positive combination
    (H_{j+1}^2 - H_j H_{j+2})/2: dropping the cross product is unsound near
    zeros of H_{j+1}.
    """
    if l > k:
        raise ValueError("arguments must be ordered l <= k")
    if cube_radius <= 0:
        raise ValueError("cube_radius must be positive")
    lam = float(cube_radius)
    if k == l:
        exact = (math.exp(math.lgamma(k + 1) + k * math.log(2.0)) * (math.sqrt(math.pi) / 2.0)
                 * math.erfc(lam)
                 + math.exp(-lam * lam) * _hermite_sum_identity(k, lam))
    else:
        exact = math.exp(-lam * lam) * math.sqrt(
            _hermite_sum_identity(l, lam) * _hermite_sum_identity(k - 1, lam))
    log_simple = ((2 + (k + l) / 2.0) * math.log(2.0)
                  + 0.5 * (math.lgamma(k + 2) + math.lgamma(l + 2))
                  + (math.sqrt(2.0 * (k + 1)) + math.sqrt(2.0 * (l + 1))) * lam
                  - lam * lam)
    return float(exact), float(math.exp(log_simple))


def vandermonde_sigma_min_bound(degree: int, dim: int, t: float) -> tuple[float, float]:
    """Upper bounds on 1/sigma_min of the e^{klt} Gram tensor power.

    Returns (sharper, simplified); the sharper bound is the smaller of the two
    only for t >= 1.
    """
    if degree < 1 or dim < 1 or t <= 0:
        raise ValueError("need degree >= 1, dim >= 1, t > 0")
    q, d = degree, dim
    et = math.exp(t)
    sharp = (math.exp(2.0 * math.e * d / (et - 1.0) ** 2)
             * q**d * (q + 1) ** d * (et / (et - 1.0)) ** (q * d))
    simple = math.exp(3.0 * q * d) * q ** (2 * d)
    return float(sharp), float(simple)

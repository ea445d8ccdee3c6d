"""Finite discrete-time Markov chains: exact enumeration, seeded sampling, and
grid discretizations of Brownian and geometric Brownian motion."""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapExceeded

DEFAULT_ENUMERATION_CAP = 1 << 20

_ROW_TOL = 1e-12
_GUIDE_BYTES = 4 << 20           # all of a chain's guide tables together
_SQRT2 = math.sqrt(2.0)


def _seeded_rng(seed) -> np.random.Generator:
    # Counter-based generator: independent streams for distinct seeds/offsets.
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr itself, made read-only; for arrays just built that nothing else holds."""
    arr.setflags(write=False)
    return arr


def _readonly(arr) -> np.ndarray:
    """A read-only float array: a read-only float input is kept as it is,
    anything a caller could still write to is copied first."""
    if isinstance(arr, np.ndarray) and arr.dtype == float and not arr.flags.writeable:
        return arr
    return _frozen(np.array(arr, dtype=float))


@dataclass(frozen=True, eq=False)
class StepDiagnostics:
    """Measured moment errors of one marginal against its continuous target."""

    step: int
    mean_error: float
    variance_error: float
    dropped_mass: float
    tolerance: float


@dataclass(frozen=True, eq=False)
class MarkovChainSpec:
    """Time-inhomogeneous chain on finite per-step grids in R^d.

    Step 0 is the deterministic start point; steps 1..horizon carry a grid
    each, an initial distribution over the first grid and one transition
    matrix per consecutive pair of grids.

    A chain of copies > 1 moves `copies` independent, identically
    distributed coordinate blocks: initial_distribution and transitions hold
    one block's law and kernels, the step-t states are the lexicographic
    product of the blocks' states (first block most significant, as in
    np.kron), and the full law and kernels are their Kronecker powers.
    push, expect and sampling apply the factors one block at a time, so no
    full kernel is stored; transition(t) builds one on request.
    """

    dimension: int
    horizon: int
    initial_state: np.ndarray
    grids: tuple[np.ndarray, ...]
    initial_distribution: np.ndarray
    transitions: tuple[np.ndarray, ...]
    diagnostics: tuple[StepDiagnostics, ...] | None = field(
        default=None, repr=False, compare=False
    )
    copies: int = 1

    def __post_init__(self):
        if self.dimension < 1 or self.horizon < 1:
            raise ValueError("dimension and horizon must be positive")
        if self.copies < 1:
            raise ValueError("copies must be a positive integer")
        if len(self.grids) != self.horizon:
            raise ValueError("need one grid per step 1..horizon")
        if len(self.transitions) != self.horizon - 1:
            raise ValueError("need one transition matrix per consecutive grid pair")
        object.__setattr__(self, "initial_state", _readonly(np.atleast_1d(self.initial_state)))
        if self.initial_state.shape != (self.dimension,):
            raise ValueError("initial_state must be a d-vector")
        grids = []
        for t, g in enumerate(self.grids, start=1):
            g = _readonly(np.atleast_2d(g))
            if g.ndim != 2 or g.shape[1] != self.dimension or g.shape[0] < 1:
                raise ValueError(f"grid at step {t} must have shape (n, {self.dimension})")
            finite = np.isfinite(g).all(axis=1)
            if not finite.all():
                raise ValueError(f"grid at step {t} row {int(np.argmin(finite))} "
                                 "has non-finite entries")
            grids.append(g)
        object.__setattr__(self, "grids", tuple(grids))
        c = self.copies
        init = _readonly(self.initial_distribution)
        if init.ndim != 1 or init.shape[0] ** c != self.n_states(1):
            raise ValueError("initial distribution has wrong length")
        self._check_rows(init[None, :], "initial distribution")
        object.__setattr__(self, "initial_distribution", init)
        mats = []
        for t, P in enumerate(self.transitions, start=1):
            P = _readonly(P)
            if P.ndim != 2 or (P.shape[0] ** c, P.shape[1] ** c) != (
                    self.n_states(t), self.n_states(t + 1)):
                raise ValueError(f"transition {t}->{t + 1} has wrong shape {P.shape}")
            self._check_rows(P, f"transition {t}->{t + 1} row {{row}}")
            mats.append(P)
        object.__setattr__(self, "transitions", tuple(mats))

    @staticmethod
    def _check_rows(mat: np.ndarray, what: str):
        """Check every row of mat is a distribution, all rows at once; the
        error names the first bad row through what's {row} field."""
        sums = mat.sum(axis=1)
        finite = np.isfinite(mat).all(axis=1)
        negative = np.any(mat < 0, axis=1)
        bad = ~finite | negative | (np.abs(sums - 1.0) > _ROW_TOL)
        if not bad.any():
            return
        row = int(np.argmax(bad))
        what = what.format(row=row)
        if not finite[row]:
            raise ValueError(f"{what} has non-finite entries")
        if negative[row]:
            raise ValueError(f"{what} has negative entries")
        raise ValueError(f"{what} does not sum to 1 (off by {sums[row] - 1.0:.2e})")

    def grid(self, t: int) -> np.ndarray:
        """Grid of step t, for t in 1..horizon."""
        if not 1 <= t <= self.horizon:
            raise ValueError(f"step {t} out of range 1..{self.horizon}")
        return self.grids[t - 1]

    def n_states(self, t: int) -> int:
        return self.grid(t).shape[0]

    def _factor(self, t: int) -> np.ndarray:
        """The stored transition matrix from step t to t+1."""
        if not 1 <= t <= self.horizon - 1:
            raise ValueError(f"transition step {t} out of range")
        return self.transitions[t - 1]

    def transition(self, t: int) -> np.ndarray:
        """Full transition matrix from step t to t+1, for t in 1..horizon-1.
        With copies > 1 it is the factor's Kronecker power, built on every
        call and not kept; push and expect apply it without building it."""
        return _kron_power(self._factor(t), self.copies)

    def push(self, t: int, mass: np.ndarray) -> np.ndarray:
        """mass @ transition(t): laws over step t's states (last axis, any
        leading batch axes) moved to step t+1, for t in 1..horizon-1."""
        P = self._factor(t)
        if self.copies == 1:
            return mass @ P
        return _apply_factor(mass, P, self.copies)

    def expect(self, t: int, values: np.ndarray) -> np.ndarray:
        """values @ transition(t).T: E[values at step t+1 | state at step t]
        per state, for t in 0..horizon-1, over values' last axis with any
        leading batch axes; t=0 gives the one entry of the start point."""
        if t == 0:
            return np.asarray(values @ self.marginals[0], dtype=float)[..., None]
        P = self._factor(t)
        if self.copies == 1:
            return (P @ values.T).T
        return _apply_factor(values, P.T, self.copies)

    @cached_property
    def row_cdfs(self) -> tuple[np.ndarray, ...]:
        """Row-wise cumulative sums of each stored transition matrix (one
        block's factor when copies > 1), computed on first use and kept for
        the chain's lifetime; entry t-1 is step t's."""
        return tuple(_frozen(np.cumsum(P, axis=1)) for P in self.transitions)

    @cached_property
    def sampling_tables(self) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
        """Entry t: the CDF rows step t+1 is drawn from (the initial law's
        as one row at t=0, then row_cdfs) and their _guide_table, the tables
        sharing _GUIDE_BYTES; computed on first use and kept."""
        cdfs = (_frozen(np.cumsum(self.initial_distribution)[None, :]), *self.row_cdfs)
        return tuple((cdf, _guide_table(cdf, _GUIDE_BYTES // self.horizon)) for cdf in cdfs)

    @cached_property
    def marginals(self) -> tuple[np.ndarray, ...]:
        """Marginal law of each step's state, entry t-1 for step t: the
        initial distribution pushed left to right through the transitions,
        computed on first use and kept for the chain's lifetime."""
        laws = [_frozen(_kron_power(self.initial_distribution, self.copies))]
        for t in range(1, self.horizon):
            laws.append(_frozen(self.push(t, laws[-1])))
        return tuple(laws)

    def path_space_size(self) -> int:
        size = 1
        for t in range(1, self.horizon + 1):
            size *= self.n_states(t)
        return size

    def to_json(self) -> str:
        """The chain with its full initial law and transition matrices, as
        a chain of copies=1."""
        doc = {
            "dimension": self.dimension,
            "horizon": self.horizon,
            "initial_state": self.initial_state.tolist(),
            "grids": [g.tolist() for g in self.grids],
            "initial_distribution": self.marginals[0].tolist(),
            "transitions": [self.transition(t).tolist() for t in range(1, self.horizon)],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, doc: str | dict) -> "MarkovChainSpec":
        if isinstance(doc, str):
            doc = json.loads(doc)
        return cls(
            dimension=int(doc["dimension"]),
            horizon=int(doc["horizon"]),
            initial_state=np.asarray(doc["initial_state"], dtype=float),
            grids=tuple(np.asarray(g, dtype=float) for g in doc["grids"]),
            initial_distribution=np.asarray(doc["initial_distribution"], dtype=float),
            transitions=tuple(np.asarray(P, dtype=float) for P in doc["transitions"]),
        )


class PathEnsemble:
    """All positive-probability paths of a chain, with vectorized accessors."""

    def __init__(self, chain: MarkovChainSpec, indices: np.ndarray, probabilities: np.ndarray):
        self.chain = chain
        self.indices = indices
        self.probabilities = probabilities
        self.indices.setflags(write=False)
        self.probabilities.setflags(write=False)

    def __len__(self) -> int:
        return self.indices.shape[0]

    def state_indices_at(self, t: int) -> np.ndarray:
        """Step-t grid index along every path, for t in 1..horizon."""
        if not 1 <= t <= self.chain.horizon:
            raise ValueError(f"step {t} out of range 1..{self.chain.horizon}")
        return self.indices[:, t - 1]


def enumerate_paths(chain: MarkovChainSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> PathEnsemble:
    """All paths with nonzero probability, in lexicographic grid-index order."""
    if chain.path_space_size() > cap:
        raise CapExceeded(
            f"path space has {chain.path_space_size()} elements, cap is {cap}"
        )
    probs = chain.marginals[0].copy()
    idx = np.arange(chain.n_states(1), dtype=np.int64)[:, None]
    keep = probs > 0.0
    idx, probs = idx[keep], probs[keep]
    for t in range(1, chain.horizon):
        P = chain.transition(t)
        step_probs = P[idx[:, -1]]
        new_probs = (probs[:, None] * step_probs).ravel()
        n_next = P.shape[1]
        left = np.repeat(idx, n_next, axis=0)
        right = np.tile(np.arange(n_next, dtype=np.int64), idx.shape[0])[:, None]
        idx = np.hstack([left, right])
        keep = new_probs > 0.0
        idx, probs = idx[keep], new_probs[keep]
    return PathEnsemble(chain, idx, probs)


def _step_factor(chain: MarkovChainSpec, t: int) -> np.ndarray:
    """The stored kernel into step t+1: the initial law as one row at t=0."""
    return chain.initial_distribution[None, :] if t == 0 else chain.transitions[t - 1]


def sample_paths(chain: MarkovChainSpec, count: int, seed) -> np.ndarray:
    """(count, horizon) matrix of seeded grid-index draws; identical seeds give
    identical draws."""
    return _sample_index_matrix(chain, count, _seeded_rng(seed))


def _sample_index_matrix(chain: MarkovChainSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """One uniform per path and step, inverted block by block on the stored
    factor's row CDFs: a block's state is the count of CDF entries below u,
    and u rescaled to (u - cdf_lo) / p, p the chosen entry, drives the next
    block. This inverts the full Kronecker row, whose CDF runs through the
    first block's entries in order, each scaled by the rest's row. Each
    block's coordinate at one step is the row of its search at the next.

    Step 1 counts entries <= u, later steps entries < u, with u = 0 lifted
    to the least positive double: that counts entries <= 0, so no leading
    zero-mass entry is chosen."""
    out = np.empty((count, chain.horizon), dtype=np.int64)
    c = chain.copies
    coords = [0] * c
    for t in range(chain.horizon):
        u = rng.random(count)
        if t:
            np.maximum(u, 5e-324, out=u)  # the least positive double
        factor = _step_factor(chain, t)
        cdf, guide = chain.sampling_tables[t]
        n = cdf.shape[1]
        for k in range(c):
            rows = coords[k]
            j = _invert(cdf, guide, rows, u, t == 0)
            if k < c - 1:
                _rescale_within(u, cdf, factor, rows, j)
            if k == 0:
                state = j.astype(np.int64)
            else:
                state *= n
                state += j
            coords[k] = j
        out[:, t] = state
    return out


def _invert(cdf: np.ndarray, guide: np.ndarray | None, rows, u: np.ndarray,
            first: bool) -> np.ndarray:
    """Per path i, the count of entries of cdf[rows[i]] <= u[i] (first
    step) or < u[i] (later steps), clipped to n-1: one gather in the guide
    table where u's bucket holds no entry, a search for the other draws,
    or for all of them where there is no table."""
    if guide is None:
        j, hit = np.empty(u.size, dtype=np.intp), slice(None)
    else:
        buckets = guide.shape[1] - 1
        at = np.fmin(u * buckets, buckets).astype(np.intp)
        if not first:
            at += np.multiply(rows, buckets + 1, dtype=np.intp)
        j = guide.ravel().take(at)
        hit = np.flatnonzero(j < 0)
    found = (np.searchsorted(cdf[0], u[hit], side="right") if first
             else _count_below(cdf, rows[hit], u[hit]))
    j[hit] = np.minimum(found, cdf.shape[1] - 1)
    return j


def _rescale_within(u: np.ndarray, cdf: np.ndarray, factor: np.ndarray, rows, j: np.ndarray):
    """u -> (u - cdf[rows, j-1]) / factor[rows, j] in place: the position of
    u within the chosen entry, a uniform for the next block."""
    at = np.multiply(rows, cdf.shape[1], dtype=np.intp)
    at += j
    lo = cdf.ravel().take(at - 1)
    lo[j == 0] = 0.0
    u -= lo
    # The entry is 0 only where u passed the row's total and j was clipped;
    # u = inf then clips the later blocks to their last state too, as the
    # full row's inversion would.
    with np.errstate(divide="ignore"):
        u /= factor.ravel().take(at)


def _guide_table(cdf: np.ndarray, budget: int) -> np.ndarray | None:
    """Guide table of the non-decreasing rows of cdf (Chen & Asau 1974):
    [0, 1) cut into G equal buckets, plus one for u >= 1, inf and NaN.
    Entry [r, g] is -1 where an entry of cdf[r] falls in bucket g (always in
    the last), else min(count of cdf[r] below g/G, n-1), the clipped count
    of every u in it. G is the least power of two >= 16 n, halved until the
    table fits in budget bytes; below 4 n, where over a quarter of the draws
    could need a search, there is no table (None)."""
    rows, n = cdf.shape
    dtype = np.min_scalar_type(-n)  # holds -1 and n-1
    buckets = 1 << (16 * n - 1).bit_length()
    while buckets >= 4 * n and rows * (buckets + 1) * dtype.itemsize > budget:
        buckets >>= 1
    if buckets < 4 * n:
        return None
    # g/G and u*G are exact for G a power of two, so entry c < g/G exactly
    # when its bucket floor(c*G) < g.
    at = np.minimum(np.floor(cdf * buckets), buckets).astype(np.intp)
    at += np.arange(rows)[:, None] * (buckets + 1)
    held = np.bincount(at.ravel(), minlength=rows * (buckets + 1)).reshape(rows, buckets + 1)
    held[:, -1] = 1  # the last bucket is always searched
    table = np.where(held > 0, -1, np.minimum(np.cumsum(held, axis=1), n - 1))
    return _frozen(table.astype(dtype))


def _count_below(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per path i, how many entries of the non-decreasing row cdf[rows[i]]
    are below u[i], by a branchless binary search (ceil(log2(n+1)) gathers).

    Probes past the row end read its last entry, so a count of n may come out
    larger; callers clip to n-1 either way. Comparing cdf entries with u,
    never u shifted by a row offset, keeps every draw bit-identical to
    counting over the full row.
    """
    n = cdf.shape[1]
    flat = cdf.ravel()
    before = np.multiply(rows, n, dtype=np.intp)
    before -= 1                     # flat index of entry -1 of each row
    pos = np.zeros(rows.shape[0], dtype=np.int64)
    step = 1 << (n.bit_length() - 1)
    while step:
        probe = pos + step
        np.minimum(probe, n, out=probe)
        probe += before
        pos += step * (flat[probe] < u)
        step >>= 1
    return pos


def _normal_cdf(z: float) -> float:
    """Standard normal CDF by erfc, accurate in both tails: the upper tail
    1 - CDF(z) is _normal_cdf(-z), with no cancellation."""
    return 0.5 * math.erfc(-z / _SQRT2)


def _gaussian_bin(grid: np.ndarray, means: np.ndarray, sd: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-point binning of N(mean, sd^2) onto a uniform grid of at
    least two points.

    Mass beyond the outer half-bin edges is dropped and each row renormalized;
    returns (row-stochastic matrix, per-row dropped mass).
    """
    h = grid[1] - grid[0]
    edges = np.concatenate([[grid[0] - h / 2], (grid[:-1] + grid[1:]) / 2, [grid[-1] + h / 2]])
    z = (edges[None, :] - means[:, None]) / sd
    cdf = np.array([_normal_cdf(v) for v in z.ravel().tolist()]).reshape(z.shape)
    probs = np.diff(cdf, axis=1)
    np.clip(probs, 0.0, None, out=probs)
    kept = probs.sum(axis=1)
    dropped = 1.0 - kept
    probs /= kept[:, None]
    return probs, dropped


def _product_points(grid_1d: np.ndarray, dim: int) -> np.ndarray:
    if dim == 1:
        return grid_1d[:, None]
    return np.array(list(itertools.product(grid_1d, repeat=dim)), dtype=float)


def _kron_power(mat: np.ndarray, dim: int) -> np.ndarray:
    out = mat
    for _ in range(dim - 1):
        out = np.kron(out, mat)
    return out


def _apply_factor(x: np.ndarray, factor: np.ndarray, copies: int) -> np.ndarray:
    """x @ kron(factor, ..., factor) (copies factors) over x's last axis, one
    factor at a time: each pass contracts the leading block of the state
    index and appends the new block last, so after copies passes the blocks
    are back in order. Costs copies * n^(copies+1) per row of x instead of
    n^(2 copies) (Van Loan, "The ubiquitous Kronecker product", 2000)."""
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    x = x.reshape(-1, x.shape[-1])
    for _ in range(copies):
        x = np.matmul(x.reshape(x.shape[0], factor.shape[0], -1).transpose(0, 2, 1), factor)
        x = x.reshape(x.shape[0], -1)
    return x.reshape(*lead, -1)


def _product_chain(dim: int, grids1, init1: np.ndarray, mats1, initial_state: np.ndarray,
                   diagnostics) -> MarkovChainSpec:
    """Chain of dim independent copies of a 1-d chain: product grids, with
    the 1-d initial law and transitions, frozen as built, as its factors."""
    return MarkovChainSpec(
        dimension=dim, horizon=len(grids1), initial_state=initial_state,
        grids=tuple(_frozen(_product_points(g, dim)) for g in grids1),
        initial_distribution=_frozen(init1),
        transitions=tuple(_frozen(P) for P in mats1),
        diagnostics=diagnostics, copies=dim,
    )


def _brownian_1d_parts(horizon: int, grid_size: int, support_radius: float):
    grids = [np.linspace(-support_radius * math.sqrt(t), support_radius * math.sqrt(t), grid_size)
             for t in range(1, horizon + 1)]
    init, dropped0 = _gaussian_bin(grids[0], np.zeros(1), 1.0)
    init = init[0]
    dropped = [float(dropped0[0])]
    mats = []
    for t in range(1, horizon):
        P, drop = _gaussian_bin(grids[t], grids[t - 1], 1.0)
        mats.append(P)
        dropped.append(float(drop.max()))
    return grids, init, mats, dropped


def _diagnostics(grids1, points1, init, mats, dropped, targets, per_step) -> tuple[StepDiagnostics, ...]:
    """Push the 1-d law forward step by step and measure the mean and
    variance of its points against targets(t); per_step(t, w, h) is the
    model's error estimate at step t on the Brownian grid w of spacing h,
    compounded into the tolerance 2t * per_step."""
    out = []
    mass = init
    for t, (w, x) in enumerate(zip(grids1, points1), start=1):
        mean = float(np.sum(mass * x))
        var = float(np.sum(mass * x**2) - mean**2)
        target_mean, target_var = targets(t)
        h = w[1] - w[0]
        out.append(StepDiagnostics(step=t, mean_error=abs(mean - target_mean),
                                   variance_error=abs(var - target_var),
                                   dropped_mass=max(dropped[: t]),
                                   tolerance=2.0 * t * per_step(t, w, h)))
        if t < len(grids1):
            mass = mass @ mats[t - 1]
    return tuple(out)


def discretize_brownian(dim: int, horizon: int, grid_size: int,
                        support_radius: float) -> MarkovChainSpec:
    """Chain whose coordinates follow independent standard Brownian motions,
    binned to per-step uniform grids on [-support_radius*sqrt(t), +...]."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if support_radius <= 0:
        raise ValueError("support_radius must be positive")
    grids1, init1, mats1, dropped = _brownian_1d_parts(horizon, grid_size, support_radius)

    def per_step(t, w, h):
        # Conservative per-step quantization + truncation estimate.
        zbar = (support_radius * math.sqrt(t) + h / 2) / math.sqrt(t)
        tail2 = 2 * t * (_normal_cdf(-zbar) + zbar * math.exp(-zbar * zbar / 2) / math.sqrt(2 * math.pi))
        return h * math.sqrt(2 * t / math.pi) + h * h / 4 + tail2 + max(dropped) * 2 * t

    diag = _diagnostics(grids1, grids1, init1, mats1, dropped, lambda t: (0.0, t), per_step)
    return _product_chain(dim, grids1, init1, mats1, np.zeros(dim), diag)


def discretize_gbm(dim: int, horizon: int, grid_size: int,
                   support_radius: float) -> MarkovChainSpec:
    """Chain whose coordinates follow independent geometric Brownian motions
    started at 1; grids are exponentials of the Brownian grids."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if support_radius <= 0:
        raise ValueError("support_radius must be positive")
    grids1, init1, mats1, dropped = _brownian_1d_parts(horizon, grid_size, support_radius)
    gbm_grids1 = [np.exp(w - t / 2) for t, w in enumerate(grids1, start=1)]

    def per_step(t, w, h):
        # |d/dw e^{w-t/2}| peaks at the upper grid edge; tails are exact normal
        # integrals of e^{w-t/2} beyond the outer edges.
        edge = w[-1] + h / 2
        quant = math.exp(edge - t / 2) * h / 2
        upper = _normal_cdf((t - edge) / math.sqrt(t))
        lower = _normal_cdf((-edge - t) / math.sqrt(t))
        return quant + upper + lower + max(dropped) * math.exp(edge - t / 2)

    diag = _diagnostics(grids1, gbm_grids1, init1, mats1, dropped,
                        lambda t: (1.0, math.exp(t) - 1.0), per_step)
    return _product_chain(dim, gbm_grids1, init1, mats1, np.ones(dim), diag)

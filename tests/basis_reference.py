"""Bases, payoffs, norms and bounds that only tests use: a regression basis
that spans every grid function (one indicator per grid slot), table payoffs,
the L2 norm under a step marginal and the log-normal tail bound. No config
reaches them; the runtime bases and payoffs are in qlsm.basis and
qlsm.payoff."""
import math

import numpy as np

from qlsm.basis import KIND_GENERIC, BasisSpec
from qlsm.chain import MarkovChainSpec
from qlsm.payoff import PayoffSpec


def indicator_basis(chain: MarkovChainSpec) -> BasisSpec:
    """One indicator per grid slot; spans every function on equal-size grids."""
    sizes = {chain.n_states(t) for t in range(1, chain.horizon + 1)}
    if len(sizes) != 1:
        raise ValueError("indicator basis needs equally sized grids")
    size = sizes.pop()
    grids = {t: chain.grid(t) for t in range(1, chain.horizon + 1)}

    def evaluator(t: float, points: np.ndarray) -> np.ndarray:
        # Nearest grid slot per point; argmin keeps the first slot on ties.
        dist = np.linalg.norm(points[:, None, :] - grids[int(t)][None], axis=2)
        return np.eye(size)[dist.argmin(axis=1)]

    return BasisSpec(kind=KIND_GENERIC, size=size, horizon=chain.horizon, evaluator=evaluator)


def table_payoff(tables: dict[int, np.ndarray], start_value: float, label: str = "table") -> PayoffSpec:
    """Payoff given by explicit per-step value tables indexed like the grids."""

    def f(t: int, pts: np.ndarray) -> np.ndarray:
        if t == 0:
            return np.array([start_value], dtype=float)
        vals = np.asarray(tables[t], dtype=float)
        if vals.shape[0] != pts.shape[0]:
            raise ValueError(f"table at step {t} does not match the grid")
        return vals

    return PayoffSpec(step_function=f, label=label)


def weighted_l2_norm(chain: MarkovChainSpec, t: int, values: np.ndarray) -> float:
    """L2 norm of a per-state function under the step-t marginal (t=0 allowed)."""
    if t == 0:
        return float(abs(values[0]))
    chain.grid(t)  # range-checks t
    return float(np.sqrt(np.sum(chain.marginals[t - 1] * values * values)))


def gbm_tail_bound(k: int, cube_radius: float, t: float) -> float:
    """Upper bound on E[x^k; x > cube_radius] for x log-normal with
    ln x ~ N(-t/2, t), the step-t law of a geometric Brownian coordinate.

    The tail moment is e^{t k(k-1)/2} times the normal tail at
    z = (ln(cube_radius) - t(k - 1/2)) / sqrt(t), which is at most
    e^{-z^2/2} / 2 for z >= 0. So the bound holds only in the regime
    ln(cube_radius) >= t*(k - 1/2).
    """
    if cube_radius <= 0 or t <= 0 or k < 0:
        raise ValueError("need cube_radius > 0, t > 0, k >= 0")
    lam = float(cube_radius)
    expo = (t / 2.0) * k * (k - 1) - (1.0 / (2.0 * t)) * (math.log(lam) - t * (k - 0.5)) ** 2
    return 0.5 * math.exp(expo)

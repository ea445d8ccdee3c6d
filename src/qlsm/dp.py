"""Exact dynamic-programming oracle: value tables by backward induction,
optimal stopping times, and exact least-squares projections of continuation
values. Ground truth for every estimate elsewhere in the package."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .basis import BasisSpec
from .chain import DEFAULT_ENUMERATION_CAP, MarkovChainSpec, PathEnsemble, image_measure
from .errors import CapExceeded, SingularGram
from .payoff import PayoffSpec


@dataclass(frozen=True, eq=False)
class SnellTable:
    """Backward-induction value table for one chain/payoff pair.

    values[t] holds the optimal expected payoff started at step t per state
    (t=0 is a single entry); continuation[t] the expected payoff of not
    stopping at t; stop[t] the stop-here decision with ties stopping.
    """

    chain: MarkovChainSpec
    payoff: PayoffSpec
    values: tuple[np.ndarray, ...]
    continuation: tuple[np.ndarray, ...]
    stop: tuple[np.ndarray, ...]

    @property
    def value0(self) -> float:
        return float(self.values[0][0])

    @property
    def continuation0(self) -> float:
        return float(self.continuation[0][0])


def snell_envelope(chain: MarkovChainSpec, payoff: PayoffSpec,
                   cap: int = DEFAULT_ENUMERATION_CAP) -> SnellTable:
    """Exact value table; stops on ties (payoff >= continuation)."""
    if chain.path_space_size() > cap:
        raise CapExceeded(f"path space {chain.path_space_size()} exceeds cap {cap}")
    T = chain.horizon
    values: list[np.ndarray] = [None] * (T + 1)
    continuation: list[np.ndarray] = [None] * T
    stop: list[np.ndarray] = [None] * (T + 1)
    z_T = payoff.values(chain, T)
    values[T] = z_T.copy()
    stop[T] = np.ones(z_T.shape[0], dtype=bool)
    for t in range(T - 1, 0, -1):
        cont = chain.transition(t) @ values[t + 1]
        z_t = payoff.values(chain, t)
        stop[t] = z_t >= cont
        values[t] = np.where(stop[t], z_t, cont)
        continuation[t] = cont
    cont0 = float(chain.initial_distribution @ values[1])
    z0 = payoff.value_at_start(chain)
    stop[0] = np.array([z0 >= cont0])
    values[0] = np.array([max(z0, cont0)])
    continuation[0] = np.array([cont0])
    return SnellTable(chain=chain, payoff=payoff, values=tuple(values),
                      continuation=tuple(continuation), stop=tuple(stop))


def optimal_stopping_times(table: SnellTable, ensemble: PathEnsemble) -> np.ndarray:
    """(n_paths, horizon+1) matrix with entry [i, t] = first stop time >= t
    along path i under the table's decisions."""
    T = table.chain.horizon
    n = len(ensemble)
    out = np.empty((n, T + 1), dtype=np.int64)
    out[:, T] = T
    for t in range(T - 1, 0, -1):
        stop_here = table.stop[t][ensemble.state_indices_at(t)]
        out[:, t] = np.where(stop_here, t, out[:, t + 1])
    out[:, 0] = 0 if bool(table.stop[0][0]) else out[:, 1]
    return out


def payoff_at_times(chain: MarkovChainSpec, payoff: PayoffSpec,
                    ensemble: PathEnsemble, times: np.ndarray) -> np.ndarray:
    """Per-path payoff collected at the given per-path times (0..horizon)."""
    times = np.asarray(times)
    out = np.full(len(ensemble), payoff.value_at_start(chain))
    for t in range(1, chain.horizon + 1):
        at_t = times == t
        if at_t.any():
            out[at_t] = payoff.values(chain, t)[ensemble.state_indices_at(t)[at_t]]
    return out


@dataclass(frozen=True, eq=False)
class CoefficientRule:
    """Stop-or-continue rule driven by linear scores against a basis.

    coefficients maps step t (1..horizon-1) to the weight vector whose dot
    product with the basis row plays the continuation estimate in the
    tie-stops comparison. An optional quantizer is applied to both payoff
    values and scores before comparing, so fixed-point pipelines can be
    reproduced exactly.
    """

    basis: BasisSpec
    coefficients: Mapping[int, np.ndarray]
    quantize: Callable[[np.ndarray], np.ndarray] | None = None

    def scores(self, chain: MarkovChainSpec, t: int) -> np.ndarray:
        mat = self.basis.evaluate(t, chain.grid(t))
        coef = np.asarray(self.coefficients[t], dtype=float)
        if self.quantize is None:
            return mat @ coef
        return self.quantize(np.sum(self.quantize(mat) * self.quantize(coef)[None, :], axis=1))

    def stop_mask(self, chain: MarkovChainSpec, payoff: PayoffSpec, t: int) -> np.ndarray:
        z = payoff.values(chain, t)
        if self.quantize is not None:
            z = self.quantize(z)
        return z >= self.scores(chain, t)


OPTIMAL_RULE = "optimal"


def continuation_values(chain: MarkovChainSpec, payoff: PayoffSpec,
                        rule, t: int) -> np.ndarray:
    """Exact E[payoff at the rule's stop time after t | state at t], per state.

    rule is either the string "optimal" (stop times from the exact table) or
    a CoefficientRule. t ranges over 0..horizon-1; t=0 gives one value.
    """
    T = chain.horizon
    if not 0 <= t <= T - 1:
        raise ValueError("t must lie in 0..horizon-1")
    if rule == OPTIMAL_RULE:
        table = snell_envelope(chain, payoff)
        if t == 0:
            return np.array([table.continuation0])
        return table.continuation[t].copy()
    values = payoff.values(chain, T).copy()
    for u in range(T - 1, t, -1):
        cont = chain.transition(u) @ values
        z_u = payoff.values(chain, u)
        stop_here = rule.stop_mask(chain, payoff, u)
        values = np.where(stop_here, z_u, cont)
    if t == 0:
        return np.array([float(chain.initial_distribution @ values)])
    return chain.transition(t) @ values


def weighted_l2_norm(chain: MarkovChainSpec, t: int, values: np.ndarray) -> float:
    """L2 norm of a per-state function under the step-t marginal (t=0 allowed)."""
    if t == 0:
        return float(abs(values[0]))
    masses = image_measure(chain, t).masses
    return float(np.sqrt(np.sum(masses * values * values)))


def exact_approximation_error(chain: MarkovChainSpec, payoff: PayoffSpec,
                              basis: BasisSpec, t: int, rule=OPTIMAL_RULE) -> float:
    """Residual L2(marginal) norm of the best linear fit to the continuation
    values at step t, solved exactly by weighted normal equations."""
    if not 1 <= t <= chain.horizon - 1:
        raise ValueError("t must lie in 1..horizon-1")
    target = continuation_values(chain, payoff, rule, t)
    measure = image_measure(chain, t)
    mat = basis.evaluate(t, measure.points)
    weighted = mat * measure.masses[:, None]
    gram = weighted.T @ mat
    rhs = weighted.T @ target
    smin = float(np.linalg.svd(gram, compute_uv=False)[-1])
    if smin <= 1e-13 * max(1.0, float(np.abs(gram).max())):
        raise SingularGram(t, smin)
    coef = np.linalg.solve(gram, rhs)
    resid = mat @ coef - target
    return float(np.sqrt(np.sum(measure.masses * resid * resid)))

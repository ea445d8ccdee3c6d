"""Exact dynamic-programming oracle: value tables by backward induction, the
per-state law of the optimal stop time, and exact least-squares projections
of a given target. Ground truth for every estimate elsewhere in the
package, and home of the stop rule that the classical sampler and the
stopping circuits share: stop_decision and CoefficientRule's fixed-point
scores. _induction is the one backward recursion: the exact values, the
values of coefficient rules and the circuits' stopped-payoff laws all run
it, and the classical sampler runs its update values(t) = where(stop(t),
z(t), carried) along its own sampled paths. Nothing here enumerates paths."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .basis import BasisSpec, gram_matrix, solve_gram
from .chain import MarkovChainSpec
from .errors import CapExceeded
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


def stop_decision(payoff_values: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Per-state stop mask: stop where the payoff is at least the score, so
    ties stop."""
    return np.asarray(payoff_values) >= np.asarray(scores)


@dataclass(frozen=True, eq=False)
class CoefficientRule:
    """Stop-or-continue rule driven by linear scores against a basis.

    coefficients maps step t (1..horizon-1) to the weight vector whose dot
    product with the basis row plays the continuation estimate in
    stop_decision. With a quantizer, scores are the stopping circuits'
    fixed-point multiply-accumulate (rounded inputs, summed left to right,
    rounding after every multiply and add) and payoffs are rounded too, so
    the rule reproduces the circuits' decisions bit for bit.
    """

    basis: BasisSpec
    coefficients: Mapping[int, np.ndarray]
    quantize: Callable[[np.ndarray], np.ndarray] | None = None

    def row_scores(self, t: int, rows: np.ndarray) -> np.ndarray:
        """Score of each basis row (one row per state) at step t."""
        coef = np.asarray(self.coefficients[t], dtype=float)
        if self.quantize is None:
            return rows @ coef
        q = self.quantize
        rows, coef = q(rows), q(coef)
        acc = np.zeros(rows.shape[0])
        for k in range(rows.shape[1]):
            acc = q(acc + q(rows[:, k] * coef[k]))
        return acc

    def scores(self, chain: MarkovChainSpec, t: int) -> np.ndarray:
        return self.row_scores(t, self.basis.evaluate(t, chain.grid(t)))

    def stop_mask(self, chain: MarkovChainSpec, payoff: PayoffSpec, t: int) -> np.ndarray:
        z = payoff.values(chain, t)
        return stop_decision(z if self.quantize is None else self.quantize(z),
                             self.scores(chain, t))


def _induction(chain: MarkovChainSpec, stop_values: Callable[[int], np.ndarray],
               stop_mask: Callable[[int], np.ndarray] | None, down_to: int
               ) -> Iterator[tuple[int, np.ndarray, np.ndarray | None, np.ndarray]]:
    """The one backward induction of the stopping-time recursion (Longstaff
    & Schwartz, RFS 2001), from the horizon down to step down_to. The last
    step always stops; before it, continuation[t] = chain.expect(t,
    values[t+1]), stop[t] = stop_mask(t), or stop_decision(stop_values(t),
    continuation[t]) for the exact rule (stop_mask None), and values[t] =
    where(stop[t], stop_values(t), continuation[t]). stop_values(t) holds
    what stopping at step t collects per state, on the last axis, with any
    leading batch axes. Yields (t, values[t], continuation[t], stop[t]) one
    step at a time from t = horizon (continuation None) and keeps only the
    step in hand, so a caller that wants the last step alone holds no
    earlier one."""
    T = chain.horizon
    values = np.array(stop_values(T), dtype=float)
    yield T, values, None, np.ones(values.shape[-1], dtype=bool)
    for t in range(T - 1, down_to - 1, -1):
        cont = chain.expect(t, values)
        z = stop_values(t)
        stop = stop_decision(z, cont) if stop_mask is None else stop_mask(t)
        values = np.where(stop, z, cont)
        yield t, values, cont, stop


def _last_values(steps: Iterator) -> np.ndarray:
    """values[t] of an _induction's last step, dropping each continuation
    array as soon as it is yielded."""
    for _, values, _, _ in steps:
        pass
    return values


def snell_envelope(chain: MarkovChainSpec, payoff: PayoffSpec,
                   cap: int | None = None) -> SnellTable:
    """Exact value table; stops on ties (payoff >= continuation).

    The induction costs T * n^2 and enumerates no path, so by default any
    chain is accepted; cap, when given, bounds the chain's path count."""
    if cap is not None and chain.path_space_size() > cap:
        raise CapExceeded(f"path space {chain.path_space_size()} exceeds cap {cap}")
    T = chain.horizon
    values, continuation, stop = [None] * (T + 1), [None] * (T + 1), [None] * (T + 1)
    for t, values[t], continuation[t], stop[t] in _induction(
            chain, lambda t: payoff.values(chain, t), None, 0):
        pass
    return SnellTable(chain=chain, payoff=payoff, values=tuple(values),
                      continuation=tuple(continuation[:T]), stop=tuple(stop))


def stop_masses(table: SnellTable) -> tuple[np.ndarray, ...]:
    """P(tau = t, X_t = x) per state for t = 0..horizon (one entry at t=0),
    tau the first step whose state the table stops: one forward pass that
    keeps the alive mass at stopping states and pushes the rest on with
    chain.push, so it holds O(horizon * n) floats and enumerates no path."""
    chain = table.chain
    alive, masses = np.ones(1), []
    for t, stop in enumerate(table.stop):
        if t:
            alive = alive[0] * chain.marginals[0] if t == 1 else chain.push(t - 1, alive)
        masses.append(np.where(stop, alive, 0.0))
        alive = np.where(stop, 0.0, alive)
    return tuple(masses)


def continuation_values(chain: MarkovChainSpec, payoff: PayoffSpec,
                        rule: CoefficientRule, t: int) -> np.ndarray:
    """Exact E[payoff at the rule's stop time after t | state at t], per state,
    t in 0..horizon-1 (one value at t=0). The optimal rule's are the Snell
    table's continuation[t]."""
    if not 0 <= t <= chain.horizon - 1:
        raise ValueError("t must lie in 0..horizon-1")
    values = _last_values(_induction(chain, lambda u: payoff.values(chain, u),
                                     lambda u: rule.stop_mask(chain, payoff, u), t + 1))
    return chain.expect(t, values)


def exact_approximation_error(chain: MarkovChainSpec, basis: BasisSpec, t: int,
                              target: np.ndarray) -> float:
    """Residual L2(marginal) norm of the exact least-squares fit of the basis
    to target, one value per step-t state: the exact Gram and
    basis.solve_gram, whose singular check the LSM runs share."""
    if not 1 <= t <= chain.horizon - 1:
        raise ValueError("t must lie in 1..horizon-1")
    mat = basis.evaluate(t, chain.grid(t))
    masses = chain.marginals[t - 1]
    rhs = (mat * masses[:, None]).T @ target
    resid = mat @ solve_gram(gram_matrix(basis, chain, t), rhs, t) - target
    return float(np.sqrt(np.sum(masses * resid * resid)))

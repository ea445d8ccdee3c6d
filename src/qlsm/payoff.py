"""Payoff processes on chain grids: standard options, magnitude truncation and
the moment quantities feeding the truncation-error schedules."""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chain import MarkovChainSpec

StepFunction = Callable[[int, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class PayoffSpec:
    """Non-negative payoff z_t(x) evaluated on chain grids.

    The same step function serves every step; step 0 is the scalar value at
    the chain's start point. Each step's values are computed on its first
    values call and cached per (chain, step), held only while the chain is
    alive.
    """

    step_function: StepFunction
    label: str = "payoff"
    uniform_bound: float | None = None
    truncation_level: float | None = None
    _grid_cache: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, repr=False, compare=False)

    def values(self, chain: MarkovChainSpec, t: int) -> np.ndarray:
        """Payoff on the step-t grid (t=0 gives a single-entry array)."""
        steps = self._grid_cache.get(chain)
        if steps is None:
            steps = self._grid_cache[chain] = {}
        cached = steps.get(t)
        if cached is not None:
            return cached
        if t == 0:
            pts = chain.initial_state[None, :]
        else:
            pts = chain.grid(t)
        vals = np.asarray(self.step_function(t, pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise ValueError("step function must return one value per grid point")
        if np.any(vals < 0):
            raise ValueError(f"payoff '{self.label}' is negative at step {t}")
        vals.setflags(write=False)
        steps[t] = vals
        return vals

    def value_at_start(self, chain: MarkovChainSpec) -> float:
        return float(self.values(chain, 0)[0])

    def grid_bound(self, chain: MarkovChainSpec) -> float:
        """Exact max of the payoff over the step-1..horizon grids."""
        return max(float(self.values(chain, t).max()) for t in range(1, chain.horizon + 1))

    def bound_for(self, chain: MarkovChainSpec) -> float:
        """Declared uniform bound, validated against the grids, else the grid max."""
        exact = self.grid_bound(chain)
        if self.uniform_bound is None:
            return exact
        if exact > self.uniform_bound + 1e-12:
            raise ValueError(
                f"declared bound {self.uniform_bound} is below the grid max {exact}"
            )
        return float(self.uniform_bound)


def put_payoff(strike: float) -> PayoffSpec:
    """max(0, strike - mean(x)): a put on the equally weighted basket of the
    coordinates, in one dimension the plain put."""
    if strike <= 0:
        raise ValueError("strike must be positive")

    def f(t: int, pts: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, strike - pts.mean(axis=1))

    return PayoffSpec(step_function=f, label=f"put(K={strike})")


def call_payoff(strike: float) -> PayoffSpec:
    """max(0, mean(x) - strike): a call on the equally weighted basket of the
    coordinates, in one dimension the plain call."""
    if strike <= 0:
        raise ValueError("strike must be positive")

    def f(t: int, pts: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, pts.mean(axis=1) - strike)

    return PayoffSpec(step_function=f, label=f"call(K={strike})")


def constant_payoff(value: float) -> PayoffSpec:
    if value < 0:
        raise ValueError("payoffs are non-negative")
    return PayoffSpec(step_function=lambda t, pts: np.full(pts.shape[0], float(value)),
                      label=f"const({value})", uniform_bound=value)


def truncate(payoff: PayoffSpec, level: float) -> PayoffSpec:
    """Clamp the payoff magnitude at `level` for steps t >= 1.

    The start value is left alone; the new uniform bound is min(old, level).
    Idempotent: truncating twice at the same level changes nothing.
    """
    if level <= 0:
        raise ValueError("truncation level must be positive")
    inner = payoff.step_function

    def f(t: int, pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(inner(t, pts), dtype=float)
        if t == 0:
            return vals
        return np.clip(vals, -level, level)

    bound = level if payoff.uniform_bound is None else min(payoff.uniform_bound, level)
    return PayoffSpec(step_function=f, label=f"{payoff.label}|clamp({level})",
                      uniform_bound=bound, truncation_level=level)


def max_power_norm(payoff: PayoffSpec, chain: MarkovChainSpec, power: float) -> float:
    """Exact max over steps of E[|z_t(X_t)|^power] under the step marginals."""
    worst = 0.0
    for t in range(1, chain.horizon + 1):
        vals = payoff.values(chain, t)
        worst = max(worst, float(np.sum(chain.marginals[t - 1] * np.abs(vals) ** power)))
    return worst


def mean_abs_coordinate_sum(chain: MarkovChainSpec) -> float:
    """max over steps 1..horizon-1 of sum_i E|X_{t,i}| (0 when horizon == 1)."""
    best = 0.0
    for t in range(1, chain.horizon):
        points = chain.grid(t)
        total = float(np.sum(chain.marginals[t - 1][:, None] * np.abs(points)))
        best = max(best, total)
    return best


def truncation_error_coefficient(payoff: PayoffSpec, chain: MarkovChainSpec, power: float) -> float:
    """Coefficient multiplying lambda^(2/p - 1) in the payoff-truncation error.

    Equals horizon * sqrt(2 M_p / (p - 2)) + max_t sum_i E|X_{t,i}| with the
    moment M_p computed exactly on the finite chain.
    """
    if not power > 2:
        raise ValueError("power must exceed 2")
    if not math.isfinite(power):
        raise ValueError("power must be finite")
    moment = max_power_norm(payoff, chain, power)
    return chain.horizon * math.sqrt(2 * moment / (power - 2)) + mean_abs_coordinate_sum(chain)

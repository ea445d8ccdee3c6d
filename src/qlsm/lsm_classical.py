"""Classical least-squares Monte Carlo: one sampled path set, the backward
cash-flow loop (Longstaff & Schwartz, RFS 2001) and the sample-count
schedule. Each path carries the payoff it collects at its first stop after
the step in hand; a step regresses on that carry, then replaces it with the
step's payoff where the fitted rule (dp.stop_decision) stops, the update
values(t) = where(stop(t), z(t), carried) of dp's backward induction.

On a finite chain a sum over paths is a sum over grid states weighted by
visit counts, so each step's regression works from per-state visit counts
and per-state sums of the payoffs collected at the first stops after the
step. With B the step's basis table (one row per state), c the counts, s
the sums and N the path count, the Gram matrix is B^T diag(c) B / N (one
triangle mirrored, so it is exactly symmetric) and the targets B^T s / N; the
stop mask is scored on the same table. A step takes O(N + n m^2) time and
O(n m) memory for n states and m basis functions, and no per-path basis
matrix is built. The query counts are unchanged: they bill every path, as
the algorithm's cost model does, not the simulator's work.

Regression coefficients come from a pivoted factorization solve; the matrix
inverse is never formed, even where a textbook statement would compute it."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, closed_form_gram, solve_gram
from .chain import MarkovChainSpec, sample_paths
from .dp import CoefficientRule, stop_decision
from .errors import ScheduleViolation
from .payoff import PayoffSpec
from .qsim.ledger import CostWeights


@dataclass(eq=False)
class LsmRun:
    """Record of one regression Monte Carlo run: counts, per-step regressions
    and coefficients. The sampled paths and their stop times are not kept;
    sample_paths(chain, path_count, seed) draws the same paths again."""

    chain: MarkovChainSpec
    payoff: PayoffSpec
    basis: BasisSpec
    path_count: int
    seed: object
    gram_mode: str
    gram_matrices: dict[int, np.ndarray]
    targets: dict[int, np.ndarray]
    coefficients: dict[int, np.ndarray]
    estimate: float
    sample_draws: int
    payoff_queries: int
    basis_queries: int

    def to_json(self) -> str:
        doc = {
            "path_count": self.path_count,
            "gram_mode": self.gram_mode,
            "estimate": self.estimate,
            "coefficients": {str(t): c.tolist() for t, c in self.coefficients.items()},
            "gram_matrices": {str(t): m.tolist() for t, m in self.gram_matrices.items()},
            "targets": {str(t): b.tolist() for t, b in self.targets.items()},
            "sample_draws": self.sample_draws,
            "payoff_queries": self.payoff_queries,
            "basis_queries": self.basis_queries,
        }
        return json.dumps(doc, sort_keys=True)


def choose_sample_count(basis_size: int, accuracy: float, failure: float) -> int:
    """Path count ceil(m^2/(2 eps^2) * ln(6 m^2 / delta)) matching the
    per-entry Chernoff schedule; raises ScheduleViolation when eps^2
    underflows, so that no float count meets it."""
    if accuracy <= 0 or not 0 < failure < 1:
        raise ValueError("need accuracy > 0 and failure in (0,1)")
    m, scale = basis_size, 2.0 * accuracy * accuracy
    count = m * m / scale * math.log(6.0 * m * m / failure) if scale else math.inf
    if count == math.inf:
        raise ScheduleViolation(f"epsilon {accuracy!r} is too small: its square underflows")
    return math.ceil(count)


GRAM_MODES = ("sampled", "closed_form")


def run_classical_lsm(chain: MarkovChainSpec, payoff: PayoffSpec, basis: BasisSpec,
                      path_count: int, seed, gram_mode: str = "sampled") -> LsmRun:
    """One run over a single sampled path set.

    The regression matrices come from the same paths that drive the backward
    recursion (gram_mode="sampled") or from the basis' closed form
    (gram_mode="closed_form"); only the regression targets are sampled in the
    latter case.
    """
    if gram_mode not in GRAM_MODES:
        raise ValueError(f"unknown gram_mode {gram_mode!r}")
    T = chain.horizon
    m = basis.size
    if gram_mode == "sampled" and path_count < m:
        raise ValueError("need at least as many paths as basis functions")
    idx = sample_paths(chain, path_count, seed)
    grams: dict[int, np.ndarray] = {}
    targets: dict[int, np.ndarray] = {}
    coefficients: dict[int, np.ndarray] = {}
    rule = CoefficientRule(basis, coefficients)

    collected = payoff.values(chain, T)[idx[:, T - 1]]
    for t in range(T - 1, 0, -1):
        table = basis.evaluate(t, chain.grid(t))
        here = np.ascontiguousarray(idx[:, t - 1])
        if gram_mode == "closed_form":
            gram = closed_form_gram(basis, t)
        else:
            counts = np.bincount(here, minlength=len(table))
            gram = (table.T * counts) @ table / path_count
            gram = np.triu(gram) + np.triu(gram, 1).T  # exactly symmetric
        sums = np.bincount(here, weights=collected, minlength=len(table))
        rhs = table.T @ sums / path_count
        grams[t], targets[t] = gram, rhs
        coefficients[t] = solve_gram(gram, rhs, t)
        z_t = payoff.values(chain, t)
        stop = stop_decision(z_t, rule.row_scores(t, table))[here]
        collected = np.where(stop, z_t[here], collected)
    estimate = max(payoff.value_at_start(chain), float(collected.mean()))

    basis_queries = path_count * (T - 1) * m * (2 if gram_mode == "sampled" else 1)
    return LsmRun(
        chain=chain, payoff=payoff, basis=basis, path_count=path_count, seed=seed,
        gram_mode=gram_mode, gram_matrices=grams, targets=targets,
        coefficients=coefficients, estimate=estimate,
        sample_draws=path_count * T, payoff_queries=path_count * T,
        basis_queries=basis_queries,
    )


def classical_cost_units(run: LsmRun, weights: CostWeights = CostWeights()) -> float:
    """Oracle-cost total of a run under the given per-query weights."""
    return (run.sample_draws * weights.sample_step + run.payoff_queries * weights.payoff_query
            + run.basis_queries * weights.basis_query)

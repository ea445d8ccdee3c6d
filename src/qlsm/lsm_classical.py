"""Classical least-squares Monte Carlo: one sampled path set, per-step
regressions, the dp first-stop recursion along the sampled paths, and the
sample-count schedule.

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
from .dp import CoefficientRule, first_stops, stop_decision
from .payoff import PayoffSpec


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
    per-entry Chernoff schedule."""
    if accuracy <= 0 or not 0 < failure < 1:
        raise ValueError("need accuracy > 0 and failure in (0,1)")
    m = basis_size
    return math.ceil(m * m / (2.0 * accuracy * accuracy) * math.log(6.0 * m * m / failure))


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
    z = np.concatenate([payoff.values(chain, t) for t in range(1, T + 1)])
    sizes = [chain.n_states(t) for t in range(1, T + 1)]
    offsets = np.cumsum([0, *sizes])

    grams: dict[int, np.ndarray] = {}
    targets: dict[int, np.ndarray] = {}
    coefficients: dict[int, np.ndarray] = {}
    rule = CoefficientRule(basis, coefficients)

    def regress(t: int, later: np.ndarray) -> np.ndarray:
        """Fit step t on the payoffs collected at the first stops after t."""
        table = basis.evaluate(t, chain.grid(t))
        here = np.ascontiguousarray(idx[:, t - 1])
        if gram_mode == "closed_form":
            gram = closed_form_gram(basis, t)
        else:
            counts = np.bincount(here, minlength=len(table))
            gram = (table.T * counts) @ table / path_count
            gram = np.triu(gram) + np.triu(gram, 1).T  # exactly symmetric
        sums = np.bincount(here, weights=z[later], minlength=len(table))
        rhs = table.T @ sums / path_count
        grams[t], targets[t] = gram, rhs
        coefficients[t] = solve_gram(gram, rhs, t)
        return stop_decision(z[offsets[t - 1]:offsets[t]], rule.row_scores(t, table))

    for _, stops in first_stops(sizes, idx.T, lambda k, later: regress(k + 1, later)):
        pass
    z0 = payoff.value_at_start(chain)
    estimate = max(z0, float(z[stops].mean()))

    basis_queries = path_count * (T - 1) * m * (2 if gram_mode == "sampled" else 1)
    return LsmRun(
        chain=chain, payoff=payoff, basis=basis, path_count=path_count, seed=seed,
        gram_mode=gram_mode, gram_matrices=grams, targets=targets,
        coefficients=coefficients, estimate=estimate,
        sample_draws=path_count * T, payoff_queries=path_count * T,
        basis_queries=basis_queries,
    )


def classical_cost_units(run: LsmRun, sample_step: float = 1.0, payoff_query: float = 1.0,
                         basis_query: float = 1.0) -> float:
    """Oracle-cost total of a run under the given per-query weights."""
    return (run.sample_draws * sample_step + run.payoff_queries * payoff_query
            + run.basis_queries * basis_query)

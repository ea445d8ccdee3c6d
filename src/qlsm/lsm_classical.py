"""Classical least-squares Monte Carlo: one sampled path set, per-step
regressions, backward stopping-time recursion, and the sample-count schedule.

Regression coefficients come from a pivoted factorization solve; the matrix
inverse is never formed, even where a textbook statement would compute it."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, closed_form_gram
from .chain import MarkovChainSpec, sample_paths
from .errors import SingularGram
from .payoff import PayoffSpec

_SINGULAR_REL_TOL = 1e-12


@dataclass(eq=False)
class LsmRun:
    """Full record of one regression Monte Carlo run."""

    chain: MarkovChainSpec
    payoff: PayoffSpec
    basis: BasisSpec
    path_count: int
    seed: object
    gram_mode: str
    path_indices: np.ndarray            # (N, T) grid indices
    gram_matrices: dict[int, np.ndarray]
    targets: dict[int, np.ndarray]
    coefficients: dict[int, np.ndarray]
    stopping_times: np.ndarray          # (N, T) with column t-1 holding tau_t
    estimate: float
    sample_draws: int
    payoff_queries: int
    basis_queries: int

    def stopping_time(self, t: int) -> np.ndarray:
        return self.stopping_times[:, t - 1]

    def recompute_stopping_times(self) -> np.ndarray:
        """Re-run the per-path recursion from the stored coefficients."""
        return _backward_recursion(self.chain, self.payoff, self.basis,
                                   self.path_indices, self.coefficients)[0]

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


def _payoff_matrix(chain: MarkovChainSpec, payoff: PayoffSpec, idx: np.ndarray) -> np.ndarray:
    """(N, T) payoff values along sampled paths; columns are steps 1..T."""
    cols = [payoff.values(chain, t)[idx[:, t - 1]] for t in range(1, chain.horizon + 1)]
    return np.column_stack(cols)


def _backward_recursion(chain, payoff, basis, idx, coefficients):
    """Stopping times and collected payoffs from fixed coefficient vectors."""
    N, T = idx.shape
    z = _payoff_matrix(chain, payoff, idx)
    tau = np.full(N, T, dtype=np.int64)
    collected = z[:, T - 1].copy()
    taus = np.empty((N, T), dtype=np.int64)
    taus[:, T - 1] = T
    for t in range(T - 1, 0, -1):
        scores = basis.evaluate(t, chain.grid(t)) @ coefficients[t]
        per_path = scores[idx[:, t - 1]]
        stop_here = z[:, t - 1] >= per_path
        tau = np.where(stop_here, t, tau)
        collected = np.where(stop_here, z[:, t - 1], collected)
        taus[:, t - 1] = tau
    return taus, collected


def run_classical_lsm(chain: MarkovChainSpec, payoff: PayoffSpec, basis: BasisSpec,
                      path_count: int, seed, gram_mode: str = "sampled") -> LsmRun:
    """One run over a single sampled path set.

    The regression matrices come from the same paths that drive the backward
    recursion (gram_mode="sampled") or from the basis' closed form
    (gram_mode="closed_form"); only the regression targets are sampled in the
    latter case.
    """
    T = chain.horizon
    m = basis.size
    if gram_mode == "sampled" and path_count < m:
        raise ValueError("need at least as many paths as basis functions")
    idx = sample_paths(chain, path_count, seed)
    z = _payoff_matrix(chain, payoff, idx)
    basis_rows = {t: basis.evaluate(t, chain.grid(t)) for t in range(1, T)}

    grams: dict[int, np.ndarray] = {}
    for t in range(1, T):
        if gram_mode == "closed_form":
            mat = closed_form_gram(basis, t)
            if mat is None:
                raise ValueError(f"basis kind {basis.kind!r} has no closed-form Gram")
            grams[t] = mat
        elif gram_mode == "sampled":
            rows = basis_rows[t][idx[:, t - 1]]
            grams[t] = rows.T @ rows / path_count
        else:
            raise ValueError(f"unknown gram_mode {gram_mode!r}")

    targets: dict[int, np.ndarray] = {}
    coefficients: dict[int, np.ndarray] = {}
    taus = np.empty((path_count, T), dtype=np.int64)
    taus[:, T - 1] = T
    collected = z[:, T - 1].copy()
    for t in range(T - 1, 0, -1):
        rows = basis_rows[t][idx[:, t - 1]]
        rhs = rows.T @ collected / path_count
        gram = grams[t]
        svals = np.linalg.svd(gram, compute_uv=False)
        if svals[-1] <= _SINGULAR_REL_TOL * max(1.0, svals[0]):
            raise SingularGram(t, float(svals[-1]))
        coef = np.linalg.solve(gram, rhs)
        targets[t] = rhs
        coefficients[t] = coef
        stop_here = z[:, t - 1] >= rows @ coef
        collected = np.where(stop_here, z[:, t - 1], collected)
        taus[:, t - 1] = np.where(stop_here, t, taus[:, t])
    z0 = payoff.value_at_start(chain)
    estimate = max(z0, float(collected.mean()))

    basis_queries = path_count * (T - 1) * m * (2 if gram_mode == "sampled" else 1)
    return LsmRun(
        chain=chain, payoff=payoff, basis=basis, path_count=path_count, seed=seed,
        gram_mode=gram_mode, path_indices=idx, gram_matrices=grams, targets=targets,
        coefficients=coefficients, stopping_times=taus, estimate=estimate,
        sample_draws=path_count * T, payoff_queries=path_count * T,
        basis_queries=basis_queries,
    )


def classical_cost_units(run: LsmRun, sample_step: float = 1.0, payoff_query: float = 1.0,
                         basis_query: float = 1.0) -> float:
    """Oracle-cost total of a run under the given per-query weights."""
    return (run.sample_draws * sample_step + run.payoff_queries * payoff_query
            + run.basis_queries * basis_query)

"""The classical regression as it was before it worked from per-state visit
counts, kept as the slow reference the fast one must match: every step
gathers the N x m matrix of basis rows along the sampled paths and takes the
Gram matrix and targets as two N-row products; the stop mask is scored on a
second evaluation of the basis table. It keeps the per-path arrays that
LsmRun does not."""
from dataclasses import dataclass

import numpy as np

from qlsm.basis import closed_form_gram, solve_gram
from qlsm.chain import sample_paths
from qlsm.dp import CoefficientRule
from qlsm.lsm_classical import LsmRun
from qlsm.reference import path_stop_times


@dataclass(eq=False)
class PerPathRun(LsmRun):
    """An LsmRun with its sampled paths and their stop times."""

    path_indices: np.ndarray = None     # (N, T) grid indices
    stopping_times: np.ndarray = None   # (N, T) with column t-1 holding tau_t


def run_stop_times(run: LsmRun) -> tuple[np.ndarray, np.ndarray]:
    """(path_indices, stopping_times) of a run: its paths drawn again from its
    seed, and the per-path recursion under its stored coefficients."""
    idx = sample_paths(run.chain, run.path_count, run.seed)
    rule = CoefficientRule(run.basis, run.coefficients)
    taus = path_stop_times(run.chain, idx,
                           lambda t, later: rule.stop_mask(run.chain, run.payoff, t))
    return idx, taus


def run_classical_lsm_per_path(chain, payoff, basis, path_count, seed,
                               gram_mode="sampled") -> PerPathRun:
    """run_classical_lsm with the per-path gather in every regression."""
    T = chain.horizon
    m = basis.size
    idx = sample_paths(chain, path_count, seed)
    # z[:, t-1]: each path's payoff at step t.
    z = np.column_stack([payoff.values(chain, t)[idx[:, t - 1]] for t in range(1, T + 1)])
    paths = np.arange(path_count)

    grams, targets, coefficients = {}, {}, {}
    rule = CoefficientRule(basis, coefficients)

    def regress(t, later):
        rows = basis.evaluate(t, chain.grid(t))[idx[:, t - 1]]
        if gram_mode == "closed_form":
            gram = closed_form_gram(basis, t)
        elif gram_mode == "sampled":
            gram = rows.T @ rows / path_count
        else:
            raise ValueError(f"unknown gram_mode {gram_mode!r}")
        rhs = rows.T @ z[paths, later - 1] / path_count
        grams[t], targets[t] = gram, rhs
        coefficients[t] = solve_gram(gram, rhs, t)
        return rule.stop_mask(chain, payoff, t)

    taus = path_stop_times(chain, idx, regress)
    estimate = max(payoff.value_at_start(chain), float(z[paths, taus[:, 0] - 1].mean()))
    basis_queries = path_count * (T - 1) * m * (2 if gram_mode == "sampled" else 1)
    return PerPathRun(
        chain=chain, payoff=payoff, basis=basis, path_count=path_count, seed=seed,
        gram_mode=gram_mode, path_indices=idx, gram_matrices=grams, targets=targets,
        coefficients=coefficients, stopping_times=taus, estimate=estimate,
        sample_draws=path_count * T, payoff_queries=path_count * T,
        basis_queries=basis_queries,
    )

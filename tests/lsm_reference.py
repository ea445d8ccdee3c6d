"""Per-path references for the classical pass and the exact oracle.

Per-path stop times (the classical pass's backward carry, holding stop steps
instead of payoffs) and the payoffs collected at them. Then the classical
regression as it was before it worked from per-state visit counts, kept as
the slow reference the fast one must match: every step gathers the N x m
matrix of basis rows along the sampled paths and takes the Gram matrix and
targets as two N-row products; the stop mask is scored on a second
evaluation of the basis table. It keeps the per-path arrays that LsmRun does
not."""
from dataclasses import dataclass

import numpy as np

from qlsm.basis import closed_form_gram, solve_gram
from qlsm.chain import MarkovChainSpec, PathEnsemble, sample_paths
from qlsm.dp import CoefficientRule, SnellTable
from qlsm.lsm_classical import LsmRun
from qlsm.payoff import PayoffSpec


def path_stop_times(chain: MarkovChainSpec, idx: np.ndarray, stop_mask) -> np.ndarray:
    """Per-path first stops along paths given by their (N, T) grid indices:
    tau_T = T, and tau_t = t where stop_mask(t, later), step t's per-state
    mask given `later` = tau_{t+1}, stops the path's state, else tau_{t+1}.
    Returns the (N, T) stop times, column t-1 holding tau_t."""
    T = chain.horizon
    taus = np.empty(idx.shape, dtype=np.int64)
    taus[:, T - 1] = T
    for t in range(T - 1, 0, -1):
        taus[:, t - 1] = np.where(stop_mask(t, taus[:, t])[idx[:, t - 1]], t, taus[:, t])
    return taus


def optimal_stopping_times(table: SnellTable, ensemble: PathEnsemble) -> np.ndarray:
    """(n_paths, horizon+1) matrix with entry [i, t] = first stop time >= t
    along path i under the table's decisions."""
    taus = path_stop_times(table.chain, ensemble.indices, lambda t, later: table.stop[t])
    tau0 = np.zeros(len(ensemble), dtype=np.int64) if table.stop[0][0] else taus[:, 0]
    return np.column_stack([tau0, taus])


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

"""A regression basis that spans every grid function, for tests: one
indicator per grid slot. No config reaches it; the runtime bases are in
qlsm.basis."""
import numpy as np

from qlsm.basis import KIND_GENERIC, BasisSpec
from qlsm.chain import MarkovChainSpec


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

"""The amplitude-estimation laws the runtime sampler is checked against.

The dense M-outcome law (Brassard, Hoyer, Mosca & Tapp 2002) as the mixture
of its two Fejer branches, and the statevector simulation of the phase
estimation circuit that cross-checks it. Then the per-branch sampler as it
was before both Fejer windows were evaluated in one kernel call, kept as the
slow reference the fast sampler must match bit for bit: same draws, same
Generator state afterwards, same ledger."""
import math
from typing import NamedTuple

import numpy as np

from qlsm.qsim.ae import _WINDOW

_STATEVECTOR_QUBIT_CAP = 12


def check_queries(queries: int) -> None:
    if queries < 2 or queries & (queries - 1):
        raise ValueError("queries must be a power of two, at least 2")


def phase_kernel(delta: np.ndarray, queries: int) -> np.ndarray:
    """|<y|phase>|^2 for an eigenphase offset delta (in turns), M outcomes."""
    delta = np.asarray(delta, dtype=float)
    num = np.sin(np.pi * queries * delta) ** 2
    den = queries**2 * np.sin(np.pi * delta) ** 2
    frac = np.mod(delta, 1.0)
    on_grid = np.minimum(frac, 1.0 - frac) < 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(on_grid, 1.0, num / np.where(den == 0.0, 1.0, den))
    return out


def branch_masses(phase: float, outcomes: np.ndarray, queries: int, sign: int) -> np.ndarray:
    """Kernel masses of one Fejer branch at outcomes y in 0..M-1.

    The eigenphase -theta branch (sign=+1) sits at offset phase + y/M from
    outcome y, the +theta branch (sign=-1) at phase - y/M. Both are evaluated
    as phase - k/M for the k = -sign * y (mod M) that puts the offset in
    (-1/2, 1/2 + 1/M], so near a kernel's peak at offset 0 it is formed
    without cancellation. Taken as phase + y/M, the offsets near 1 at the
    -theta peak would cost the branch about M * 1.1e-16 of its unit mass."""
    centre = math.floor(phase * queries) - queries // 2
    k = np.mod(-sign * outcomes - centre, queries) + centre
    return phase_kernel(phase - k / queries, queries)


def ae_outcome_distribution(amplitude: float, queries: int):
    """(estimates, probabilities, outcomes) of M-query amplitude estimation.

    Outcomes y = 0..M-1 map to estimates sin^2(pi y / M); probabilities are
    the exact two-eigenphase phase-estimation weights, the normalized equal
    mixture of the two Fejer branches."""
    check_queries(queries)
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must lie in [0, 1]")
    phase = math.asin(math.sqrt(amplitude)) / math.pi
    y = np.arange(queries)
    probs = 0.5 * (branch_masses(phase, y, queries, -1) + branch_masses(phase, y, queries, 1))
    probs = probs / probs.sum()
    estimates = np.sin(np.pi * y / queries) ** 2
    return estimates, probs, y


def embed(state) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a hybrid state's (path, flag-qubit) into one system register
    plus a good mask."""
    n = state.n_basis_states
    rot = state.rotation if state.rotation is not None else np.column_stack(
        [np.ones(n), np.zeros(n)])
    system = np.empty(2 * n, dtype=complex)
    system[0::2] = state.amplitudes * rot[:, 0]
    system[1::2] = state.amplitudes * rot[:, 1]
    mask = np.zeros(2 * n, dtype=bool)
    mask[1::2] = True
    return system, mask


def statevector_ae_distribution(system: np.ndarray, good_mask: np.ndarray,
                                queries: int) -> np.ndarray:
    """Outcome distribution of phase-estimation AE by explicit simulation.

    Builds the Grover operator as a dense matrix from the prepared system
    vector and a good-state mask, runs the controlled powers against a phase
    register, applies the inverse Fourier transform and returns the phase
    register's measurement distribution.
    """
    check_queries(queries)
    system = np.asarray(system, dtype=complex)
    dim = system.size
    n_qubits = math.ceil(math.log2(dim)) + int(math.log2(queries))
    if n_qubits > _STATEVECTOR_QUBIT_CAP:
        raise ValueError(f"statevector simulation capped at {_STATEVECTOR_QUBIT_CAP} qubits")
    norm = np.linalg.norm(system)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("system state must be normalized")
    flip_good = np.where(good_mask, -1.0, 1.0)
    reflect_prep = 2.0 * np.outer(system, system.conj()) - np.eye(dim)
    grover = reflect_prep * flip_good[None, :]

    # Phase register of size `queries`; joint state indexed [phase, system].
    joint = np.zeros((queries, dim), dtype=complex)
    joint[:] = system[None, :] / math.sqrt(queries)
    n_phase_bits = int(math.log2(queries))
    power = grover
    for bit in range(n_phase_bits):
        controlled = (np.arange(queries) >> bit) & 1
        rows = np.nonzero(controlled)[0]
        joint[rows] = joint[rows] @ power.T
        power = power @ power
    # Inverse Fourier transform on the phase register.
    y = np.arange(queries)
    fourier = np.exp(-2j * np.pi * np.outer(y, y) / queries) / math.sqrt(queries)
    joint = fourier @ joint
    return np.sum(np.abs(joint) ** 2, axis=1)


class Branch(NamedTuple):
    """Window of one Fejer branch: peak = floor + frac, outcomes
    (floor + j) mod M for the window offsets j, their kernel masses, and the
    tail mass the window leaves."""

    floor: int
    frac: float
    outcomes: np.ndarray
    masses: np.ndarray
    tail: float


def branch_law(phase: float, queries: int, sign: int) -> Branch:
    """The branch sign=-1 peaks at c = phase * M, the branch sign=+1 at -c."""
    peak = -sign * phase * queries
    floor = math.floor(peak)
    offsets = np.arange(max(-_WINDOW, 1 - queries // 2), min(_WINDOW, queries // 2) + 1)
    outcomes = np.mod(floor + offsets, queries)
    masses = branch_masses(phase, outcomes, queries, sign)
    tail = 0.0 if offsets.size == queries else max(0.0, 1.0 - float(masses.sum()))
    return Branch(floor, peak - floor, outcomes, masses, tail)


def sample_tail(floor: int, frac: float, queries: int, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """count outcomes from one branch's kernel conditioned off its window,
    by rejection from the continuous 1/r^2 law."""
    half = queries // 2
    right_lo, right_hi = _WINDOW + 0.5 - frac, half + 0.5 - frac
    left_lo, left_hi = _WINDOW + 0.5 + frac, half - 0.5 + frac
    right_mass = 1.0 / right_lo - 1.0 / right_hi
    total = right_mass + 1.0 / left_lo - 1.0 / left_hi
    out = np.empty(count, dtype=np.int64)
    pending = np.arange(count)
    while pending.size:
        v = rng.random(pending.size) * total
        right = v < right_mass
        r = np.where(right, 1.0 / (1.0 / right_lo - v),
                     1.0 / (1.0 / left_lo - (v - right_mass)))
        k = np.where(right, np.clip(np.rint(r + frac), _WINDOW + 1, half),
                     np.clip(np.rint(r - frac), _WINDOW + 1, half - 1)).astype(np.int64)
        offset = np.where(right, k, -k)
        dist = np.abs(offset - frac)
        accept = rng.random(pending.size) * (queries * np.sin(np.pi * dist / queries)) ** 2 \
            < 4.0 * (dist * dist - 0.25)
        out[pending[accept]] = np.mod(floor + offset[accept], queries)
        pending = pending[~accept]
    return out


def draw_ae_estimates(operator, queries: int, repetitions: int,
                      rng: np.random.Generator, ledger=None) -> np.ndarray:
    """`qlsm.qsim.ae.draw_ae_estimates`, one branch window at a time."""
    check_queries(queries)
    if ledger is not None:
        applications = (2 * queries + 1) * repetitions
        ledger.add_grover(queries * repetitions)
        ledger.add_state_preparations(applications)
        ledger.add_rotations(applications)
        operator.rotation.oracle.bill(ledger, applications=2 * applications)
    phase = math.asin(math.sqrt(operator.amplitude)) / math.pi
    branches = [branch_law(phase, queries, sign) for sign in (-1, 1)]
    cdf = np.cumsum(np.concatenate([np.append(b.masses, b.tail) for b in branches]))
    u = (1.0 - rng.random(repetitions)) * cdf[-1]
    picks = np.searchsorted(cdf, u, side="left")
    outcomes = np.concatenate([np.append(b.outcomes, -1) for b in branches])[picks]
    tail_row = -1
    for b in branches:
        tail_row += b.outcomes.size + 1
        in_tail = np.flatnonzero(picks == tail_row)
        if in_tail.size:
            outcomes[in_tail] = sample_tail(b.floor, b.frac, queries, in_tail.size, rng)
    return np.sin(np.pi * outcomes / queries) ** 2

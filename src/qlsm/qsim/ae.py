"""Phase-estimation amplitude estimation.

The sampler draws outcomes from the exact outcome distribution on the two
dimensional invariant subspace of the Grover operator: an equal mixture of
two Fejer kernels centred at +-theta M / pi (mod M). It enumerates each
kernel's masses in a fixed window of offsets around its peak and reaches the
rest of the kernel by rejection sampling, so one draw costs the same time
and memory at every query count M. The dense M-outcome distribution and a
full statevector simulation of it stay as the references tests compare
against."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ledger import QueryLedger
from .oracles import ControlledRotation, SamplingOracle
from .state import HybridState

_STATEVECTOR_QUBIT_CAP = 12
# Offsets |j| <= _WINDOW around a kernel's peak are enumerated exactly.
_WINDOW = 64


def _check_queries(queries: int) -> None:
    if queries < 2 or queries & (queries - 1):
        raise ValueError("queries must be a power of two, at least 2")


def _phase_kernel(delta: np.ndarray, queries: int) -> np.ndarray:
    """|<y|phase>|^2 for an eigenphase offset delta (in turns), M outcomes."""
    delta = np.asarray(delta, dtype=float)
    num = np.square(np.sin(np.pi * queries * delta))
    den = queries**2 * np.square(np.sin(np.pi * delta))
    frac = delta - np.floor(delta)  # np.mod(delta, 1.0) bit for bit, at a third of the cost
    on_grid = np.minimum(frac, 1.0 - frac) < 1e-15
    np.putmask(den, on_grid, 1.0)  # den is 0 only on the grid, within 1e-154 of delta = 0
    num /= den
    np.putmask(num, on_grid, 1.0)
    return num


def ae_outcome_distribution(amplitude: float, queries: int):
    """(estimates, probabilities, outcomes) of M-query amplitude estimation.

    Outcomes y = 0..M-1 map to estimates sin^2(pi y / M); probabilities are
    the exact two-eigenphase phase-estimation weights, an equal mixture of
    two kernels: the eigenphase +theta branch sits at offset phase - y/M from
    outcome y, the -theta branch at phase + y/M. Both are evaluated as
    phase - k/M for the k = +-y (mod M) that puts the offset in
    (-1/2, 1/2 + 1/M], so near a kernel's peak at offset 0 it is formed
    without cancellation. Taken as phase + y/M, the offsets near 1 at the
    -theta peak would cost the branch about M * 1.1e-16 of its unit mass.
    """
    _check_queries(queries)
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must lie in [0, 1]")
    phase = math.asin(math.sqrt(amplitude)) / math.pi
    centre = math.floor(phase * queries) - queries // 2
    y = np.arange(queries)
    k = np.mod([y - centre, -y - centre], queries) + centre
    probs = 0.5 * _phase_kernel(phase - k / queries, queries).sum(axis=0)
    probs = probs / probs.sum()
    estimates = np.sin(np.pi * y / queries) ** 2
    return estimates, probs, y


@dataclass(eq=False)
class EstimationOperator:
    """The preparation 'A': chain preparation followed by one rotation.

    Exposes the exact flagged probability the sampler draws from, with masses
    weighing the rows of the rotation oracle's value table."""

    sampling: SamplingOracle
    rotation: ControlledRotation
    masses: np.ndarray

    def prepare(self, ledger: QueryLedger | None = None) -> HybridState:
        state = self.sampling.prepare(ledger)
        self.rotation.apply(state, ledger)
        return state

    @cached_property
    def amplitude(self) -> float:
        """The flagged probability a that AE estimates, computed once."""
        return self.rotation.good_amplitude_squared(self.masses)


@lru_cache(maxsize=64)
def _window(queries: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only window offsets j and, for e = ceil(phase M) - floor(phase M),
    the shifts (k - floor(phase M)) / M that `ae_outcome_distribution` takes
    at outcomes (floor + j) mod M of both branches, and a 0 column for tails."""
    half = queries // 2
    offsets = np.arange(max(-_WINDOW, 1 - half), min(_WINDOW, half) + 1)
    shifts = np.zeros((2, 2, offsets.size + 1))
    shifts[:, :, :-1] = np.mod([[offsets + half, e - offsets + half] for e in (0, 1)],
                               queries) - half
    shifts /= queries
    offsets.flags.writeable = shifts.flags.writeable = False
    return offsets, shifts


def _branch_windows(phase: float, queries: int):
    """(floors, fracs, rows) of the branches peaking at c = phase * M (row 0)
    and at -c (row 1), peak = floor + frac, from one kernel call: a row holds
    the dense law's kernel masses at outcomes (floor + j) mod M for the window
    offsets j, then the tail mass the window leaves, 0 if it covers all M."""
    offsets, shifts = _window(queries)
    peak = phase * queries
    floors = (math.floor(peak), math.floor(-peak))
    rows = _phase_kernel(phase - (shifts[-floors[1] - floors[0]] + floors[0] / queries), queries)
    size = offsets.size
    rows[:, size] = 0.0 if size == queries else [
        max(0.0, 1.0 - float(rows[b, :size].sum())) for b in (0, 1)]
    return floors, (peak - floors[0], -peak - floors[1]), rows


def _sample_tail(floor: int, frac: float, queries: int, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """count outcomes from one branch's kernel conditioned off its window.

    Offsets j in W+1..M/2 and -(M/2-1)..-(W+1) sit at distance r = |j - frac|
    from the peak and carry mass sin^2(pi frac) / (M sin(pi r / M))^2, which
    is at most sin^2(pi frac) / (4 r^2) since M sin(pi r / M) >= 2 r for
    r <= M/2. Proposals r come from the continuous 1/r^2 law by its inverse
    CDF; the cell [r_j - 1/2, r_j + 1/2] holding r names the offset j, whose
    proposal mass is proportional to 1/(r_j^2 - 1/4) >= 1/r_j^2. Accepting
    with probability 4 (r_j^2 - 1/4) / (M sin(pi r_j / M))^2 <= 1 leaves
    draws with the kernel's conditional law; about 40% or more are kept."""
    half = queries // 2
    right_lo, right_hi = _WINDOW + 0.5 - frac, half + 0.5 - frac
    left_lo, left_hi = _WINDOW + 0.5 + frac, half - 0.5 + frac
    right_mass = 1.0 / right_lo - 1.0 / right_hi
    total = right_mass + 1.0 / left_lo - 1.0 / left_hi
    # A call draws a few outcomes, so each round works on Python floats from
    # the same two rng.random arrays; only sin stays one vectorized call.
    inv_right, inv_left, least = 1.0 / right_lo, 1.0 / left_lo, _WINDOW + 1
    out = [0] * count
    pending = list(range(count))
    while pending:
        offsets = [min(max(round(1.0 / (inv_right - v) + frac), least), half)
                   if v < right_mass else
                   -min(max(round(1.0 / (inv_left - (v - right_mass)) - frac), least), half - 1)
                   for v in (rng.random(len(pending)) * total).tolist()]
        dists = [abs(offset - frac) for offset in offsets]
        sines = np.sin([math.pi * dist / queries for dist in dists]).tolist()
        rejected = []
        for i, offset, dist, sine, w in zip(pending, offsets, dists, sines,
                                             rng.random(len(pending)).tolist()):
            scale = queries * sine
            if w * (scale * scale) < 4.0 * (dist * dist - 0.25):
                out[i] = (floor + offset) % queries
            else:
                rejected.append(i)
        pending = rejected
    return np.array(out, dtype=np.int64)


def draw_ae_estimates(operator: EstimationOperator, queries: int, repetitions: int,
                      rng: np.random.Generator,
                      ledger: QueryLedger | None = None) -> np.ndarray:
    """Independent repeated M-query outcomes from the analytic distribution.

    Each draw picks, with one uniform, a window outcome of either kernel
    branch or one branch's tail; tail picks are rejection-sampled by
    `_sample_tail`. The law equals `ae_outcome_distribution`'s, and time and
    memory do not depend on M. Bills M Grover applications per repetition
    and, for each, one initial preparation plus two per Grover application,
    each with its rotation."""
    _check_queries(queries)
    if ledger is not None:
        applications = (2 * queries + 1) * repetitions
        ledger.add_grover(queries * repetitions)
        ledger.add_state_preparations(applications)
        ledger.add_rotations(applications)
        operator.rotation.oracle.bill(ledger, applications=2 * applications)
    phase = math.asin(math.sqrt(operator.amplitude)) / math.pi
    floors, fracs, rows = _branch_windows(phase, queries)
    # Rows: each branch's window outcomes, then that branch's tail.
    cdf = np.cumsum(rows)
    # u in (0, cdf[-1]] with side="left" never lands on a zero-mass row.
    u = (1.0 - rng.random(repetitions)) * cdf[-1]
    picks = np.searchsorted(cdf, u, side="left")
    # Offsets run up from lo, so pick p is offset lo + p (branch 0) or lo + p - width.
    width, lo = rows.shape[1], int(_window(queries)[0][0])
    outcomes = np.mod(picks + np.where(picks < width, floors[0] + lo, floors[1] + lo - width),
                      queries)
    if width <= queries:  # the window leaves a tail
        for branch in (0, 1):
            in_tail = (picks == (branch + 1) * width - 1).nonzero()[0]
            if in_tail.size:
                outcomes[in_tail] = _sample_tail(floors[branch], fracs[branch], queries,
                                                 in_tail.size, rng)
    return np.sin(np.pi * outcomes / queries) ** 2


def _embed(state: HybridState) -> tuple[np.ndarray, np.ndarray]:
    """Flatten (path, flag-qubit) into one system register plus a good mask."""
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
    _check_queries(queries)
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

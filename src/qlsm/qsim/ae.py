"""Phase-estimation amplitude estimation.

The default mode evaluates the exact outcome distribution on the two
dimensional invariant subspace of the Grover operator and samples from it;
a full statevector mode reproduces the same distribution for cross-checks."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ledger import QueryLedger
from .oracles import ControlledRotation, SamplingOracle
from .state import HybridState

_STATEVECTOR_QUBIT_CAP = 12


def _phase_kernel(delta: np.ndarray, queries: int) -> np.ndarray:
    """|<y|phase>|^2 for an eigenphase offset delta (in turns), M outcomes."""
    delta = np.asarray(delta, dtype=float)
    num = np.sin(np.pi * queries * delta) ** 2
    den = queries**2 * np.sin(np.pi * delta) ** 2
    frac = np.mod(delta, 1.0)
    on_grid = np.minimum(frac, 1.0 - frac) < 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(on_grid, 1.0, num / np.where(den == 0.0, 1.0, den))
    return out


def ae_outcome_distribution(amplitude: float, queries: int):
    """(estimates, probabilities, outcomes) of M-query amplitude estimation.

    Outcomes y = 0..M-1 map to estimates sin^2(pi y / M); probabilities are
    the exact two-eigenphase phase-estimation weights.
    """
    if queries < 2 or queries & (queries - 1):
        raise ValueError("queries must be a power of two, at least 2")
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must lie in [0, 1]")
    theta = math.asin(math.sqrt(amplitude))
    y = np.arange(queries)
    plus = _phase_kernel(theta / math.pi - y / queries, queries)
    minus = _phase_kernel(theta / math.pi + y / queries, queries)
    probs = 0.5 * (plus + minus)
    probs = probs / probs.sum()
    estimates = np.sin(np.pi * y / queries) ** 2
    return estimates, probs, y


@dataclass(frozen=True)
class AEOutcome:
    estimate: float
    outcome: int
    estimates: np.ndarray
    probabilities: np.ndarray


@dataclass(eq=False)
class EstimationOperator:
    """The preparation 'A': chain preparation followed by one rotation.

    Exposes the exact flagged probability for the analytic mode and bills its
    per-application cost into the ledger. masses weighs the rows of the
    rotation oracle's value table (derived from the path probabilities when
    omitted)."""

    sampling: SamplingOracle
    rotation: ControlledRotation | None = None
    masses: np.ndarray | None = None

    def __post_init__(self):
        if self.masses is None and self.rotation is not None:
            oracle = self.rotation.oracle
            self.masses = self.sampling.masses(oracle.labels, oracle.values.size)

    def prepare(self, ledger: QueryLedger | None = None) -> HybridState:
        state = self.sampling.prepare(ledger)
        if self.rotation is not None:
            self.rotation.apply(state, ledger)
        return state

    def good_probability(self) -> float:
        if self.rotation is None:
            return 0.0
        return self.rotation.good_amplitude_squared(self.masses)

    def bill_applications(self, ledger: QueryLedger | None, count: int) -> None:
        if ledger is None:
            return
        ledger.add_state_preparations(count)
        if self.rotation is not None:
            ledger.add_rotations(count)
            self.rotation.oracle.bill(ledger, applications=2 * count)


def _bill_ae(operator: EstimationOperator, ledger: QueryLedger | None, queries: int,
             repetitions: int = 1) -> None:
    # One initial preparation plus two per Grover application, per repetition.
    if ledger is None:
        return
    ledger.add_grover(queries * repetitions)
    operator.bill_applications(ledger, (2 * queries + 1) * repetitions)


def amplitude_estimation(operator: EstimationOperator, queries: int,
                         rng: np.random.Generator,
                         ledger: QueryLedger | None = None,
                         mode: str = "analytic") -> AEOutcome:
    """One sampled amplitude-estimation outcome with its full distribution."""
    amplitude = operator.good_probability()
    if mode == "analytic":
        estimates, probs, _ = ae_outcome_distribution(amplitude, queries)
    elif mode == "statevector":
        state = operator.prepare(None)
        system, mask = _embed(state)
        probs = statevector_ae_distribution(system, mask, queries)
        estimates = np.sin(np.pi * np.arange(queries) / queries) ** 2
    else:
        raise ValueError(f"unknown mode {mode!r}")
    _bill_ae(operator, ledger, queries)
    outcome = int(rng.choice(len(probs), p=probs))
    return AEOutcome(estimate=float(estimates[outcome]), outcome=outcome,
                     estimates=estimates, probabilities=probs)


def draw_ae_estimates(operator: EstimationOperator, queries: int, repetitions: int,
                      rng: np.random.Generator,
                      ledger: QueryLedger | None = None) -> np.ndarray:
    """Independent repeated outcomes from the analytic distribution."""
    amplitude = operator.good_probability()
    estimates, probs, _ = ae_outcome_distribution(amplitude, queries)
    _bill_ae(operator, ledger, queries, repetitions)
    picks = rng.choice(len(probs), p=probs, size=repetitions)
    return estimates[picks]


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
    if queries < 2 or queries & (queries - 1):
        raise ValueError("queries must be a power of two, at least 2")
    system = np.asarray(system, dtype=complex)
    dim = system.size
    n_qubits = math.ceil(math.log2(dim)) + int(math.log2(queries))
    if n_qubits > _STATEVECTOR_QUBIT_CAP:
        raise ValueError(f"statevector mode capped at {_STATEVECTOR_QUBIT_CAP} qubits")
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

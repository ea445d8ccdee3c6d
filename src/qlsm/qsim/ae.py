"""Phase-estimation amplitude estimation.

The sampler draws outcomes from the exact outcome distribution on the two
dimensional invariant subspace of the Grover operator. A full statevector
simulation of the same distribution stays as the reference tests compare
against."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


def draw_ae_estimates(operator: EstimationOperator, queries: int, repetitions: int,
                      rng: np.random.Generator,
                      ledger: QueryLedger | None = None) -> np.ndarray:
    """Independent repeated M-query outcomes from the analytic distribution.

    Bills M Grover applications per repetition and, for each, one initial
    preparation plus two per Grover application, each with its rotation."""
    estimates, probs, _ = ae_outcome_distribution(operator.amplitude, queries)
    if ledger is not None:
        applications = (2 * queries + 1) * repetitions
        ledger.add_grover(queries * repetitions)
        ledger.add_state_preparations(applications)
        ledger.add_rotations(applications)
        operator.rotation.oracle.bill(ledger, applications=2 * applications)
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

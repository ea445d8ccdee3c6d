"""Slow references that the runtime is tested against, imported by no runtime
path: the fixed-point register encode and decode, table payoffs, the L2 norm
under a step marginal and the log-normal tail bound (which only tests use),
per-path stop times (the classical pass's backward carry, holding stop steps
instead of payoffs) and the payoffs collected at them, the register replay of
the stopping circuits over the enumerated paths, and the dense and
statevector laws of amplitude estimation (Brassard, Hoyer, Mosca & Tapp
2002).

Estimation reads each variable's law (a value table and the masses of its
rows) and bills an exact count of oracle calls; it never prepares a state.
Here the same oracles act on a hybrid state over the enumerated paths:
complex amplitudes, classically annotated ancilla registers and one genuine
rotation qubit. Every register update is a reversible map on basis states,
so registers are kept as per-path bit images instead of explicit qubits;
only the rotation qubit (and the phase register inside amplitude estimation)
are treated as quantum."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import MarkovChainSpec, PathEnsemble, enumerate_paths
from .dp import SnellTable
from .errors import Overflow, QlsmError
from .qsim.ae import EstimationOperator, _check_queries, _phase_kernel
from .qsim.fixed_point import FixedPointFormat
from .qsim.ledger import QueryLedger
from .payoff import PayoffSpec
from .qsim.oracles import ControlledRotation, FunctionOracle, SamplingOracle
from .stopping_circuits import (BASIS_QUERY, PAYOFF_QUERY, StoppingCircuits,
                                _dispatch_payoff_queries)

_NORM_TOL = 1e-10
_STATEVECTOR_QUBIT_CAP = 12


# -- fixed-point registers --------------------------------------------------------

@dataclass(frozen=True)
class FixedPoint:
    """One encoded number: sign bit plus magnitude in resolution units."""

    fmt: FixedPointFormat
    sign: int
    magnitude: int

    @classmethod
    def encode(cls, fmt: FixedPointFormat, value: float) -> "FixedPoint":
        """Round-to-nearest-even representable value; overflow is an error."""
        if not math.isfinite(value) or abs(value) > fmt.max_value:
            raise Overflow(f"{value!r} outside [-{fmt.max_value}, {fmt.max_value}]")
        # max_value is on the grid, so rounding cannot leave the range.
        magnitude = int(np.round(value * 2.0**fmt.frac_bits))
        return cls(fmt=fmt, sign=int(magnitude < 0), magnitude=abs(magnitude))

    def decode(self) -> float:
        return (-1.0) ** self.sign * self.magnitude * self.fmt.resolution

    def integer_bits(self) -> tuple[int, ...]:
        """(a_1 .. a_c1) with a_i weighting 2^(i-1)."""
        whole = self.magnitude >> self.fmt.frac_bits
        return tuple((whole >> i) & 1 for i in range(self.fmt.int_bits))

    def fraction_bits(self) -> tuple[int, ...]:
        """(b_1 .. b_c2) with b_j weighting 2^-j."""
        frac = self.magnitude & ((1 << self.fmt.frac_bits) - 1)
        return tuple((frac >> (self.fmt.frac_bits - j)) & 1
                     for j in range(1, self.fmt.frac_bits + 1))

    @classmethod
    def from_bit_strings(cls, integer: tuple[int, ...], fraction: tuple[int, ...],
                         sign: int, fmt: FixedPointFormat | None = None) -> "FixedPoint":
        if fmt is None:
            fmt = FixedPointFormat(int_bits=len(integer), frac_bits=len(fraction))
        if len(integer) != fmt.int_bits or len(fraction) != fmt.frac_bits:
            raise ValueError("bit strings do not match the format")
        whole = sum(b << i for i, b in enumerate(integer))
        frac = sum(b << (fmt.frac_bits - j) for j, b in enumerate(fraction, start=1))
        magnitude = (whole << fmt.frac_bits) | frac
        return cls(fmt=fmt, sign=0 if magnitude == 0 else sign, magnitude=magnitude)


def from_bits(fmt: FixedPointFormat, bits: np.ndarray):
    """Values of the sign-magnitude bit images that fmt.to_bits writes."""
    bits = np.asarray(bits, dtype=np.int64)
    sign_bit = bits >> (fmt.int_bits + fmt.frac_bits)
    magnitude = bits & ((1 << (fmt.int_bits + fmt.frac_bits)) - 1)
    out = np.where(sign_bit == 1, -magnitude, magnitude) / 2.0**fmt.frac_bits
    return out if out.shape else float(out)


# -- payoff tables, norms and tail bounds that only tests use -----------------------

def table_payoff(tables: dict[int, np.ndarray], start_value: float, label: str = "table") -> PayoffSpec:
    """Payoff given by explicit per-step value tables indexed like the grids."""

    def f(t: int, pts: np.ndarray) -> np.ndarray:
        if t == 0:
            return np.array([start_value], dtype=float)
        vals = np.asarray(tables[t], dtype=float)
        if vals.shape[0] != pts.shape[0]:
            raise ValueError(f"table at step {t} does not match the grid")
        return vals

    return PayoffSpec(step_function=f, label=label)


def weighted_l2_norm(chain: MarkovChainSpec, t: int, values: np.ndarray) -> float:
    """L2 norm of a per-state function under the step-t marginal (t=0 allowed)."""
    if t == 0:
        return float(abs(values[0]))
    chain.grid(t)  # range-checks t
    return float(np.sqrt(np.sum(chain.marginals[t - 1] * values * values)))


def gbm_tail_bound(k: int, cube_radius: float, t: float) -> float:
    """Upper bound on E[x^k; x > cube_radius] for x log-normal with
    ln x ~ N(-t/2, t), the step-t law of a geometric Brownian coordinate.

    The tail moment is e^{t k(k-1)/2} times the normal tail at
    z = (ln(cube_radius) - t(k - 1/2)) / sqrt(t), which is at most
    e^{-z^2/2} / 2 for z >= 0. So the bound holds only in the regime
    ln(cube_radius) >= t*(k - 1/2).
    """
    if cube_radius <= 0 or t <= 0 or k < 0:
        raise ValueError("need cube_radius > 0, t > 0, k >= 0")
    lam = float(cube_radius)
    expo = (t / 2.0) * k * (k - 1) - (1.0 / (2.0 * t)) * (math.log(lam) - t * (k - 0.5)) ** 2
    return 0.5 * math.exp(expo)


# -- per-path stop times ----------------------------------------------------------

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


# -- hybrid state ---------------------------------------------------------------

@dataclass(eq=False)
class HybridState:
    """Superposition over the paths of one ensemble."""

    ensemble: PathEnsemble
    amplitudes: np.ndarray
    registers: dict = field(default_factory=dict)
    register_formats: dict = field(default_factory=dict)
    rotation: np.ndarray | None = None

    @classmethod
    def prepared(cls, ensemble: PathEnsemble) -> "HybridState":
        """State with amplitude sqrt(p(x)) on every path basis state."""
        amps = np.sqrt(ensemble.probabilities).astype(complex)
        return cls(ensemble=ensemble, amplitudes=amps)

    @property
    def n_basis_states(self) -> int:
        return len(self.ensemble)

    def norm_squared(self) -> float:
        total = np.abs(self.amplitudes) ** 2
        if self.rotation is not None:
            total = total * (self.rotation[:, 0] ** 2 + self.rotation[:, 1] ** 2)
        return float(total.sum())

    def check_normalized(self) -> None:
        if abs(self.norm_squared() - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm drifted to {self.norm_squared()}")

    def register_bits(self, name: str) -> np.ndarray:
        bits = self.registers.get(name)
        if bits is None:
            bits = np.zeros(self.n_basis_states, dtype=np.int64)
            self.registers[name] = bits
        return bits

    def xor_register(self, name: str, bits: np.ndarray,
                     fmt: FixedPointFormat | None = None) -> None:
        """Reversible XOR write; trims registers that return to all-zero."""
        current = self.register_bits(name)
        updated = current ^ np.asarray(bits, dtype=np.int64)
        if np.any(updated):
            self.registers[name] = updated
            self.register_formats[name] = fmt
        else:
            self.registers.pop(name, None)
            self.register_formats.pop(name, None)

    def register_values(self, name: str) -> np.ndarray:
        """Decoded register contents (floats for fixed-point registers)."""
        bits = self.register_bits(name)
        fmt = self.register_formats.get(name)
        if fmt is None:
            return bits.astype(np.int64)
        return np.asarray(from_bits(fmt, bits))

    def has_register(self, name: str) -> bool:
        return name in self.registers and bool(np.any(self.registers[name]))

    def nonzero_registers(self) -> list[str]:
        return sorted(n for n, b in self.registers.items() if np.any(b))

    def good_probability(self) -> float:
        """Squared weight of the rotation qubit's |1> branch."""
        if self.rotation is None:
            return 0.0
        return float(np.sum(np.abs(self.amplitudes) ** 2 * self.rotation[:, 1] ** 2))


# -- oracles acting on the state -------------------------------------------------

def prepare(sampling: SamplingOracle, ledger: QueryLedger | None = None) -> HybridState:
    """The superposition over every path of the chain; bills one preparation."""
    if ledger is not None:
        ledger.add_state_preparations(1)
    return HybridState.prepared(enumerate_paths(sampling.chain))


def apply_oracle(oracle: FunctionOracle, state: HybridState, register: str,
                 ledger: QueryLedger | None = None) -> None:
    """XOR the value image (one row per path) into the register; self-inverse."""
    state.xor_register(register, oracle.fmt.to_bits(oracle.values), oracle.fmt)
    oracle.bill(ledger)


def apply_rotation(rotation: ControlledRotation, state: HybridState,
                   ledger: QueryLedger | None = None) -> None:
    """Rotate the flag qubit by value/high on the paths inside the interval."""
    mask = rotation.in_interval()
    ratio = np.clip(np.where(mask, rotation.oracle.values / rotation.high, 0.0), 0.0, 1.0)
    state.rotation = np.column_stack([np.sqrt(1.0 - ratio), np.sqrt(ratio)])
    if ledger is not None:
        ledger.add_rotations(1)
    rotation.oracle.bill(ledger, applications=2)


def prepare_operator(operator: EstimationOperator,
                     ledger: QueryLedger | None = None) -> HybridState:
    """The state 'A' prepares: chain preparation followed by one rotation."""
    state = prepare(operator.sampling, ledger)
    apply_rotation(operator.rotation, state, ledger)
    return state


# -- register replay of the stopping circuits -------------------------------------

def _z_register(t: int) -> str:
    return f"payoff[{t}]"


def _score_register(t: int) -> str:
    return f"score[{t}]"


def _tau_register(t: int) -> str:
    return f"stop_time[{t}]"


def product_register(t: int, member: int) -> str:
    return f"stopped_payoff[{t},{member}]"


def _bill_step(circ: StoppingCircuits, ledger: QueryLedger | None) -> None:
    if ledger is not None:
        ledger.add_function_queries("z", PAYOFF_QUERY, 1)
        ledger.add_function_queries("e", BASIS_QUERY, circ.basis.size)


def step(circ: StoppingCircuits, state: HybridState, t: int,
         ledger: QueryLedger | None = None) -> None:
    """Backward stopping-time update: XOR-writes the (payoff, score, stop-time)
    annotations of step t, so a second application clears them."""
    T = circ.chain.horizon
    if not 1 <= t <= T:
        raise QlsmError(f"step {t} out of range 1..{T}")
    _bill_step(circ, ledger)
    if t == T:
        bits = np.full(state.n_basis_states, T, dtype=np.int64)
        state.xor_register(_tau_register(T), bits, None)
        return
    if not state.has_register(_tau_register(t + 1)):
        raise QlsmError(f"stop-time annotation for step {t + 1} is missing")
    here = state.ensemble.state_indices_at(t)
    z = circ.payoff_table(t)[here]
    score = circ.score_table(t)[here]
    tau_next = state.register_values(_tau_register(t + 1))
    tau_here = np.where(z >= score, t, tau_next).astype(np.int64)
    state.xor_register(_z_register(t), circ.fmt.to_bits(z), circ.fmt)
    state.xor_register(_score_register(t), circ.fmt.to_bits(score), circ.fmt)
    state.xor_register(_tau_register(t), tau_here, None)


def stopped_payoff(circ: StoppingCircuits, state: HybridState, t: int, member: int,
                   ledger: QueryLedger | None = None) -> None:
    """Writes payoff-at-stop-time times the step t-1 basis value (1 at t=1)."""
    T = circ.chain.horizon
    if not 0 <= member < circ.basis.size:
        raise QlsmError(f"basis member {member} out of range 0..{circ.basis.size - 1}")
    if not state.has_register(_tau_register(t)):
        raise QlsmError(f"stop-time annotation for step {t} is missing")
    if ledger is not None:
        ledger.add_function_queries("z", PAYOFF_QUERY, _dispatch_payoff_queries(T))
        ledger.add_function_queries("e", BASIS_QUERY, 1)
    tau = state.register_values(_tau_register(t)).astype(np.int64)
    z_at_tau = np.empty(state.n_basis_states)
    for u in np.unique(tau):
        at = tau == u
        z_at_tau[at] = circ.payoff_table(int(u))[state.ensemble.state_indices_at(int(u))[at]]
    if t == 1:
        factor = np.ones(state.n_basis_states)
    else:
        factor = circ.basis_table(t - 1)[state.ensemble.state_indices_at(t - 1), member]
    product = np.asarray(circ.fmt.quantize(z_at_tau * factor))
    state.xor_register(product_register(t, member), circ.fmt.to_bits(product), circ.fmt)


def composed(circ: StoppingCircuits, state: HybridState, t: int, member: int,
             ledger: QueryLedger | None = None, inverse: bool = False) -> None:
    """Full stopped-payoff circuit: backward steps from the horizon down to
    t, the product write, then the mirrored uncompute of every step.

    Every register write is an XOR involution, so the inverse runs the
    identical sequence; it differs only in the ancilla precondition (the
    product register must already hold the value to be cleared)."""
    T = circ.chain.horizon
    expected = [product_register(t, member)] if inverse else []
    if state.nonzero_registers() != expected:
        raise QlsmError(f"ancilla registers are dirty: {state.nonzero_registers()}")
    for u in range(T, t - 1, -1):
        step(circ, state, u, ledger)
    stopped_payoff(circ, state, t, member, ledger)
    for u in range(t, T + 1):
        step(circ, state, u, ledger)


def stopped_payoff_values(circ: StoppingCircuits, t: int, member: int) -> np.ndarray:
    """Per-path value left in the product register by one composed run: the
    reference for the law that circ.variable(t, member) builds."""
    state = prepare(circ.sampling)
    composed(circ, state, t, member)
    leftovers = [r for r in state.nonzero_registers() if r != product_register(t, member)]
    if leftovers:
        raise QlsmError(f"uncompute left dirty registers: {leftovers}")
    return np.asarray(state.register_values(product_register(t, member)), dtype=float)


# -- amplitude-estimation laws ----------------------------------------------------

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


def embed(state: HybridState) -> tuple[np.ndarray, np.ndarray]:
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

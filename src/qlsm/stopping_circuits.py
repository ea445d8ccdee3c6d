"""Reversible circuits that solve the stopping-time recursion in superposition
and expose the stopped payoff as a function oracle.

All register updates are XOR writes of values computed in shared fixed-point
arithmetic, so a forward pass followed by the mirrored inverse pass restores
every ancilla to zero bit-exactly. Scores are dp.CoefficientRule's fixed-point
scores. Every per-step table has one row per grid state. Estimation reads
each stopped payoff's law off the backward induction the exact oracle runs
(dp._induction), over one-hot indicators of the distinct payoff values and
the circuits' stop masks, so no path is enumerated; the register replay over
the enumerated paths is the reference it is tested against."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .basis import BasisSpec
from .chain import MarkovChainSpec
from .dp import CoefficientRule, _induction, _last_values, path_stop_times, stop_decision
from .errors import QlsmError
from .payoff import PayoffSpec
from .qsim.fixed_point import FixedPointFormat
from .qsim.ledger import QueryLedger
from .qsim.oracles import FunctionOracle, SamplingOracle
from .qsim.qmc import QmcVariable
from .qsim.state import HybridState

PAYOFF_QUERY = "payoff"
BASIS_QUERY = "basis"


def _z_register(t: int) -> str:
    return f"payoff[{t}]"


def _score_register(t: int) -> str:
    return f"score[{t}]"


def _tau_register(t: int) -> str:
    return f"stop_time[{t}]"


def product_register(t: int, member: int) -> str:
    return f"stopped_payoff[{t},{member}]"


def _dispatch_payoff_queries(horizon: int) -> int:
    # Select-over-steps circuit cost: horizon * ceil(log2 horizon), floored at
    # one query for the single-step chain.
    return horizon * max(1, math.ceil(math.log2(horizon))) if horizon > 1 else 1


@dataclass(eq=False)
class StoppingCircuits:
    """Circuit family for one chain/payoff/basis triple and its coefficients.

    coefficients maps each step to its weight vector and is read as it is,
    so a backward pass may fill it in step by step, loading step t before
    anything reads step t's scores. Scores come from the CoefficientRule
    with the format's rounding (which rounds the coefficients too), so
    classical replays of the recursion and the exact rule value match the
    circuits bit-exactly.
    """

    chain: MarkovChainSpec
    payoff: PayoffSpec
    basis: BasisSpec
    coefficients: Mapping[int, np.ndarray]
    fmt: FixedPointFormat = field(default_factory=FixedPointFormat)

    def __post_init__(self):
        self.sampling = SamplingOracle(self.chain)
        self.rule = CoefficientRule(self.basis, self.coefficients, quantize=self.fmt.quantize)
        self._tables: dict[tuple[str, int], np.ndarray] = {}
        self._stopped_laws: dict[int, tuple] = {}

    # -- shared fixed-point arithmetic ---------------------------------------
    # Tables have one row per step-t grid state and hold 0 at states of zero
    # marginal mass, so rounding and overflow checks see only states some
    # path visits; a step's coefficients never change once loaded, so each
    # table is computed once. The quantized_* views gather them along the
    # enumerated paths for the register replay.

    def _memo(self, kind: str, t: int, build) -> np.ndarray:
        table = self._tables.get((kind, t))
        if table is None:
            table = self._tables[(kind, t)] = build()
        return table

    def _visited(self, t: int) -> np.ndarray:
        """The step-t states of positive marginal mass."""
        return self.chain.marginals[t - 1] > 0.0

    def payoff_table(self, t: int) -> np.ndarray:
        return self._memo("payoff", t, lambda: np.asarray(self.fmt.quantize(
            np.where(self._visited(t), self.payoff.values(self.chain, t), 0.0))))

    def basis_table(self, t: int) -> np.ndarray:
        return self._memo("basis", t, lambda: np.asarray(self.fmt.quantize(np.where(
            self._visited(t)[:, None], self.basis.evaluate(t, self.chain.grid(t)), 0.0))))

    def score_table(self, t: int) -> np.ndarray:
        """Quantized score standing in for the continuation value: the rule's
        scores on the step's basis table."""
        if t not in self.coefficients:
            raise QlsmError(f"no coefficient vector loaded for step {t}")
        return self._memo("score", t, lambda: self.rule.row_scores(t, self.basis_table(t)))

    def _stop_mask(self, t: int) -> np.ndarray:
        """Stop decision of each step-t state, t < horizon."""
        return stop_decision(self.payoff_table(t), self.score_table(t))

    def quantized_payoff(self, t: int) -> np.ndarray:
        """Per-path quantized payoff at step t."""
        return self.payoff_table(t)[self.sampling.ensemble.state_indices_at(t)]

    def quantized_basis_rows(self, t: int) -> np.ndarray:
        return self.basis_table(t)[self.sampling.ensemble.state_indices_at(t)]

    def quantized_scores(self, t: int) -> np.ndarray:
        """Per-path quantized score at step t."""
        return self.score_table(t)[self.sampling.ensemble.state_indices_at(t)]

    # -- circuit applications -------------------------------------------------

    def _bill_step(self, ledger: QueryLedger | None) -> None:
        if ledger is not None:
            ledger.add_function_queries("z", PAYOFF_QUERY, 1)
            ledger.add_function_queries("e", BASIS_QUERY, self.basis.size)

    def step(self, state: HybridState, t: int, ledger: QueryLedger | None = None,
             inverse: bool = False) -> None:
        """Backward stopping-time update: writes (payoff, score, stop-time)
        annotations for step t; the inverse XORs the same values back out."""
        T = self.chain.horizon
        if not 1 <= t <= T:
            raise QlsmError(f"step {t} out of range 1..{T}")
        self._bill_step(ledger)
        if t == T:
            bits = np.full(state.n_basis_states, T, dtype=np.int64)
            state.xor_register(_tau_register(T), bits, None)
            return
        if not state.has_register(_tau_register(t + 1)):
            raise QlsmError(f"stop-time annotation for step {t + 1} is missing")
        z = self.quantized_payoff(t)
        score = self.quantized_scores(t)
        tau_next = state.register_values(_tau_register(t + 1))
        tau_here = np.where(z >= score, t, tau_next).astype(np.int64)
        state.xor_register(_z_register(t), self.fmt.to_bits(z), self.fmt)
        state.xor_register(_score_register(t), self.fmt.to_bits(score), self.fmt)
        state.xor_register(_tau_register(t), tau_here, None)

    def stopped_payoff(self, state: HybridState, t: int, member: int,
                       ledger: QueryLedger | None = None) -> None:
        """Writes payoff-at-stop-time times the step t-1 basis value (1 at t=1)."""
        T = self.chain.horizon
        if not 0 <= member < self.basis.size:
            raise QlsmError(f"basis member {member} out of range 0..{self.basis.size - 1}")
        if not state.has_register(_tau_register(t)):
            raise QlsmError(f"stop-time annotation for step {t} is missing")
        if ledger is not None:
            ledger.add_function_queries("z", PAYOFF_QUERY, _dispatch_payoff_queries(T))
            ledger.add_function_queries("e", BASIS_QUERY, 1)
        tau = state.register_values(_tau_register(t)).astype(np.int64)
        z_at_tau = np.empty(state.n_basis_states)
        for u in np.unique(tau):
            z_at_tau[tau == u] = self.quantized_payoff(int(u))[tau == u]
        if t == 1:
            factor = np.ones(state.n_basis_states)
        else:
            factor = self.quantized_basis_rows(t - 1)[:, member]
        product = np.asarray(self.fmt.quantize(z_at_tau * factor))
        state.xor_register(product_register(t, member), self.fmt.to_bits(product), self.fmt)

    def composed(self, state: HybridState, t: int, member: int,
                 ledger: QueryLedger | None = None, inverse: bool = False) -> None:
        """Full stopped-payoff circuit: backward steps from the horizon down to
        t, the product write, then the mirrored uncompute of every step.

        Every register write is an XOR involution, so the inverse runs the
        identical sequence; it differs only in the ancilla precondition (the
        product register must already hold the value to be cleared)."""
        T = self.chain.horizon
        expected = [product_register(t, member)] if inverse else []
        if state.nonzero_registers() != expected:
            raise QlsmError(f"ancilla registers are dirty: {state.nonzero_registers()}")
        for u in range(T, t - 1, -1):
            self.step(state, u, ledger)
        self.stopped_payoff(state, t, member, ledger)
        for u in range(t, T + 1):
            self.step(state, u, ledger, inverse=True)

    def composed_cost(self, t: int) -> dict[str, int]:
        """Exact query counts of one composed application at time t."""
        T = self.chain.horizon
        chain_steps = T - t + 1
        return {
            PAYOFF_QUERY: 2 * chain_steps + _dispatch_payoff_queries(T),
            BASIS_QUERY: 2 * chain_steps * self.basis.size + 1,
        }

    # -- estimation hooks ------------------------------------------------------

    def stopped_payoff_values(self, t: int, member: int) -> np.ndarray:
        """Per-path value left in the product register by one composed run:
        the register-replay reference for the law that variable() builds."""
        state = HybridState.prepared(self.sampling.ensemble)
        self.composed(state, t, member)
        values = state.register_values(product_register(t, member))
        leftovers = [r for r in state.nonzero_registers()
                     if r != product_register(t, member)]
        if leftovers:
            raise QlsmError(f"uncompute left dirty registers: {leftovers}")
        return np.asarray(values, dtype=float)

    def variable(self, t: int, member: int) -> QmcVariable:
        """The stopped-payoff product as an estimable random variable whose
        oracle bills one composed-circuit application per query.

        Its law is _stopped_law(t); stopped_payoff_values replays the same
        values through the registers."""
        if not 0 <= member < self.basis.size:
            raise QlsmError(f"basis member {member} out of range 0..{self.basis.size - 1}")
        masses, payoff, prev = self._stopped_law(t)
        factor = 1.0 if t == 1 else self.basis_table(t - 1)[prev, member]
        oracle = FunctionOracle(
            name=f"stopped_payoff[t={t},m={member}]", fmt=self.fmt,
            raw_values=payoff * factor,
            query_cost=self.composed_cost(t))
        return QmcVariable(sampling=self.sampling, oracle=oracle, masses=masses)

    def _stopped_law(self, t: int) -> tuple:
        """The law of what the stopped payoff at t reads, shared by every
        basis member, by dp._induction on one-hot right-hand sides. With c
        running over the C distinct payoff-table values of steps t..horizon,
        h_c(x) is the probability that the payoff at the first stop at or
        after t is c, given the step t state x. Rows are the positive-mass
        pairs (prev, c), prev ascending and then c, with prev the step t-1
        state (the start point at t=1); a row's mass is prev's marginal times
        chain.expect(t-1, h)[c, prev]. Each induction step applies the kernel
        to C vectors. C is tens on the basket instances. A payoff with a
        different value at almost every state makes C the number of states
        on steps t..horizon, about horizon times the cost of pushing one law
        per step t-1 state forward. Returns the masses and, per row, the
        payoff at the stop and prev."""
        T = self.chain.horizon
        if not 1 <= t <= T:
            raise QlsmError(f"step {t} out of range 1..{T}")
        law = self._stopped_laws.get(t)
        if law is None:
            payoff = np.sort(np.concatenate([self.payoff_table(u) for u in range(t, T + 1)]))
            payoff = payoff[np.diff(payoff, prepend=-np.inf) > 0.0]  # the distinct values
            h = _last_values(_induction(
                self.chain, lambda u: self.payoff_table(u) == payoff[:, None],
                self._stop_mask, t))
            weight = self.chain.marginals[t - 2] if t > 1 else 1.0
            masses = (weight * self.chain.expect(t - 1, h)).T
            prev, rows = np.nonzero(masses > 0.0)
            law = self._stopped_laws[t] = masses[prev, rows], payoff[rows], prev
        return law

    def classical_stop_times(self, t: int) -> np.ndarray:
        """Per-path stop times tau_t by dp.path_stop_times on the enumerated
        paths: the per-path reference for _stopped_law. tau_t reads only the
        masks of steps t..horizon, so earlier steps get none."""
        T = self.chain.horizon
        if not 1 <= t <= T:
            raise QlsmError(f"step {t} out of range 1..{T}")
        taus, _ = path_stop_times(
            self.chain, self.sampling.ensemble.indices,
            lambda u, later: self._stop_mask(u) if u >= t
            else np.zeros(self.chain.n_states(u), dtype=bool))
        return taus[:, t - 1]

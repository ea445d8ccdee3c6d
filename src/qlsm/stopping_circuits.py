"""Reversible circuits that solve the stopping-time recursion in superposition
and expose the stopped payoff as a function oracle.

The circuits compute in shared fixed-point arithmetic: their scores are
dp.CoefficientRule's fixed-point scores, and every per-step table has one row
per grid state. Estimation reads each stopped payoff's law off the backward
induction the exact oracle runs (dp._induction), over one-hot indicators of
the distinct payoff values and the circuits' stop masks, so no path is
enumerated, and bills composed_cost per application. The register replay of
the circuits over the enumerated paths, in which every write is an XOR
involution, is qlsm.reference's."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .basis import BasisSpec
from .chain import MarkovChainSpec
from .dp import CoefficientRule, _induction, _last_values, stop_decision
from .errors import QlsmError
from .payoff import PayoffSpec
from .qsim.fixed_point import FixedPointFormat
from .qsim.oracles import FunctionOracle, SamplingOracle
from .qsim.qmc import QmcVariable

PAYOFF_QUERY = "payoff"
BASIS_QUERY = "basis"


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
    # table is computed once.

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

    # -- estimation hooks ------------------------------------------------------

    def composed_cost(self, t: int) -> dict[str, int]:
        """Exact query counts of one composed application at time t."""
        T = self.chain.horizon
        chain_steps = T - t + 1
        return {
            PAYOFF_QUERY: 2 * chain_steps + _dispatch_payoff_queries(T),
            BASIS_QUERY: 2 * chain_steps * self.basis.size + 1,
        }

    def variable(self, t: int, member: int) -> QmcVariable:
        """The stopped-payoff product as an estimable random variable whose
        oracle bills one composed-circuit application per query.

        Its law is _stopped_law(t); reference.stopped_payoff_values replays
        the same values through the registers."""
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

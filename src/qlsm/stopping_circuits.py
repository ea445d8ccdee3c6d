"""Reversible circuits that solve the stopping-time recursion in superposition
and expose the regression entries they feed as estimation batches.

The circuits compute in shared fixed-point arithmetic: their scores are
dp.CoefficientRule's fixed-point scores, and every per-step table has one row
per grid state. Estimation reads each stopped payoff's law off the backward
induction the exact oracle runs (dp._induction), over one-hot indicators of
the distinct payoff values and the circuits' stop masks, so no path is
enumerated, and bills composed_cost per application. The register replay of
the circuits over the enumerated paths, in which every write is an XOR
involution, is in tests/circuit_reference.py."""
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
from .qsim.oracles import SamplingOracle
from .qsim.qmc import EntryBatch, QmcVariable

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
        self._tables: dict[tuple[str, int], np.ndarray] = {}  # read no coefficient
        self._scores: dict[int, np.ndarray] = {}

    def on(self, coefficients: Mapping[int, np.ndarray]) -> "StoppingCircuits":
        """These circuits on other coefficients: the two share their payoff
        and basis tables, which read no coefficient, and each keeps its own
        score tables."""
        twin = StoppingCircuits(chain=self.chain, payoff=self.payoff, basis=self.basis,
                                coefficients=coefficients, fmt=self.fmt)
        twin._tables = self._tables
        return twin

    # -- shared fixed-point arithmetic ---------------------------------------
    # Tables have one row per step-t grid state and hold 0 at states of zero
    # marginal mass, so rounding and overflow checks see only states some
    # path visits; a step's coefficients never change once loaded, so each
    # table is computed once.

    @staticmethod
    def _memo(tables: dict, key, build) -> np.ndarray:
        table = tables.get(key)
        if table is None:
            table = tables[key] = build()
        return table

    def _visited(self, t: int) -> np.ndarray:
        """The step-t states of positive marginal mass."""
        return self.chain.marginals[t - 1] > 0.0

    def payoff_table(self, t: int) -> np.ndarray:
        return self._memo(self._tables, ("payoff", t), lambda: np.asarray(self.fmt.quantize(
            np.where(self._visited(t), self.payoff.values(self.chain, t), 0.0))))

    def basis_table(self, t: int) -> np.ndarray:
        return self._memo(self._tables, ("basis", t), lambda: np.asarray(self.fmt.quantize(
            np.where(self._visited(t)[:, None], self.basis.evaluate(t, self.chain.grid(t)),
                     0.0))))

    def score_table(self, t: int) -> np.ndarray:
        """Quantized score standing in for the continuation value: the rule's
        scores on the step's basis table."""
        if t not in self.coefficients:
            raise QlsmError(f"no coefficient vector loaded for step {t}")
        return self._memo(self._scores, t, lambda: self.rule.row_scores(t, self.basis_table(t)))

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

    def gram(self, t: int) -> EntryBatch:
        """The Gram entries E[e_j e_k] of step t, (j, k) j-major, on the
        step's marginal: two basis queries per application."""
        table, m = self.basis_table(t), self.basis.size
        return EntryBatch(
            sampling=self.sampling, masses=self.chain.marginals[t - 1], fmt=self.fmt,
            query_cost={BASIS_QUERY: 2},
            names=[f"basis_product[t={t},{j},{k}]" for j in range(m) for k in range(m)],
            columns=[(j, k) for j in range(m) for k in range(m)], left=table, right=table,
            at=np.arange(table.shape[0]))

    def variable(self, t: int, member: int) -> QmcVariable:
        """Entry `member` of targets(t) alone; stopped_payoff_values in
        tests/circuit_reference.py replays its values through the registers."""
        if not 0 <= member < self.basis.size:
            raise QlsmError(f"basis member {member} out of range 0..{self.basis.size - 1}")
        return self.targets(t).variable(member)

    def targets(self, t: int) -> EntryBatch:
        """The targets E[z_tau e_k] at t, member k's basis value at the step
        t-1 state (1 at t=1) times the stopped payoff, each application one
        composed circuit. Their law comes from dp._induction on one-hot
        right-hand sides. With c running over the C distinct payoff-table
        values of steps t..horizon, h_c(x) is the probability that the
        payoff at the first stop at or after t is c, given the step t state
        x. Rows are the positive-mass pairs (prev, c), prev ascending and
        then c, with prev the step t-1 state (the start point at t=1); a
        row's mass is prev's marginal times chain.expect(t-1, h)[c, prev].
        Each induction step applies the kernel to C vectors. C is tens on
        the basket instances. A payoff with a different value at almost
        every state makes C the number of states on steps t..horizon, about
        horizon times the cost of pushing one law per step t-1 state
        forward."""
        T = self.chain.horizon
        if not 1 <= t <= T:
            raise QlsmError(f"step {t} out of range 1..{T}")
        payoff = np.sort(np.concatenate([self.payoff_table(u) for u in range(t, T + 1)]))
        payoff = payoff[np.diff(payoff, prepend=-np.inf) > 0.0]  # the distinct values
        h = _last_values(_induction(
            self.chain, lambda u: self.payoff_table(u) == payoff[:, None], self._stop_mask, t))
        weight = self.chain.marginals[t - 2] if t > 1 else 1.0
        masses = (weight * self.chain.expect(t - 1, h)).T
        prev, rows = np.nonzero(masses > 0.0)
        m = self.basis.size
        return EntryBatch(
            sampling=self.sampling, masses=masses[prev, rows], fmt=self.fmt,
            query_cost=self.composed_cost(t),
            names=[f"stopped_payoff[t={t},m={k}]" for k in range(m)],
            columns=[(0, k) for k in range(m)], left=payoff[rows][:, None],
            right=self.basis_table(t - 1) if t > 1 else np.ones((1, m)), at=prev)

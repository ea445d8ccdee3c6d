"""Bounded-variance quantum mean estimation on the hybrid simulator.

The estimator centers the variable at a rough sampled median, splits the
centered variable into its positive and negative parts, covers each part by
dyadic value intervals, runs interval-conditioned amplitude estimation per
piece with median amplification, and reassembles the mean. Oracle use is
billed exactly; estimates are sampled from exact outcome distributions.
Every step reads the variable's law, a value table and the masses of its
rows; the rough center draws rows of that law."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import Overflow, ScheduleViolation, VarianceExceeded
from .ae import EstimationOperator, draw_ae_estimates
from .fixed_point import FixedPointFormat
from .ledger import CostWeights, QueryLedger
from .oracles import ControlledRotation, FunctionOracle, SamplingOracle

MEDIAN_REPETITION_CONSTANT = 18.0
# Bounds the ledger cost of one AE call; sampling memory does not grow with M.
_MAX_AE_QUERIES = 1 << 30


@dataclass(eq=False)
class QmcVariable:
    """A real random variable presented as chain sampling plus an oracle.

    Its law is the oracle's value table with masses[k] the probability of
    row k; estimation reads only the law."""

    sampling: SamplingOracle
    oracle: FunctionOracle
    masses: np.ndarray

    @property
    def horizon(self) -> int:
        return self.sampling.chain.horizon

    def exact_moments(self) -> tuple[float, float]:
        """Exact mean and variance; a variable with one value on its support
        has that value as its mean and variance exactly 0."""
        values, masses = self.oracle.values, self.masses
        support = values[masses > 0.0]
        if support.size and support.min() == support.max():
            return float(support[0]), 0.0
        mean = float((masses * values).sum())
        return mean, float((masses * (values - mean) ** 2).sum())

    def exact_mean(self) -> float:
        return self.exact_moments()[0]

    def exact_variance(self) -> float:
        return self.exact_moments()[1]


@dataclass(frozen=True)
class PieceRecord:
    part: str
    low: float
    high: float
    queries: int
    amplitude: float
    estimate: float
    budget: float


@dataclass(eq=False)
class EstimationReport:
    """Estimate plus target accuracy, failure budget and exact query counts."""

    estimate: float
    epsilon: float
    delta: float
    sigma: float
    ledger: QueryLedger
    repetitions: int
    center: float
    pieces: list[PieceRecord] = field(default_factory=list)
    exact_mean: float | None = None
    exact_variance: float | None = None
    cost_reference: float | None = None
    cost_factor: float | None = None
    median_constant: float = MEDIAN_REPETITION_CONSTANT

    @property
    def error(self) -> float | None:
        if self.exact_mean is None:
            return None
        return abs(self.estimate - self.exact_mean)


def median_repetitions(delta: float) -> int:
    return max(1, math.ceil(MEDIAN_REPETITION_CONSTANT * math.log(1.0 / delta)))


def _queries_for(budget: float, amp_cap: float) -> int:
    """Smallest power-of-two M with 2*pi*s/M + pi^2/M^2 <= budget."""
    spread = min(0.5, math.sqrt(max(amp_cap, 0.0)))
    m = 2
    while 2.0 * math.pi * spread / m + math.pi**2 / m**2 > budget:
        m *= 2
        if m > _MAX_AE_QUERIES:
            raise ScheduleViolation(f"accuracy budget {budget:.3g} needs more than the cap of "
                                    f"{_MAX_AE_QUERIES} amplitude-estimation queries")
    return m


def _median(draws: np.ndarray) -> float:
    """np.median bit for bit: the middle sorted draw, or (a + b) / 2 of two."""
    ordered, mid = np.sort(draws), draws.size // 2
    return float(ordered[mid] if draws.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0)


def _part_boundaries(fmt: FixedPointFormat, sigma: float, top: float) -> list[float]:
    """Dyadic interval tops sigma, 2 sigma, ... capped near the part maximum.

    Consecutive tops stay at least two resolution steps apart so every piece
    interval [previous + resolution, top] is non-degenerate; the last top may
    overshoot the maximum by up to two steps, which only rescales that piece.
    """
    res = fmt.resolution
    tops: list[float] = []
    scale = max(sigma, res)
    while True:
        high = fmt.quantize_up(min(scale, top))
        if tops:
            high = max(high, tops[-1] + 2.0 * res)
        tops.append(high)
        if high >= top:
            return tops
        scale *= 2.0


def _cost_reference(sigma: float, epsilon: float, repetitions: int,
                    per_application_units: float) -> float:
    ratio = max(sigma / epsilon, 2.0)
    polylog = (1.0 + math.log2(ratio)) ** 1.5 * (1.0 + math.log(1.0 + math.log2(ratio)))
    return ratio * repetitions * polylog * per_application_units


def qmontecarlo(variable: QmcVariable, epsilon: float, delta: float, sigma: float,
                rng, ledger: QueryLedger | None = None,
                override_variance: bool = False,
                weights: CostWeights = CostWeights()) -> EstimationReport:
    """Estimate the mean to within epsilon with failure probability delta,
    given a variance bound sigma^2 on the (fixed-point) variable."""
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if not isinstance(rng, np.random.Generator):
        seed = rng if isinstance(rng, np.random.SeedSequence) else np.random.SeedSequence(rng)
        rng = np.random.Generator(np.random.Philox(seed))
    # Bill a run-local ledger so the report carries this estimation's own
    # counts; merge into the caller's ledger on the way out.
    caller_ledger = ledger
    ledger = QueryLedger()

    sampling, oracle, masses = variable.sampling, variable.oracle, variable.masses
    support = masses > 0.0
    exact_mean, exact_var = variable.exact_moments()
    raw_mean = float((masses * oracle.raw_values).sum())
    if abs(exact_mean - raw_mean) > epsilon / 100.0:
        raise Overflow(
            f"fixed-point rounding shifts the mean by {abs(exact_mean - raw_mean):.3e}, "
            f"more than epsilon/100; widen the fraction field"
        )
    if exact_var > sigma * sigma * (1.0 + 1e-12):
        message = (f"exact variance {exact_var:.6g} exceeds the declared bound "
                   f"{sigma * sigma:.6g}")
        if not override_variance:
            raise VarianceExceeded(message)
        warnings.warn(message, stacklevel=2)

    repetitions = median_repetitions(delta)
    report = EstimationReport(estimate=0.0, epsilon=epsilon, delta=delta, sigma=sigma,
                              ledger=ledger, repetitions=repetitions, center=0.0,
                              exact_mean=exact_mean, exact_variance=exact_var)
    if exact_var == 0.0:
        # Constant variable: a single sample is exact.
        rows = sampling.measure(masses, 1, rng, ledger)
        oracle.bill(ledger, applications=1)
        report.estimate = report.center = float(oracle.values[rows[0]])
        return _finish(report, variable, weights, caller_ledger)

    # Rough center: median of sampled values, itself exactly representable.
    rows = sampling.measure(masses, repetitions, rng, ledger)
    oracle.bill(ledger, applications=repetitions)
    center = report.center = float(np.sort(oracle.values[rows])[(repetitions - 1) // 2])

    wide = FixedPointFormat(oracle.fmt.int_bits + 1, oracle.fmt.frac_bits)
    shifted = oracle.values - center  # both representable at the widened format,
    on_support = shifted[support]  # so a part's top on the support is its extreme shift
    parts = []
    if (top := float(on_support.max())) > 0.0:
        parts.append(("positive", np.maximum(shifted, 0.0), +1.0, top))
    if (top := -float(on_support.min())) > 0.0:
        parts.append(("negative", np.maximum(-shifted, 0.0), -1.0, top))

    budget = 0.99 * epsilon
    piece_plans = []
    for part_name, part_values, part_sign, top in parts:
        part_oracle = FunctionOracle(name=f"{oracle.name}|{part_name}", fmt=wide,
                                     raw_values=part_values,
                                     query_cost=dict(oracle.query_cost))
        tops = _part_boundaries(wide, sigma, top)
        low = 0.0
        for high in tops:
            piece_plans.append((part_name, part_sign, part_oracle, low, high))
            low = high + wide.resolution

    n_pieces = len(piece_plans)
    plan_second_moment = 5.0 * sigma * sigma  # variance + rough-centering slack
    estimate = center
    for part_name, part_sign, part_oracle, low, high in piece_plans:
        per_amp_budget = budget / (n_pieces * high)
        amp_cap = 1.0 if low <= 0.0 else min(1.0, plan_second_moment / (low * low))
        queries = _queries_for(per_amp_budget, amp_cap)
        rotation = ControlledRotation(oracle=part_oracle, low=low, high=high)
        operator = EstimationOperator(sampling=sampling, rotation=rotation, masses=masses)
        draws = draw_ae_estimates(operator, queries, repetitions, rng, ledger)
        amp_estimate = _median(draws)
        estimate += part_sign * high * amp_estimate
        report.pieces.append(PieceRecord(
            part=part_name, low=low, high=high, queries=queries,
            amplitude=operator.amplitude, estimate=amp_estimate,
            budget=per_amp_budget))

    report.estimate = float(estimate)
    return _finish(report, variable, weights, caller_ledger)


def _finish(report: EstimationReport, variable: QmcVariable, weights: CostWeights,
            caller_ledger: QueryLedger | None) -> EstimationReport:
    per_app = variable.horizon * weights.sample_step + sum(
        variable.oracle.query_cost.values())
    report.cost_reference = _cost_reference(report.sigma, report.epsilon,
                                            report.repetitions, per_app)
    total = report.ledger.total_units(variable.horizon, weights)
    report.cost_factor = total / report.cost_reference if report.cost_reference else None
    if caller_ledger is not None:
        caller_ledger.merge(report.ledger)
    return report

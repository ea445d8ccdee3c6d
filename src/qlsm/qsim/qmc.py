"""Bounded-variance quantum mean estimation on the hybrid simulator.

The estimator centers the variable at a rough sampled median, splits the
centered variable into its positive and negative parts, covers each part by
dyadic value intervals, runs interval-conditioned amplitude estimation per
piece with median amplification, and reassembles the mean. Oracle use is
billed exactly; estimates are sampled from exact outcome distributions.
Every step reads the variable's law, a value table and the masses of its
rows; the rough center draws rows of that law. Entries that share their
law's rows and masses are estimated as one batch, each with its own
generator and ledger."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import Overflow, ScheduleViolation, VarianceExceeded
# draw_ae_estimates stays bound here: perfbench/spans.py traces it by this name.
from .ae import _WINDOW, _bill_draws, _draw_pieces, draw_ae_estimates  # noqa: F401
from .fixed_point import FixedPointFormat
from .ledger import CostWeights, QueryLedger
from .oracles import FunctionOracle, SamplingOracle, bill_queries

MEDIAN_REPETITION_CONSTANT = 18.0
# Bounds the ledger cost of one AE call; sampling memory does not grow with M.
_MAX_AE_QUERIES = 1 << 30
# A batch block's stacked (entries x rows) tables, and a chunk's AE windows
# and draws, stay within this many bytes whatever the batch size.
_BATCH_BYTES = 4 << 20


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
        means, variances, _, _ = _moments(self.oracle.values[None], self.masses)
        return float(means[0]), float(variances[0])

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


def _moments(values: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, ...]:
    """Exact means, variances, and least and greatest values on the support
    of a value table's rows under shared masses; a row with one value on the
    support has it as its mean and variance 0. Rows sum as 1-d arrays do."""
    support = values[:, masses > 0.0]
    lows, highs = support.min(axis=1, initial=np.inf), support.max(axis=1, initial=-np.inf)
    means = (masses * values).sum(axis=1)
    variances = (masses * (values - means[:, None]) ** 2).sum(axis=1)
    one_valued = lows == highs
    means[one_valued], variances[one_valued] = lows[one_valued], 0.0
    return means, variances, lows, highs


def median_repetitions(delta: float) -> int:
    return max(1, math.ceil(MEDIAN_REPETITION_CONSTANT * math.log(1.0 / delta)))


def _queries_for(budget: float, amp_cap: float) -> int:
    """Smallest power-of-two M with 2*pi*s/M + pi^2/M^2 <= budget: the
    quadratic's root in M rounded up to a power of two, then corrected by the
    inequality itself, so M is the one doubling from 2 would reach."""
    spread = min(0.5, math.sqrt(max(amp_cap, 0.0)))

    def too_few(m: int) -> bool:
        return 2.0 * math.pi * spread / m + math.pi**2 / m**2 > budget

    if too_few(_MAX_AE_QUERIES):
        raise ScheduleViolation(f"accuracy budget {budget:.3g} needs more than the cap of "
                                f"{_MAX_AE_QUERIES} amplitude-estimation queries")
    root = math.pi * (spread + math.sqrt(spread * spread + budget)) / budget
    m = 2 if root <= 2.0 else min(1 << math.ceil(math.log2(root)), _MAX_AE_QUERIES)
    while m > 2 and not too_few(m // 2):
        m //= 2
    while too_few(m):
        m *= 2
    return m


def _medians(draws: np.ndarray) -> np.ndarray:
    """np.median along the last axis bit for bit: the middle sorted draw, or
    (a + b) / 2 of the two middle ones."""
    ordered, mid = np.sort(draws, axis=-1), draws.shape[-1] // 2
    if draws.shape[-1] % 2:
        return ordered[..., mid]
    return (ordered[..., mid - 1] + ordered[..., mid]) / 2.0


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
    given a variance bound sigma^2 on the (fixed-point) variable: a batch
    of one."""
    return qmontecarlo_batch([variable], epsilon, delta, sigma, [rng], ledger,
                             override_variance, weights)[0]


def qmontecarlo_batch(variables: list, epsilon: float, delta: float, sigma: float,
                      rngs: list, ledger: QueryLedger | None = None,
                      override_variance: bool = False,
                      weights: CostWeights = CostWeights()) -> list[EstimationReport]:
    """`qmontecarlo` of variables that share sampling and masses, each on its
    own generator (a Generator, a SeedSequence or a seed): reports, ledgers
    (merged into ledger in order) and generator states are those of one call
    per variable in order, and the first variable that fails raises. Blocks
    of entries make one pass over their stacked value tables; AE windows
    come from one kernel call per query count."""
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if len(rngs) != len(variables):
        raise ValueError("need one generator per variable")
    if not variables:
        return []
    sampling, masses = variables[0].sampling, variables[0].masses
    if any(v.sampling is not sampling or v.masses is not masses for v in variables):
        raise ValueError("batched variables must share sampling and masses")
    rngs = [rng if isinstance(rng, np.random.Generator) else np.random.Generator(
        np.random.Philox(rng if isinstance(rng, np.random.SeedSequence)
                         else np.random.SeedSequence(rng))) for rng in rngs]
    # A block holds up to ten (entries x rows) float tables at once.
    step = max(1, _BATCH_BYTES // (80 * masses.size))
    reports = []
    for start in range(0, len(variables), step):
        block = variables[start:start + step]
        reports += _estimate_block(block, rngs[start:start + step], epsilon, delta, sigma,
                                   override_variance)
        for variable, report in zip(block, reports[start:]):
            _finish(report, variable, weights, ledger)
    return reports


def _entry_error(mean: float, variance: float, raw_mean: float, epsilon: float,
                 sigma: float, override_variance: bool) -> Exception | None:
    """The error an entry's exact moments raise, if any."""
    if abs(mean - raw_mean) > epsilon / 100.0:
        return Overflow(f"fixed-point rounding shifts the mean by {abs(mean - raw_mean):.3e}, "
                        f"more than epsilon/100; widen the fraction field")
    if variance > sigma * sigma * (1.0 + 1e-12):
        message = (f"exact variance {variance:.6g} exceeds the declared bound "
                   f"{sigma * sigma:.6g}")
        if not override_variance:
            return VarianceExceeded(message)
        warnings.warn(message, stacklevel=4)
    return None


class _Piece(NamedTuple):
    """One planned AE call: its entry's report, generator and oracle, and
    the fields of its PieceRecord but the estimate."""

    report: EstimationReport
    rng: np.random.Generator
    oracle: FunctionOracle
    sign: float
    part: str
    low: float
    high: float
    queries: int
    amplitude: float
    budget: float


def _estimate_block(variables: list, rngs: list, epsilon: float, delta: float, sigma: float,
                    override_variance: bool) -> list[EstimationReport]:
    """The block's reports, each but its cost factor: checks, centers and
    piece plans on the stacked value tables, then the AE draws."""
    masses = variables[0].masses
    values = np.array([v.oracle.values for v in variables])
    means, variances, lows, highs = _moments(values, masses)
    raw_means = (masses * np.array([v.oracle.raw_values for v in variables])).sum(axis=1)
    repetitions = median_repetitions(delta)

    # Checks and rough-center rows entry by entry, up to the first failure.
    reports, varying, center_rows, error = [], [], [], None
    for variable, rng, mean, variance, raw_mean in zip(
            variables, rngs, means.tolist(), variances.tolist(), raw_means.tolist()):
        error = _entry_error(mean, variance, raw_mean, epsilon, sigma, override_variance)
        if error is not None:
            break
        report = EstimationReport(estimate=0.0, epsilon=epsilon, delta=delta, sigma=sigma,
                                  ledger=QueryLedger(), repetitions=repetitions, center=0.0,
                                  exact_mean=mean, exact_variance=variance)
        # A constant variable needs a single sample, which is exact.
        count = 1 if variance == 0.0 else repetitions
        rows = variable.sampling.measure(masses, count, rng, report.ledger)
        variable.oracle.bill(report.ledger, applications=count)
        if count == 1:
            report.estimate = report.center = float(variable.oracle.values[rows[0]])
        else:
            varying.append(len(reports))
            center_rows.append(rows)
        reports.append(report)
    pieces = []
    if varying:
        # Rough centers: medians of sampled values, themselves representable.
        which = np.array(varying)
        centers = np.sort(values[which[:, None], np.array(center_rows)],
                          axis=1)[:, (repetitions - 1) // 2]
        # Differences of two values on the grid are exact on the widened grid,
        # so quantizing there would change nothing but the sign of zero, and
        # a part's top on the support is its extreme shift.
        shifted = values[which] - centers[:, None]
        parts = np.stack([shifted, -shifted], axis=1)
        np.maximum(parts, 0.0, out=parts)
        parts += 0.0
        tops = zip((highs[which] - centers).tolist(), (centers - lows[which]).tolist())
        pieces = _plan_pieces([variables[i] for i in varying], [reports[i] for i in varying],
                              [rngs[i] for i in varying], centers.tolist(), tops,
                              parts, masses * parts, epsilon, sigma)
    if error is not None:
        raise error

    # AE draws in chunks of pieces, in entry order, each on its entry's
    # generator; while drawn, a piece holds about four two-branch window
    # arrays of 2 W + 2 floats and four arrays of its repetitions.
    chunk = max(1, _BATCH_BYTES // (8 * (16 * (_WINDOW + 1) + 4 * repetitions)))
    estimates = []
    for lo in range(0, len(pieces), chunk):
        estimates += _medians(_draw_pieces(*zip(*[(p.amplitude, p.queries, p.rng)
                                                 for p in pieces[lo:lo + chunk]]),
                                           repetitions)).tolist()
    for piece, amp_estimate in zip(pieces, estimates):
        report = piece.report
        report.estimate += piece.sign * piece.high * amp_estimate
        bill_queries(report.ledger, f"{piece.oracle.name}|{piece.part}",
                     piece.oracle.query_cost, _bill_draws(report.ledger, piece.queries,
                                                          repetitions))
        report.pieces.append(PieceRecord(piece.part, piece.low, piece.high, piece.queries,
                                         piece.amplitude, amp_estimate, piece.budget))
    return reports


def _plan_pieces(variables: list, reports: list, rngs: list, centers: list, tops,
                 parts: np.ndarray, weighted: np.ndarray, epsilon: float,
                 sigma: float) -> list[_Piece]:
    """The pieces of each entry's positive and then negative part, in order,
    each with its M and exact amplitude. Sets each report's center, and its
    estimate to the center that the pieces add to."""
    budget = 0.99 * epsilon
    plan_second_moment = 5.0 * sigma * sigma  # variance + rough-centering slack
    pieces = []
    for entry, (variable, report, rng, center, part_tops) in enumerate(
            zip(variables, reports, rngs, centers, tops)):
        report.estimate = report.center = center
        oracle = variable.oracle
        wide = FixedPointFormat(oracle.fmt.int_bits + 1, oracle.fmt.frac_bits)
        intervals = []
        for part, (name, sign) in enumerate((("positive", 1.0), ("negative", -1.0))):
            if part_tops[part] > 0.0:
                low = 0.0
                for high in _part_boundaries(wide, sigma, part_tops[part]):
                    intervals.append((part, name, sign, low, high))
                    low = high + wide.resolution
        for part, name, sign, low, high in intervals:
            per_amp_budget = budget / (len(intervals) * high)
            amp_cap = 1.0 if low <= 0.0 else min(1.0, plan_second_moment / (low * low))
            queries = _queries_for(per_amp_budget, amp_cap)
            values = parts[entry, part]
            in_piece = (values >= low) & (values <= high)
            amplitude = float((weighted[entry, part][in_piece] / high).sum())
            pieces.append(_Piece(report, rng, oracle, sign, name, low, high, queries,
                                 amplitude, per_amp_budget))
    return pieces


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

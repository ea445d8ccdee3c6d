"""Bounded-variance quantum mean estimation on the hybrid simulator.

The estimator centers the variable at a rough sampled median, splits the
centered variable into its positive and negative parts, covers each part by
dyadic value intervals, runs interval-conditioned amplitude estimation per
piece with median amplification, and reassembles the mean. Oracle use is
billed exactly; estimates are sampled from exact outcome distributions.
Every step reads the variable's law, a value table and the masses of its
rows; the rough center draws rows of that law. Entries that share a law are
estimated as one batch, each the product of two shared columns and each
with its own generator and ledger."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..chain import _seeded_rng
from ..errors import Overflow, ScheduleViolation, VarianceExceeded
# draw_ae_estimates stays bound here: perfbench/spans.py traces it by this name.
from .ae import _WINDOW, _bill_draws, _draw_pieces, draw_ae_estimates  # noqa: F401
from .fixed_point import FixedPointFormat
from .ledger import CostWeights, QueryLedger
from .oracles import FunctionOracle, SamplingOracle, bill_queries, law_cdf, overflow_error

MEDIAN_REPETITION_CONSTANT = 18.0
# Bounds the ledger cost of one AE call; sampling memory does not grow with M.
_MAX_AE_QUERIES = 1 << 30
# A batch block's (entries x rows) tables, and a chunk's AE windows and
# draws, stay within this many bytes whatever the batch size.
_BATCH_BYTES = 4 << 20


@dataclass(eq=False)
class QmcVariable:
    """A real random variable presented as chain sampling plus an oracle.

    Its law is the oracle's value table with masses[k] the probability of
    row k; estimation reads only the law."""

    sampling: SamplingOracle
    oracle: FunctionOracle
    masses: np.ndarray


@dataclass(eq=False)
class EntryBatch:
    """Entries estimated on one law, each the product of two shared columns.

    The law is drawn through sampling, with masses[r] the probability of row
    r; every entry rounds to fmt and bills query_cost per application. Entry
    i is called names[i], and with (a, b) = columns[i] its raw value at row
    r is left[r, a] * right[at[r], b]."""

    sampling: SamplingOracle
    masses: np.ndarray
    fmt: FixedPointFormat
    query_cost: dict
    names: list
    columns: list
    left: np.ndarray
    right: np.ndarray
    at: np.ndarray

    def raw_table(self, lo: int, hi: int) -> np.ndarray:
        """The raw values of entries lo..hi-1 as a C-contiguous (entries x
        rows) table, so that its rows sum as 1-d arrays do."""
        a, b = np.array(self.columns[lo:hi]).T
        return np.ascontiguousarray((self.left[:, a] * self.right[:, b][self.at]).T)

    def rounded(self, lo: int, hi: int) -> tuple:
        """The rounded table and raw means of entries lo..hi-1, up to the
        first entry with a value out of fmt's range, and that entry's error
        (None if there is none)."""
        raw, error = self.raw_table(lo, hi), None
        try:
            values = self.fmt.quantize(raw)
        except Overflow:
            first = int(np.argmin((np.abs(raw) <= self.fmt.max_value).all(axis=1)))
            error = overflow_error(self.names[lo + first], self.fmt, raw[first])
            raw = raw[:first]
            values = self.fmt.quantize(raw)
        return values, (self.masses * raw).sum(axis=1), error

    def variable(self, entry: int) -> QmcVariable:
        """Entry `entry` alone, with an oracle holding its value table."""
        oracle = FunctionOracle(name=self.names[entry], fmt=self.fmt,
                                raw_values=self.raw_table(entry, entry + 1)[0],
                                query_cost=self.query_cost)
        return QmcVariable(sampling=self.sampling, oracle=oracle, masses=self.masses)


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

    @property
    def error(self) -> float | None:
        if self.exact_mean is None:
            return None
        return abs(self.estimate - self.exact_mean)


def _moments(values: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, ...]:
    """Exact means, variances, and least and greatest values on the support
    of a value table's rows under shared masses; a row with one value on the
    support has it as its mean and variance 0. Rows sum as 1-d arrays do."""
    positive = masses > 0.0
    support = values if positive.all() else values[:, positive]  # copy only if needed
    lows, highs = support.min(axis=1, initial=np.inf), support.max(axis=1, initial=-np.inf)
    means = (masses * values).sum(axis=1)
    variances = (masses * (values - means[:, None]) ** 2).sum(axis=1)
    one_valued = lows == highs
    means[one_valued], variances[one_valued] = lows[one_valued], 0.0
    return means, variances, lows, highs


def median_repetitions(delta: float) -> int:
    return max(1, math.ceil(MEDIAN_REPETITION_CONSTANT * math.log(1.0 / delta)))


def _spread(amp_cap: float) -> float:
    return min(0.5, math.sqrt(max(amp_cap, 0.0)))


def _cap_error(amp_cap: float) -> float:
    """2*pi*s/M + pi^2/M^2 at the cap M: the least accuracy budget that AE
    reaches on an amplitude of at most amp_cap."""
    spread = _spread(amp_cap)
    return 2.0 * math.pi * spread / _MAX_AE_QUERIES + math.pi**2 / _MAX_AE_QUERIES**2


@lru_cache(maxsize=1024)  # a run asks for a few dozen distinct pairs, many times each
def _queries_for(budget: float, amp_cap: float) -> int:
    """Smallest power-of-two M with 2*pi*s/M + pi^2/M^2 <= budget: the
    quadratic's root in M rounded up to a power of two, then corrected by the
    inequality itself, so M is the one doubling from 2 would reach."""
    spread = _spread(amp_cap)

    def too_few(m: int) -> bool:
        return 2.0 * math.pi * spread / m + math.pi**2 / m**2 > budget

    if _cap_error(amp_cap) > budget:
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
                weights: CostWeights = CostWeights()) -> EstimationReport:
    """Estimate the mean to within epsilon with failure probability delta,
    given a variance bound sigma^2 on the (fixed-point) variable: a batch
    of one, its raw values times a column of ones."""
    oracle = variable.oracle
    batch = EntryBatch(sampling=variable.sampling, masses=variable.masses, fmt=oracle.fmt,
                       query_cost=oracle.query_cost, names=[oracle.name], columns=[(0, 0)],
                       left=oracle.raw_values[:, None], right=np.ones((1, 1)),
                       at=np.zeros(oracle.raw_values.size, dtype=np.intp))
    return qmontecarlo_batch(batch, epsilon, delta, sigma, [rng], ledger, weights)[0]


def qmontecarlo_batch(batch: EntryBatch, epsilon: float, delta: float, sigma: float,
                      rngs: list, ledger: QueryLedger | None = None,
                      weights: CostWeights = CostWeights()) -> list[EstimationReport]:
    """`qmontecarlo` of each entry of the batch, each on its own generator
    (a Generator, a SeedSequence or a seed): reports, ledgers (merged into
    ledger in order) and generator states are those of one call per entry in
    order, and the first entry that fails raises; a query-cap refusal names
    the least epsilon at which every entry of the batch up to the first that
    fails another check fits the cap. Blocks
    of entries form, round and check their value table only when they are
    estimated; AE window laws come from a table held per (amplitude, M) in
    `qsim.ae`."""
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if len(rngs) != len(batch.names):
        raise ValueError("need one generator per entry")
    fmt = batch.fmt
    try:  # centered parts span twice the range: one integer bit more
        wide = FixedPointFormat(fmt.int_bits + 1, fmt.frac_bits)
    except ValueError as exc:
        raise Overflow(f"format ({fmt.int_bits},{fmt.frac_bits}) cannot be widened by the "
                       f"integer bit the centered parts need: {exc}") from None
    rngs = [rng if isinstance(rng, np.random.Generator) else _seeded_rng(rng) for rng in rngs]
    repetitions = median_repetitions(delta)
    # A block holds up to ten (entries x rows) float tables at once.
    step = max(1, _BATCH_BYTES // (80 * batch.masses.size))
    reports, refused, error = [], [], None
    for lo in range(0, len(batch.names), step):
        hi = min(lo + step, len(batch.names))
        pieces = []
        error = _plan_block(batch, lo, hi, rngs[lo:hi], wide, epsilon, delta, sigma,
                            reports, pieces, refused)
        if error is not None:
            break
        if not refused:  # after a refusal, later blocks are only planned
            _draw(pieces, repetitions, batch.query_cost)
    if refused:  # the refused entries all come before the first other failure
        fit = ("every entry of its batch fits" if error is None else
               "the entries of its batch before its first other failure fit")
        raise ScheduleViolation(
            f"entry '{refused[0][0]}' needs more than the cap of {_MAX_AE_QUERIES} "
            f"amplitude-estimation queries at its epsilon {epsilon:.3g}; {fit} the cap at an "
            f"epsilon of at least {max(least for _, least in refused):.3g}, though "
            f"{'a later batch' if error is None else 'a later entry or batch'} can still "
            f"need more")
    if error is not None:
        raise error

    horizon = batch.sampling.chain.horizon
    per_app = horizon * weights.sample_step + sum(
        count * weights.of_kind(kind) for kind, count in batch.query_cost.items())
    cost_reference = _cost_reference(sigma, epsilon, repetitions, per_app)
    for report in reports:
        report.cost_reference = cost_reference
        report.cost_factor = (report.ledger.total_units(horizon, weights) / cost_reference
                              if cost_reference else None)
        if ledger is not None:
            ledger.merge(report.ledger)
    return reports


def _entry_error(mean: float, variance: float, raw_mean: float, epsilon: float,
                 sigma: float) -> Exception | None:
    """The error an entry's exact moments raise, if any."""
    shift = abs(mean - raw_mean)
    if shift > epsilon / 100.0:
        return Overflow(f"fixed-point rounding shifts the mean by {shift:.3e}, more than "
                        f"epsilon/100 at this entry's epsilon {epsilon:.3g}; in the fixed "
                        f"format the entry needs an epsilon of at least {100.0 * shift:.3g}")
    if variance > sigma * sigma * (1.0 + 1e-12):
        return VarianceExceeded(f"exact variance {variance:.6g} exceeds the declared bound "
                                f"{sigma * sigma:.6g}")
    return None


class _Piece(NamedTuple):
    """One planned AE call: its entry's report, generator and name, and the
    fields of its PieceRecord but the estimate."""

    report: EstimationReport
    rng: np.random.Generator
    name: str
    sign: float
    part: str
    low: float
    high: float
    queries: int
    amplitude: float
    budget: float


def _plan_block(batch: EntryBatch, lo: int, hi: int, rngs: list, wide: FixedPointFormat,
                epsilon: float, delta: float, sigma: float, reports: list, pieces: list,
                refused: list) -> Exception | None:
    """Checks, rough centers and piece plans on the table of entries lo..hi-1,
    up to the first that fails a check: appends their reports but the cost
    reference and factor, their pieces, and (name, least epsilon) of each
    entry the query cap refuses. Returns the failed check's error, if any."""
    masses, names = batch.masses, batch.names[lo:hi]
    values, raw_means, overflow = batch.rounded(lo, hi)
    means, variances, lows, highs = _moments(values, masses)
    repetitions = median_repetitions(delta)

    # Checks and rough-center rows entry by entry, up to the first failure,
    # all drawn from one CDF of the law, dropped before the parts are formed.
    cdf = law_cdf(masses)
    block, varying, center_rows, error = [], [], [], None
    for name, rng, mean, variance, raw_mean in zip(
            names, rngs, means.tolist(), variances.tolist(), raw_means.tolist()):
        error = _entry_error(mean, variance, raw_mean, epsilon, sigma)
        if error is not None:
            break
        report = EstimationReport(estimate=0.0, epsilon=epsilon, delta=delta, sigma=sigma,
                                  ledger=QueryLedger(), repetitions=repetitions, center=0.0,
                                  exact_mean=mean, exact_variance=variance)
        # A constant variable needs a single sample, which is exact.
        count = 1 if variance == 0.0 else repetitions
        rows = batch.sampling.measure(cdf, count, rng, report.ledger)
        bill_queries(report.ledger, name, batch.query_cost, count)
        if count == 1:
            report.estimate = report.center = float(values[len(block), rows[0]])
        else:
            varying.append(len(block))
            center_rows.append(rows)
        block.append(report)
    del cdf
    reports += block
    if varying:
        # Rough centers: medians of sampled values, themselves representable.
        which = np.array(varying)
        centers = np.sort(values[which[:, None], np.array(center_rows)],
                          axis=1)[:, (repetitions - 1) // 2]
        # Differences of two values on the grid are exact on the widened grid,
        # so quantizing there would change nothing but the sign of zero, and
        # a part's top on the support is its extreme shift.
        parts = np.empty((which.size, 2, values.shape[1]))
        np.subtract(values[which], centers[:, None], out=parts[:, 0])
        np.negative(parts[:, 0], out=parts[:, 1])
        np.maximum(parts, 0.0, out=parts)
        parts += 0.0
        tops = zip((highs[which] - centers).tolist(), (centers - lows[which]).tolist())
        _plan_pieces([names[i] for i in varying], [block[i] for i in varying],
                     [rngs[i] for i in varying], centers.tolist(), tops,
                     parts, masses * parts, wide, epsilon, sigma, pieces, refused)
    return overflow if error is None else error


def _draw(pieces: list, repetitions: int, query_cost: dict) -> None:
    """The AE draws of the pieces, in chunks of pieces in entry order, each on
    its entry's generator: adds each piece to its report's estimate, record
    and ledger. While drawn, a piece holds about four two-branch window
    arrays of 2 W + 2 floats and four arrays of its repetitions."""
    chunk = max(1, _BATCH_BYTES // (8 * (16 * (_WINDOW + 1) + 4 * repetitions)))
    for start in range(0, len(pieces), chunk):
        part = pieces[start:start + chunk]
        estimates = _medians(_draw_pieces(*zip(*[(p.amplitude, p.queries, p.rng) for p in part]),
                                          repetitions)).tolist()
        for piece, amp_estimate in zip(part, estimates):
            report = piece.report
            report.estimate += piece.sign * piece.high * amp_estimate
            bill_queries(report.ledger, f"{piece.name}|{piece.part}", query_cost,
                         _bill_draws(report.ledger, piece.queries, repetitions))
            report.pieces.append(PieceRecord(piece.part, piece.low, piece.high, piece.queries,
                                             piece.amplitude, amp_estimate, piece.budget))


def _plan_pieces(names: list, reports: list, rngs: list, centers: list, tops,
                 parts: np.ndarray, weighted: np.ndarray, wide: FixedPointFormat,
                 epsilon: float, sigma: float, pieces: list, refused: list) -> None:
    """Appends the pieces of each entry's positive and then negative part, in
    order, each with its M and exact amplitude on the widened format, and
    (name, least epsilon) of each entry with a piece past the query cap.
    Sets each report's center, and its estimate to the center that the
    pieces add to."""
    budget = 0.99 * epsilon
    plan_second_moment = 5.0 * sigma * sigma  # variance + rough-centering slack
    for entry, (name, report, rng, center, part_tops) in enumerate(
            zip(names, reports, rngs, centers, tops)):
        report.estimate = report.center = center
        intervals = []
        for part, (part_name, sign) in enumerate((("positive", 1.0), ("negative", -1.0))):
            if part_tops[part] > 0.0:
                low = 0.0
                for high in _part_boundaries(wide, sigma, part_tops[part]):
                    amp_cap = 1.0 if low <= 0.0 else min(1.0, plan_second_moment / (low * low))
                    intervals.append((part, part_name, sign, low, high, amp_cap))
                    low = high + wide.resolution
        for part, part_name, sign, low, high, amp_cap in intervals:
            per_amp_budget = budget / (len(intervals) * high)
            try:
                queries = _queries_for(per_amp_budget, amp_cap)
            except ScheduleViolation:
                # The pieces do not depend on epsilon, and a piece fits the
                # cap once 0.99 epsilon / (pieces * top) reaches its cap error.
                refused.append((name, len(intervals) * max(
                    _cap_error(cap) * top for *_, top, cap in intervals) / 0.99))
                break
            values = parts[entry, part]
            in_piece = (values >= low) & (values <= high)
            amplitude = float((weighted[entry, part][in_piece] / high).sum())
            pieces.append(_Piece(report, rng, name, sign, part_name, low, high, queries,
                                 amplitude, per_amp_budget))

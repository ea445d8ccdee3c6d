"""Mean estimation one entry at a time, as `qlsm.qsim.qmc` ran it before
entries were estimated in batches, kept as the slow reference the batch must
match bit for bit: same estimates, centers, piece records, ledgers,
cost factors and generator states afterwards, and the same first error
(`qmontecarlo_entries`). AE outcomes come from the per-branch reference
sampler."""
import math

import numpy as np

from ae_reference import draw_ae_estimates
from qlsm.errors import Overflow, QlsmError, ScheduleViolation, VarianceExceeded
from qlsm.qsim.ae import EstimationOperator
from qlsm.qsim.fixed_point import FixedPointFormat
from qlsm.qsim.ledger import CostWeights, QueryLedger
from qlsm.qsim.oracles import ControlledRotation, FunctionOracle, law_cdf
from qlsm.qsim.qmc import (_MAX_AE_QUERIES, EstimationReport, PieceRecord, QmcVariable,
                           _cost_reference, _part_boundaries, median_repetitions)


def exact_moments(variable: QmcVariable) -> tuple[float, float]:
    """Exact mean and variance; a variable with one value on its support
    has that value as its mean and variance exactly 0."""
    values, masses = variable.oracle.values, variable.masses
    support = values[masses > 0.0]
    if support.size and support.min() == support.max():
        return float(support[0]), 0.0
    mean = float((masses * values).sum())
    return mean, float((masses * (values - mean) ** 2).sum())


def queries_for(budget: float, amp_cap: float) -> int:
    """Smallest power-of-two M with 2*pi*s/M + pi^2/M^2 <= budget."""
    spread = min(0.5, math.sqrt(max(amp_cap, 0.0)))
    m = 2
    while 2.0 * math.pi * spread / m + math.pi**2 / m**2 > budget:
        m *= 2
        if m > _MAX_AE_QUERIES:
            raise ScheduleViolation(f"accuracy budget {budget:.3g} needs more than the cap of "
                                    f"{_MAX_AE_QUERIES} amplitude-estimation queries")
    return m


def least_epsilon(piece_plans: list, plan_second_moment: float) -> float:
    """Smallest epsilon at which every planned piece fits the query cap:
    pieces * max over pieces of high * (2*pi*s/M + pi^2/M^2) at M = the cap,
    over 0.99."""
    worst = 0.0
    for *_, low, high in piece_plans:
        amp_cap = 1.0 if low <= 0.0 else min(1.0, plan_second_moment / (low * low))
        spread = min(0.5, math.sqrt(amp_cap))
        error = 2.0 * math.pi * spread / _MAX_AE_QUERIES + math.pi**2 / _MAX_AE_QUERIES**2
        worst = max(worst, error * high)
    return len(piece_plans) * worst / 0.99


def cap_refusal(refused: list, epsilon: float, complete: bool = True) -> ScheduleViolation:
    """The error of entries the query cap refuses, given as (name, least
    epsilon) in order: the first one's name and the least epsilon at which
    all of them fit the cap, for a whole batch or (not complete) for its
    entries before the first that fails another check. It keeps them as its
    `refused`."""
    fit = ("every entry of its batch fits" if complete else
           "the entries of its batch before its first other failure fit")
    later = "a later batch" if complete else "a later entry or batch"
    error = ScheduleViolation(
        f"entry '{refused[0][0]}' needs more than the cap of {_MAX_AE_QUERIES} "
        f"amplitude-estimation queries at its epsilon {epsilon:.3g}; {fit} the cap at an "
        f"epsilon of at least {max(least for _, least in refused):.3g}, though {later} can "
        f"still need more")
    error.refused = refused
    return error


def median(draws: np.ndarray) -> float:
    """np.median bit for bit: the middle sorted draw, or (a + b) / 2 of two."""
    ordered, mid = np.sort(draws), draws.size // 2
    return float(ordered[mid] if draws.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0)


def qmontecarlo(variable: QmcVariable, epsilon: float, delta: float, sigma: float,
                rng, ledger: QueryLedger | None = None,
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
    exact_mean, exact_var = exact_moments(variable)
    raw_mean = float((masses * oracle.raw_values).sum())
    shift = abs(exact_mean - raw_mean)
    if shift > epsilon / 100.0:
        raise Overflow(
            f"fixed-point rounding shifts the mean by {shift:.3e}, more than epsilon/100 at "
            f"this entry's epsilon {epsilon:.3g}; in the fixed format the entry needs an "
            f"epsilon of at least {100.0 * shift:.3g}"
        )
    if exact_var > sigma * sigma * (1.0 + 1e-12):
        raise VarianceExceeded(f"exact variance {exact_var:.6g} exceeds the declared bound "
                               f"{sigma * sigma:.6g}")

    repetitions = median_repetitions(delta)
    report = EstimationReport(estimate=0.0, epsilon=epsilon, delta=delta, sigma=sigma,
                              ledger=ledger, repetitions=repetitions, center=0.0,
                              exact_mean=exact_mean, exact_variance=exact_var)
    if exact_var == 0.0:
        # Constant variable: a single sample is exact.
        rows = sampling.measure(law_cdf(masses), 1, rng, ledger)
        oracle.bill(ledger, applications=1)
        report.estimate = report.center = float(oracle.values[rows[0]])
        return _finish(report, variable, weights, caller_ledger)

    # Rough center: median of sampled values, itself exactly representable.
    rows = sampling.measure(law_cdf(masses), repetitions, rng, ledger)
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
        try:
            queries = queries_for(per_amp_budget, amp_cap)
        except ScheduleViolation:
            raise cap_refusal([(oracle.name, least_epsilon(piece_plans, plan_second_moment))],
                              epsilon) from None
        rotation = ControlledRotation(oracle=part_oracle, low=low, high=high)
        operator = EstimationOperator(sampling=sampling, rotation=rotation, masses=masses)
        draws = draw_ae_estimates(operator, queries, repetitions, rng, ledger)
        amp_estimate = median(draws)
        estimate += part_sign * high * amp_estimate
        report.pieces.append(PieceRecord(
            part=part_name, low=low, high=high, queries=queries,
            amplitude=operator.amplitude, estimate=amp_estimate,
            budget=per_amp_budget))

    report.estimate = float(estimate)
    return _finish(report, variable, weights, caller_ledger)


def qmontecarlo_entries(batch, epsilon: float, delta: float, sigma: float, rngs: list,
                        ledger: QueryLedger | None = None,
                        weights: CostWeights = CostWeights()) -> list[EstimationReport]:
    """qmontecarlo of each entry of an EntryBatch in order, on its own
    generator, each entry's oracle formed just before it is estimated. The
    first entry that fails raises; after an entry the query cap refuses, the
    later ones up to the first other failure are tried too, and the error
    names the least epsilon at which every refused entry fits the cap."""
    reports, refused, complete = [], [], True
    for entry, rng in enumerate(rngs):
        try:
            reports.append(qmontecarlo(batch.variable(entry), epsilon, delta, sigma, rng,
                                       ledger=ledger, weights=weights))
        except QlsmError as exc:
            if hasattr(exc, "refused"):
                refused += exc.refused
            elif refused:
                complete = False
                break
            else:
                raise
    if refused:
        raise cap_refusal(refused, epsilon, complete)
    return reports


def _finish(report: EstimationReport, variable: QmcVariable, weights: CostWeights,
            caller_ledger: QueryLedger | None) -> EstimationReport:
    per_app = variable.sampling.chain.horizon * weights.sample_step + sum(
        count * weights.of_kind(kind) for kind, count in variable.oracle.query_cost.items())
    report.cost_reference = _cost_reference(report.sigma, report.epsilon,
                                            report.repetitions, per_app)
    total = report.ledger.total_units(variable.sampling.chain.horizon, weights)
    report.cost_factor = total / report.cost_reference if report.cost_reference else None
    if caller_ledger is not None:
        caller_ledger.merge(report.ledger)
    return report

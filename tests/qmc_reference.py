"""Mean estimation one entry at a time, as `qlsm.qsim.qmc` ran it before
entries were estimated in batches, kept as the slow reference the batch must
match bit for bit: same estimates, centers, piece records, ledgers,
cost factors and generator states afterwards, and the same first error. AE
outcomes come from the per-branch reference sampler."""
import math
import warnings

import numpy as np

from ae_reference import draw_ae_estimates
from qlsm.errors import Overflow, ScheduleViolation, VarianceExceeded
from qlsm.qsim.ae import EstimationOperator
from qlsm.qsim.fixed_point import FixedPointFormat
from qlsm.qsim.ledger import CostWeights, QueryLedger
from qlsm.qsim.oracles import ControlledRotation, FunctionOracle
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


def median(draws: np.ndarray) -> float:
    """np.median bit for bit: the middle sorted draw, or (a + b) / 2 of two."""
    ordered, mid = np.sort(draws), draws.size // 2
    return float(ordered[mid] if draws.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0)


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
    exact_mean, exact_var = exact_moments(variable)
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
        queries = queries_for(per_amp_budget, amp_cap)
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

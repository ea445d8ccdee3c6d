"""Quantum-simulated least-squares Monte Carlo: per-entry mean estimation of
the regression system through the stopping circuits, classical solves, and the
closed-form-Gram case-study run with its cube-radius requirements.

Coefficient solves use a pivoted factorization (no explicit inverse). Every
estimated entry bills the circuit chain rebuilt from the horizon down, so
ledger totals carry the quadratic backward-pass structure; the simulation
itself evaluates each entry on its value law, computed from the chain without
enumerating paths, and memoizes the per-step tables."""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import (KIND_GBM, KIND_HERMITE, BasisSpec, checked_sigma_min, closed_form_gram,
                    gram_matrix, solve_gram, sup_norm_bound, vandermonde_sigma_min_bound)
from .chain import MarkovChainSpec
from .dp import CoefficientRule
from .errors import QlsmError, ScheduleViolation
from .payoff import PayoffSpec, truncate, truncation_error_coefficient
from .qsim.ledger import CostWeights, QueryLedger
from .qsim.qmc import EntryBatch, qmontecarlo, qmontecarlo_batch
from .stopping_circuits import StoppingCircuits


@dataclass(frozen=True)
class EstimationSchedule:
    """Per-entry accuracy/failure split derived from the run inputs."""

    epsilon: float
    delta: float
    horizon: int
    basis_size: int

    @property
    def gram_accuracy(self) -> float:
        return self.epsilon / self.basis_size

    @property
    def target_accuracy(self) -> float:
        return self.epsilon / math.sqrt(self.basis_size)

    @property
    def gram_failure(self) -> float:
        return self.delta / (4.0 * self.horizon * self.basis_size**2)

    @property
    def target_failure(self) -> float:
        return self.delta / (4.0 * self.horizon * self.basis_size)


@dataclass(eq=False)
class QuantumLsmRun:
    """Full record of one simulated quantum run. Left out of to_json: rule,
    the circuits' fixed-point CoefficientRule, and entry_reports, which give
    each estimated entry's budget, delta share, piece plan with M per piece,
    and realized error against the exact mean."""

    chain: MarkovChainSpec
    payoff: PayoffSpec
    basis: BasisSpec
    epsilon: float
    delta: float
    schedule: EstimationSchedule
    sigma_min_lower: float
    sigma_min_oracle: bool  # whether the run read sigma_min_lower off the oracle
    gram_mode: str
    gram_matrices: dict
    targets: dict
    coefficients: dict
    rule: CoefficientRule
    final_payoff_estimate: float
    estimate: float
    ledger: QueryLedger
    l2_bound: float
    sup_bound: float
    payoff_bound: float
    exact_targets: dict = field(default_factory=dict)
    lambda_required: float | None = None
    lambda_used: float | None = None
    notes: list = field(default_factory=list)
    entry_reports: dict = field(default_factory=dict)  # entry name -> EstimationReport

    def to_json(self) -> str:
        doc = {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "estimate": self.estimate,
            "final_payoff_estimate": self.final_payoff_estimate,
            "gram_mode": self.gram_mode,
            "sigma_min_lower": self.sigma_min_lower,
            "sigma_min_oracle": self.sigma_min_oracle,
            "coefficients": {str(t): c.tolist() for t, c in self.coefficients.items()},
            "targets": {str(t): b.tolist() for t, b in self.targets.items()},
            "gram_matrices": {str(t): m.tolist() for t, m in self.gram_matrices.items()},
            "ledger": self.ledger.snapshot(),
            "l2_bound": self.l2_bound,
            "sup_bound": self.sup_bound,
            "payoff_bound": self.payoff_bound,
            "lambda_required": self.lambda_required,
            "lambda_used": self.lambda_used,
            "notes": self.notes,
        }
        return json.dumps(doc, sort_keys=True)


def oracle_sigma_min(basis: BasisSpec, chain: MarkovChainSpec) -> float:
    """Exact min over steps of sigma_min of the grid Gram (oracle-side info:
    a real deployment must supply this bound as an input); 1 when there is
    no step to regress at. Scans from the last step back, as the runs
    regress, and raises SingularGram at the first singular Gram."""
    return min((checked_sigma_min(gram_matrix(basis, chain, t), t)
                for t in range(chain.horizon - 1, 0, -1)), default=1.0)


def _entry_streams(seed, count: int):
    """The count children seed.spawn(count) would give, spawned from a copy:
    seed's child counter is left as it is, so a SeedSequence passed to two
    runs seeds both alike."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    twin = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                  pool_size=seed.pool_size,
                                  n_children_spawned=seed.n_children_spawned)
    return iter(twin.spawn(count))


def _check_epsilon_delta(epsilon: float, delta: float) -> None:
    if not 0 < delta < 1 or not 0 < epsilon < 1:
        raise ScheduleViolation("epsilon and delta must lie in (0, 1)")


GRAM_MODES = ("estimated", "closed_form")


def run_quantum_lsm(chain: MarkovChainSpec, payoff: PayoffSpec, basis: BasisSpec,
                    epsilon: float, delta: float, sigma_min_lower: float | None = None,
                    seed=None, *, gram_mode: str = "estimated",
                    weights: CostWeights = CostWeights()) -> QuantumLsmRun:
    """Whole-pipeline run: estimated (or closed-form) Gram matrices, backward
    per-entry estimation of the regression targets through one set of
    stopping circuits that reads the coefficients fitted so far, classical
    solves, final estimate. A step's Gram entries are one estimation batch,
    its targets another; each entry draws on its own stream. Circuits and
    coefficients round to the one format FixedPointFormat(). A None
    sigma_min_lower is read off the exact Gram (oracle_sigma_min), which a
    deployment must supply; sigma_min_oracle and a note record that."""
    if gram_mode not in GRAM_MODES:
        raise ValueError(f"unknown gram_mode {gram_mode!r}")
    T = chain.horizon
    m = basis.size
    ledger = QueryLedger()
    notes: list[str] = []

    sigma_min_oracle = sigma_min_lower is None
    if sigma_min_oracle:
        notes.append("sigma_min_lower computed by exact-Gram SVD (oracle mode)")
        sigma_min_lower = oracle_sigma_min(basis, chain)
    if sigma_min_lower <= 0:
        raise ScheduleViolation("sigma_min_lower must be positive")
    if epsilon > sigma_min_lower / 2.0:
        raise ScheduleViolation(
            f"epsilon={epsilon} exceeds sigma_min_lower/2={sigma_min_lower / 2.0}")
    _check_epsilon_delta(epsilon, delta)

    R = payoff.bound_for(chain)
    sup_b = sup_norm_bound(basis, chain) if T > 1 else 1.0
    l2_b = basis.l2_bound if basis.l2_bound is not None else sup_b
    if math.sqrt(m) * R * l2_b / sigma_min_lower < 1.0:
        warnings.warn("sqrt(m)*R*L/sigma_min < 1; the sensitivity bound "
                      "normalization does not apply", stacklevel=2)

    schedule = EstimationSchedule(epsilon=epsilon, delta=delta, horizon=T, basis_size=m)
    streams = _entry_streams(seed, (T - 1) * m * m + (T - 1) * m + 1)
    # The backward pass fills coefficients in step by step; the circuits read
    # the dict as it stands, so every phase shares their memoized tables.
    coefficients: dict[int, np.ndarray] = {}
    circuits = StoppingCircuits(chain=chain, payoff=payoff, basis=basis,
                                coefficients=coefficients)

    entry_reports: dict = {}

    def estimate(batch: EntryBatch, accuracy: float, failure: float, sigma: float) -> list:
        """One batch on the next entry streams; each entry keeps its report."""
        reports = qmontecarlo_batch(batch, accuracy, failure, sigma,
                                    [next(streams) for _ in batch.names], ledger=ledger,
                                    weights=weights)
        entry_reports.update(zip(batch.names, reports))
        return reports

    grams: dict[int, np.ndarray] = {}
    for t in range(1, T):
        if gram_mode == "estimated":
            reports = estimate(circuits.gram(t), schedule.gram_accuracy, schedule.gram_failure,
                               sup_b * sup_b)
            grams[t] = np.array([rep.estimate for rep in reports]).reshape(m, m)
        else:
            grams[t] = closed_form_gram(basis, t)

    targets: dict[int, np.ndarray] = {}
    exact_targets: dict[int, np.ndarray] = {}
    for t in range(T, 1, -1):
        reports = estimate(circuits.targets(t), schedule.target_accuracy,
                           schedule.target_failure, R * sup_b)
        b_est = targets[t - 1] = np.array([rep.estimate for rep in reports])
        exact_targets[t - 1] = np.array([rep.exact_mean for rep in reports])
        coefficients[t - 1] = np.asarray(circuits.fmt.quantize(
            solve_gram(grams[t - 1], b_est, t - 1)))

    final_var = circuits.variable(1, 0)
    final = entry_reports[final_var.oracle.name] = qmontecarlo(
        final_var, epsilon, delta / 2.0, R, next(streams), ledger=ledger, weights=weights)

    return QuantumLsmRun(
        chain=chain, payoff=payoff, basis=basis, epsilon=epsilon, delta=delta,
        schedule=schedule, sigma_min_lower=sigma_min_lower,
        sigma_min_oracle=sigma_min_oracle, gram_mode=gram_mode,
        gram_matrices=grams, targets=targets, coefficients=coefficients, rule=circuits.rule,
        final_payoff_estimate=final.estimate,
        estimate=max(payoff.value_at_start(chain), final.estimate),
        ledger=ledger, l2_bound=l2_b, sup_bound=sup_b, payoff_bound=R,
        exact_targets=exact_targets, notes=notes,
        entry_reports=entry_reports,
    )


_LOG_LAMBDA_CAP = 700.0  # ln of the cube radius at which a requirement saturates
CASE_STUDY_POWER = 4.0  # p: the case study clamps the payoff at beta = lambda^(2/p)
_TAIL_EXPONENT = CASE_STUDY_POWER / (CASE_STUDY_POWER - 2.0)  # p / (p - 2)


def brownian_lambda_requirement(horizon: int, basis_size: int, dim: int, degree: int,
                                accuracy: float, tail_coefficient: float) -> float:
    """Smallest cube radius the closed-form-Gram run is justified for with a
    truncated Hermite basis, its tail term at p = CASE_STUDY_POWER; a tail
    term past float range saturates at e^700, as in gbm_lambda_requirement."""
    req = max(16.0 * math.sqrt((degree + 1) * horizon),
              4.0 * horizon * math.log(5.0 * basis_size * dim / accuracy))
    try:
        tail = (6.0 * tail_coefficient / accuracy) ** _TAIL_EXPONENT
    except OverflowError:
        tail = math.exp(_LOG_LAMBDA_CAP)
    return max(req, tail)


def gbm_lambda_requirement(horizon: int, basis_size: int, dim: int, degree: int,
                           accuracy: float, tail_coefficient: float) -> float:
    """Smallest cube radius the closed-form-Gram run is justified for with the
    scaled-monomial basis, its tail term at p = CASE_STUDY_POWER, computed in
    log space and saturated at e^700."""
    log_accuracy = math.log(accuracy)
    log_req = 0.0
    for t in range(1, max(horizon, 2)):
        log_req = max(log_req, t * (2 * degree - 0.5) + math.sqrt(
            2.0 * degree**2 * t**2 * dim
            + math.log(basis_size * dim / 2.0) - log_accuracy))
    log_req = max(log_req, _TAIL_EXPONENT * max(
        math.log(6.0 * tail_coefficient) - log_accuracy, 0.0))
    return math.exp(min(log_req, _LOG_LAMBDA_CAP))


_LAMBDA_REQUIREMENTS = {KIND_HERMITE: brownian_lambda_requirement,
                        KIND_GBM: gbm_lambda_requirement}


def gbm_sigma_mins(basis: BasisSpec, horizon: int) -> list[tuple[float, float, float]]:
    """(sigma_min, sharp, simple) at each step t = 1..horizon-1 of a
    scaled-monomial basis: the smallest singular value of its closed-form
    Vandermonde-power Gram by dense SVD, and vandermonde_sigma_min_bound's
    two upper bounds on 1/sigma_min at its degree and dimension. A Gram too
    ill-conditioned for the SVD to resolve raises SingularGram, as the solve
    on it would."""
    dim = len(basis.multi_indices[0])
    return [(checked_sigma_min(closed_form_gram(basis, t), t),
             *vandermonde_sigma_min_bound(max(basis.degree, 1), dim, t))
            for t in range(1, horizon)]


def run_quantum_lsm_closed_form(chain: MarkovChainSpec, payoff: PayoffSpec, basis: BasisSpec,
                                epsilon: float, delta: float, seed=None) -> QuantumLsmRun:
    """Case-study run for a basis whose Gram is known in closed form: the
    identity for truncated Hermite products (Brownian chains), a Vandermonde
    power for scaled monomials (geometric Brownian chains). Skips Gram
    estimation; sigma_min is the identity's 1 for Hermite products and, for
    monomials, comes from gbm_sigma_mins, each step's SVD checked against its
    analytic bound. Runs run_quantum_lsm, in its fixed format
    FixedPointFormat(), on the payoff clamped at beta = lambda^(2/p), with
    lambda the cube radius and p = CASE_STUDY_POWER = 4, and records lambda
    against the schedule's requirement, which reads the unclamped payoff's
    p-th moment; a radius below it adds a note and warns."""
    _check_epsilon_delta(epsilon, delta)
    requirement = _LAMBDA_REQUIREMENTS.get(basis.kind)
    if requirement is None:
        raise ValueError("the closed-form-Gram run needs a truncated Hermite or "
                         "scaled-monomial basis")
    sigma_min = 1.0
    if basis.kind == KIND_GBM:
        for t, (smin, *bounds) in enumerate(gbm_sigma_mins(basis, chain.horizon), 1):
            if 1.0 / smin > min(bounds) * (1.0 + 1e-9):
                raise QlsmError(f"closed-form sigma_min {smin:.6g} at step {t} violates its "
                                f"analytic bound 1/sigma_min <= {min(bounds):.6g}")
            sigma_min = min(sigma_min, smin)
    lam = basis.cube_radius
    power = CASE_STUDY_POWER
    required = requirement(chain.horizon, basis.size, chain.dimension, basis.degree, epsilon,
                           truncation_error_coefficient(payoff, chain, power))
    run = run_quantum_lsm(chain, truncate(payoff, lam ** (2.0 / power)), basis, epsilon, delta,
                          sigma_min_lower=sigma_min, seed=seed, gram_mode="closed_form")
    run.lambda_used = lam
    run.lambda_required = required
    if lam < required:
        run.notes.append(f"cube radius {lam} below the schedule requirement {required:.3g}")
        warnings.warn(run.notes[-1], stacklevel=2)
    return run

"""Quantum-simulated least-squares Monte Carlo: per-entry mean estimation of
the regression system through the stopping circuits, classical solves, and the
smoothness-driven parameter schedules.

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
from typing import Callable

import numpy as np

from .basis import (BasisSpec, closed_form_gram, gram_matrix, solve_gram,
                    sup_norm_bound, validate_linear_independence, vandermonde_gram,
                    vandermonde_sigma_min_bound)
from .chain import MarkovChainSpec
from .errors import QlsmError, ScheduleViolation
from .payoff import PayoffSpec, truncate, truncation_error_coefficient
from .qsim.fixed_point import FixedPointFormat
from .qsim.ledger import CostWeights, QueryLedger
from .qsim.oracles import FunctionOracle
from .qsim.qmc import QmcVariable, qmontecarlo, qmontecarlo_batch
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
    """Full record of one simulated quantum run. entry_reports, left out of
    to_json, give each estimated entry's budget, delta share, piece plan with
    M per piece, and realized error against the exact mean."""

    chain: MarkovChainSpec
    payoff: PayoffSpec
    basis: BasisSpec
    epsilon: float
    delta: float
    schedule: EstimationSchedule
    sigma_min_lower: float
    sigma_min_oracle: bool
    gram_mode: str
    gram_matrices: dict
    targets: dict
    coefficients: dict
    final_payoff_estimate: float
    estimate: float
    ledger: QueryLedger
    l2_bound: float
    sup_bound: float
    payoff_bound: float
    exact_targets: dict = field(default_factory=dict)
    exact_grams: dict = field(default_factory=dict)
    lambda_required: float | None = None
    lambda_used: float | None = None
    notes: list = field(default_factory=list)
    entry_reports: dict = field(default_factory=dict)  # oracle name -> EstimationReport

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
    no step to regress at."""
    worst = validate_linear_independence(basis, chain, tol=-math.inf)
    return worst if worst < math.inf else 1.0


def _entry_streams(seed, count: int):
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return iter(seed.spawn(count))


def _basis_product_variable(circuits: StoppingCircuits, t: int, j: int, k: int) -> QmcVariable:
    rows = circuits.basis_table(t)
    oracle = FunctionOracle(name=f"basis_product[t={t},{j},{k}]", fmt=circuits.fmt,
                            raw_values=rows[:, j] * rows[:, k], query_cost={"basis": 2})
    return QmcVariable(sampling=circuits.sampling, oracle=oracle,
                       masses=circuits.chain.marginals[t - 1])


GRAM_MODES = ("estimated", "identity", "closed_form")


def run_quantum_lsm(chain: MarkovChainSpec, payoff: PayoffSpec, basis: BasisSpec,
                    epsilon: float, delta: float, sigma_min_lower: float | None = None,
                    seed=None, *, sigma_min_oracle: bool = False,
                    gram_mode: str = "estimated",
                    fmt: FixedPointFormat | None = None,
                    weights: CostWeights = CostWeights(),
                    ledger: QueryLedger | None = None) -> QuantumLsmRun:
    """Whole-pipeline run: estimated (or closed-form) Gram matrices, backward
    per-entry estimation of the regression targets through one set of
    stopping circuits that reads the coefficients fitted so far, classical
    solves, final estimate. A step's Gram entries are one estimation batch,
    its targets another; each entry draws on its own stream."""
    if gram_mode not in GRAM_MODES:
        raise ValueError(f"unknown gram_mode {gram_mode!r}")
    T = chain.horizon
    m = basis.size
    fmt = fmt or FixedPointFormat()
    ledger = ledger if ledger is not None else QueryLedger()
    notes: list[str] = []

    if sigma_min_lower is None:
        if not sigma_min_oracle:
            raise ScheduleViolation(
                "sigma_min_lower is required (or enable sigma_min_oracle, which "
                "reads it off the exact Gram and is not free information)")
        sigma_min_lower = oracle_sigma_min(basis, chain)
        notes.append("sigma_min_lower computed by exact-Gram SVD (oracle mode)")
    if sigma_min_lower <= 0:
        raise ScheduleViolation("sigma_min_lower must be positive")
    if epsilon > sigma_min_lower / 2.0:
        raise ScheduleViolation(
            f"epsilon={epsilon} exceeds sigma_min_lower/2={sigma_min_lower / 2.0}")
    if not 0 < delta < 1 or not 0 < epsilon < 1:
        raise ScheduleViolation("epsilon and delta must lie in (0, 1)")

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
                                coefficients=coefficients, fmt=fmt)

    entry_reports: dict = {}

    def estimate(variables: list, accuracy: float, failure: float, sigma: float) -> list:
        """One batch on the next entry streams; each entry keeps its report."""
        reports = qmontecarlo_batch(variables, accuracy, failure, sigma,
                                    [next(streams) for _ in variables], ledger=ledger,
                                    weights=weights)
        entry_reports.update((var.oracle.name, rep) for var, rep in zip(variables, reports))
        return reports

    grams: dict[int, np.ndarray] = {}
    exact_grams: dict[int, np.ndarray] = {}
    for t in range(1, T):
        if gram_mode == "estimated":
            reports = estimate([_basis_product_variable(circuits, t, j, k)
                                for j in range(m) for k in range(m)],
                               schedule.gram_accuracy, schedule.gram_failure, sup_b * sup_b)
            grams[t] = np.array([rep.estimate for rep in reports]).reshape(m, m)
        elif gram_mode == "identity":
            grams[t] = np.eye(m)
        else:
            grams[t] = closed_form_gram(basis, t)
        exact_grams[t] = gram_matrix(basis, chain, t)

    targets: dict[int, np.ndarray] = {}
    exact_targets: dict[int, np.ndarray] = {}
    for t in range(T, 1, -1):
        reports = estimate([circuits.variable(t, member) for member in range(m)],
                           schedule.target_accuracy, schedule.target_failure, R * sup_b)
        b_est = targets[t - 1] = np.array([rep.estimate for rep in reports])
        exact_targets[t - 1] = np.array([rep.exact_mean for rep in reports])
        coefficients[t - 1] = np.asarray(fmt.quantize(solve_gram(grams[t - 1], b_est, t - 1)))

    final_var = circuits.variable(1, 0)
    final = entry_reports[final_var.oracle.name] = qmontecarlo(
        final_var, epsilon, delta / 2.0, R, next(streams), ledger=ledger, weights=weights)

    return QuantumLsmRun(
        chain=chain, payoff=payoff, basis=basis, epsilon=epsilon, delta=delta,
        schedule=schedule, sigma_min_lower=sigma_min_lower,
        sigma_min_oracle=sigma_min_oracle, gram_mode=gram_mode,
        gram_matrices=grams, targets=targets, coefficients=coefficients,
        final_payoff_estimate=final.estimate,
        estimate=max(payoff.value_at_start(chain), final.estimate),
        ledger=ledger, l2_bound=l2_b, sup_bound=sup_b, payoff_bound=R,
        exact_targets=exact_targets, exact_grams=exact_grams, notes=notes,
        entry_reports=entry_reports,
    )


def brownian_lambda_requirement(horizon: int, basis_size: int, dim: int, degree: int,
                                accuracy: float, tail_coefficient: float | None,
                                power: float | None) -> float:
    """Smallest cube radius the identity-Gram run is justified for."""
    req = max(16.0 * math.sqrt((degree + 1) * horizon),
              4.0 * horizon * math.log(5.0 * basis_size * dim / accuracy))
    if tail_coefficient is not None and power is not None:
        req = max(req, (6.0 * tail_coefficient / accuracy) ** (power / (power - 2.0)))
    return req


def gbm_lambda_requirement(horizon: int, basis_size: int, dim: int, degree: int,
                           accuracy: float, tail_coefficient: float | None,
                           power: float | None,
                           log_accuracy: float | None = None) -> float:
    """Smallest cube radius the closed-form-Gram run is justified for.

    log_accuracy carries ln(accuracy) exactly when the accuracy itself
    underflows to zero (its schedule has an exponentially small factor)."""
    if log_accuracy is None:
        log_accuracy = math.log(accuracy)
    log_req = 0.0
    for t in range(1, max(horizon, 2)):
        log_req = max(log_req, t * (2 * degree - 0.5) + math.sqrt(
            2.0 * degree**2 * t**2 * dim
            + math.log(basis_size * dim / 2.0) - log_accuracy))
    if tail_coefficient is not None and power is not None:
        log_req = max(log_req, (power / (power - 2.0)) * max(
            math.log(6.0 * tail_coefficient) - log_accuracy, 0.0))
    return math.exp(min(log_req, 700.0))


def _truncated_run(chain: MarkovChainSpec, payoff: PayoffSpec, basis: BasisSpec,
                   epsilon: float, delta: float, seed, power: float,
                   truncation_level: float | None, requirement: Callable[..., float],
                   sigma_min_lower: float, gram_mode: str,
                   fmt: FixedPointFormat | None, weights: CostWeights) -> QuantumLsmRun:
    """Run on the payoff clamped at beta and record the cube radius against
    the schedule's requirement, which reads the unclamped payoff's tails;
    a radius below it adds a note and warns the caller of the public run."""
    lam = basis.cube_radius
    beta = truncation_level if truncation_level is not None else lam ** (2.0 / power)
    clamped = truncate(payoff, beta)
    r_coeff = truncation_error_coefficient(payoff, chain, power)
    required = requirement(chain.horizon, basis.size, chain.dimension, basis.degree,
                           epsilon, r_coeff, power)
    run = run_quantum_lsm(chain, clamped, basis, epsilon, delta,
                          sigma_min_lower=sigma_min_lower, seed=seed,
                          gram_mode=gram_mode, fmt=fmt, weights=weights)
    run.lambda_used = lam
    run.lambda_required = required
    if lam < required:
        run.notes.append(f"cube radius {lam} below the schedule requirement {required:.3g}")
        warnings.warn(run.notes[-1], stacklevel=3)
    return run


def run_quantum_lsm_brownian(chain: MarkovChainSpec, payoff: PayoffSpec, basis: BasisSpec,
                             epsilon: float, delta: float, seed=None, *,
                             power: float = 4.0, truncation_level: float | None = None,
                             fmt: FixedPointFormat | None = None,
                             weights: CostWeights = CostWeights()) -> QuantumLsmRun:
    """Identity-Gram specialization for Brownian chains with a truncated
    Hermite basis and clamped payoffs; skips Gram estimation entirely."""
    if basis.kind != "hermite-truncated":
        raise ValueError("the identity-Gram run needs a truncated Hermite basis")
    return _truncated_run(chain, payoff, basis, epsilon, delta, seed, power,
                          truncation_level, brownian_lambda_requirement,
                          sigma_min_lower=1.0, gram_mode="identity", fmt=fmt,
                          weights=weights)


def run_quantum_lsm_gbm(chain: MarkovChainSpec, payoff: PayoffSpec, basis: BasisSpec,
                        epsilon: float, delta: float, seed=None, *,
                        power: float = 4.0, truncation_level: float | None = None,
                        fmt: FixedPointFormat | None = None,
                        weights: CostWeights = CostWeights()) -> QuantumLsmRun:
    """Closed-form-Gram specialization for geometric Brownian chains with the
    scaled-monomial basis; sigma_min comes from a dense SVD of the closed form
    and is cross-checked against its analytic bound."""
    if basis.kind != "gbm-monomial-truncated":
        raise ValueError("the closed-form-Gram run needs the scaled-monomial basis")
    sigma_min = math.inf
    for t in range(1, chain.horizon):
        mat = vandermonde_gram(basis.degree, chain.dimension, t)
        smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
        sharp, simple = vandermonde_sigma_min_bound(max(basis.degree, 1),
                                                    chain.dimension, t)
        if 1.0 / smin > min(sharp, simple) * (1.0 + 1e-9):
            raise QlsmError(f"closed-form sigma_min {smin:.6g} at step {t} violates its "
                            f"analytic bound 1/sigma_min <= {min(sharp, simple):.6g}")
        sigma_min = min(sigma_min, smin)
    if chain.horizon == 1:
        sigma_min = 1.0
    return _truncated_run(chain, payoff, basis, epsilon, delta, seed, power,
                          truncation_level, gbm_lambda_requirement,
                          sigma_min_lower=sigma_min, gram_mode="closed_form", fmt=fmt,
                          weights=weights)


@dataclass(frozen=True)
class SmoothnessSchedule:
    degree: int
    basis_size: int
    accuracy: float
    cube_radius: float | None


def schedule_from_smoothness(horizon: int, dim: int, epsilon: float, model: str, *,
                             smoothness: int | None = None, smooth_const: float | None = None,
                             lipschitz_const: float | None = None,
                             cube_radius: float | None = None,
                             payoff_bound: float = 1.0, l2_bound: float = 1.0,
                             sigma_min: float = 1.0, power: float | None = None,
                             tail_coefficient: float | None = None) -> SmoothnessSchedule:
    """Degree, basis size, per-entry accuracy and cube radius for a target
    final accuracy under the stated smoothness class. Purely arithmetic."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    five_t = 5.0**horizon

    def comb(q):
        return math.comb(q + dim, dim)

    if model == "generic-lipschitz":
        if lipschitz_const is None or cube_radius is None:
            raise ValueError("the Lipschitz schedule needs lipschitz_const and cube_radius")
        degree = math.ceil(176.0 * five_t * cube_radius * lipschitz_const * dim / epsilon)
        acc = (sigma_min**2 / (4.0 * (176.0 * math.e**2 * cube_radius * lipschitz_const * dim) ** dim
                               * payoff_bound * l2_bound**2)
               * (epsilon / (2.0 * five_t)) ** (1 + dim))
        return SmoothnessSchedule(degree=degree, basis_size=comb(degree),
                                  accuracy=acc, cube_radius=cube_radius)

    if smoothness is None or smooth_const is None:
        raise ValueError("smooth schedules need smoothness and smooth_const")
    n, C = smoothness, smooth_const
    if model == "generic-smooth":
        degree = math.ceil((2.0 * five_t * C / epsilon) ** (1.0 / n))
        if n >= degree:
            raise ValueError(f"smoothness {n} is inconsistent with degree {degree}")
        acc = (sigma_min**2 / (4.0 * (math.exp(2 * n) * C) ** (dim / n)
                               * payoff_bound * l2_bound**2)
               * (epsilon / (2.0 * five_t)) ** (1.0 + dim / n))
        return SmoothnessSchedule(degree=degree, basis_size=comb(degree),
                                  accuracy=acc, cube_radius=cube_radius)
    if model == "brownian":
        degree = math.ceil((3.0 * five_t * C / epsilon) ** (1.0 / n))
        if n >= degree:
            raise ValueError(f"smoothness {n} is inconsistent with degree {degree}")
        acc = (1.0 / (3.0 * (math.exp(2 * n) * C) ** (dim / n) * payoff_bound)
               * (epsilon / (3.0 * five_t)) ** (1.0 + dim / n))
        lam = brownian_lambda_requirement(horizon, comb(degree), dim, degree, acc,
                                          tail_coefficient, power)
        return SmoothnessSchedule(degree=degree, basis_size=comb(degree),
                                  accuracy=acc, cube_radius=lam)
    if model == "gbm":
        degree = math.ceil((3.0 * five_t * C / epsilon) ** (1.0 / n))
        if n >= degree:
            raise ValueError(f"smoothness {n} is inconsistent with degree {degree}")
        size = (degree + 1) ** dim
        log_acc = (-27.0 * horizon * dim * (five_t * C / epsilon) ** (2.0 / n)
                   - (2 * dim + 2) * math.log(2.0) - (5.0 * dim / n) * math.log(C)
                   - math.log(payoff_bound)
                   + (1.0 + 5.0 * dim / n) * math.log(epsilon / (3.0 * five_t)))
        acc = math.exp(log_acc) if log_acc > -700.0 else 0.0
        lam = gbm_lambda_requirement(horizon, size, dim, degree, acc,
                                     tail_coefficient, power, log_accuracy=log_acc)
        return SmoothnessSchedule(degree=degree, basis_size=size,
                                  accuracy=acc, cube_radius=lam)
    raise ValueError(f"unknown model {model!r}")

"""Quantum-simulated least-squares Monte Carlo: per-entry mean estimation of
the regression system through the stopping circuits, classical solves, and the
closed-form-Gram case-study run with its cube-radius requirements.

Coefficient solves use a pivoted factorization (no explicit inverse). Every
estimated entry bills the circuit chain rebuilt from the horizon down, so
ledger totals carry the quadratic backward-pass structure; the simulation
itself evaluates each entry on its value law, computed from the chain without
enumerating paths, and memoizes the per-step tables. Runs at several seeds go
in lockstep: a law that no run's coefficients change is one batch for all."""
from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator

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


# run_quantum_lsm_trials runs its seeds in lockstep groups of at most this
# many estimated entries, and of one seed when a run alone has more: a group
# holds its runs' entry reports, so what it holds grows neither with the seed
# count nor, past one run, with the instance.
_GROUP_ENTRIES = 250


def _entry_count(horizon: int, basis_size: int) -> int:
    """The entries one run estimates, each on its own stream: (T-1) m^2 Gram
    entries, (T-1) m targets and the final estimate."""
    return (horizon - 1) * (basis_size * basis_size + basis_size) + 1


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


class _Trial:
    """One seed's share of a trials run: its entry streams and what its
    QuantumLsmRun records."""

    __slots__ = ("streams", "ledger", "entry_reports", "grams", "targets", "exact_targets")

    def __init__(self, streams: Iterator):
        self.streams, self.ledger = streams, QueryLedger()
        self.entry_reports, self.grams, self.targets, self.exact_targets = {}, {}, {}, {}


class _Lockstep:
    """The checked inputs of runs at any seeds, and the runs in lockstep."""

    def __init__(self, chain: MarkovChainSpec, payoff: PayoffSpec, basis: BasisSpec,
                 epsilon: float, delta: float, sigma_min_lower: float | None, gram_mode: str,
                 weights: CostWeights):
        if gram_mode not in GRAM_MODES:
            raise ValueError(f"unknown gram_mode {gram_mode!r}")
        self.sigma_min_oracle = sigma_min_lower is None
        if self.sigma_min_oracle:
            sigma_min_lower = oracle_sigma_min(basis, chain)
        if sigma_min_lower <= 0:
            raise ScheduleViolation("sigma_min_lower must be positive")
        if epsilon > sigma_min_lower / 2.0:
            raise ScheduleViolation(
                f"epsilon={epsilon} exceeds sigma_min_lower/2={sigma_min_lower / 2.0}")
        _check_epsilon_delta(epsilon, delta)
        self.chain, self.payoff, self.basis = chain, payoff, basis
        self.epsilon, self.delta, self.sigma_min_lower = epsilon, delta, sigma_min_lower
        self.gram_mode, self.weights = gram_mode, weights
        self.R = payoff.bound_for(chain)
        self.sup_b = sup_norm_bound(basis, chain) if chain.horizon > 1 else 1.0
        self.l2_b = basis.l2_bound if basis.l2_bound is not None else self.sup_b
        self.schedule = EstimationSchedule(epsilon=epsilon, delta=delta, horizon=chain.horizon,
                                           basis_size=basis.size)

    @property
    def normalized(self) -> bool:
        """Whether the sensitivity bound's normalization sqrt(m) R L / sigma_min
        >= 1 applies."""
        return math.sqrt(self.basis.size) * self.R * self.l2_b / self.sigma_min_lower >= 1.0

    def runs(self, seeds: list) -> list[QuantumLsmRun]:
        """One run per seed, the runs in lockstep: see run_quantum_lsm_trials."""
        chain, payoff, basis, epsilon, delta = (self.chain, self.payoff, self.basis,
                                                self.epsilon, self.delta)
        weights, schedule, R, sup_b = self.weights, self.schedule, self.R, self.sup_b
        T, m = chain.horizon, basis.size
        trials = [_Trial(_entry_streams(seed, _entry_count(T, m))) for seed in seeds]

        def estimate(batch: EntryBatch, group: list, accuracy: float, failure: float,
                     sigma: float) -> list:
            """The batch once for each trial of group, as one batch of their
            entries trial by trial, each on its trial's next stream; each
            trial's ledger merges its entries' in order and keeps their
            reports. Returns the reports per trial."""
            n = len(batch.names)
            reports = qmontecarlo_batch(
                dataclasses.replace(batch, names=batch.names * len(group),
                                    columns=batch.columns * len(group)),
                accuracy, failure, sigma,
                [next(trial.streams) for trial in group for _ in range(n)], weights=weights)
            per_trial = [reports[k * n:(k + 1) * n] for k in range(len(group))]
            for trial, own in zip(group, per_trial):
                for report in own:
                    trial.ledger.merge(report.ledger)
                trial.entry_reports.update(zip(batch.names, own))
            return per_trial

        # These circuits build the batches all trials share; each trial's own
        # circuits share their payoff and basis tables and score its
        # coefficients.
        shared = StoppingCircuits(chain=chain, payoff=payoff, basis=basis, coefficients={})
        for t in range(1, T):
            if self.gram_mode == "estimated":
                for trial, reports in zip(trials, estimate(
                        shared.gram(t), trials, schedule.gram_accuracy, schedule.gram_failure,
                        sup_b * sup_b)):
                    trial.grams[t] = np.array([rep.estimate for rep in reports]).reshape(m, m)
            else:
                for trial in trials:
                    trial.grams[t] = closed_form_gram(basis, t)
        horizon_targets = (estimate(shared.targets(T), trials, schedule.target_accuracy,
                                    schedule.target_failure, R * sup_b)
                           if T > 1 else [None] * len(trials))

        runs = []
        for trial, reports in zip(trials, horizon_targets):
            # The backward pass fills coefficients in step by step; the
            # circuits read the dict as it stands, so every phase shares their
            # tables.
            circuits = shared.on({})
            for t in range(T, 1, -1):
                if t < T:
                    [reports] = estimate(circuits.targets(t), [trial],
                                         schedule.target_accuracy, schedule.target_failure,
                                         R * sup_b)
                b_est = trial.targets[t - 1] = np.array([rep.estimate for rep in reports])
                trial.exact_targets[t - 1] = np.array([rep.exact_mean for rep in reports])
                circuits.coefficients[t - 1] = np.asarray(circuits.fmt.quantize(
                    solve_gram(trial.grams[t - 1], b_est, t - 1)))

            final_var = circuits.variable(1, 0)
            final = trial.entry_reports[final_var.oracle.name] = qmontecarlo(
                final_var, epsilon, delta / 2.0, R, next(trial.streams),
                ledger=trial.ledger, weights=weights)
            runs.append(QuantumLsmRun(
                chain=chain, payoff=payoff, basis=basis, epsilon=epsilon, delta=delta,
                schedule=schedule, sigma_min_lower=self.sigma_min_lower,
                sigma_min_oracle=self.sigma_min_oracle, gram_mode=self.gram_mode,
                gram_matrices=trial.grams, targets=trial.targets,
                coefficients=circuits.coefficients, rule=circuits.rule,
                final_payoff_estimate=final.estimate,
                estimate=max(payoff.value_at_start(chain), final.estimate),
                ledger=trial.ledger, l2_bound=self.l2_b, sup_bound=sup_b, payoff_bound=R,
                exact_targets=trial.exact_targets,
                notes=(["sigma_min_lower computed by exact-Gram SVD (oracle mode)"]
                       if self.sigma_min_oracle else []),
                entry_reports=trial.entry_reports))
        return runs


_NORMALIZATION_WARNING = ("sqrt(m)*R*L/sigma_min < 1; the sensitivity bound normalization "
                          "does not apply")


def run_quantum_lsm_trials(chain: MarkovChainSpec, payoff: PayoffSpec, basis: BasisSpec,
                           epsilon: float, delta: float, sigma_min_lower: float | None,
                           seeds: list, *, gram_mode: str = "estimated",
                           weights: CostWeights = CostWeights()) -> Iterator[QuantumLsmRun]:
    """The whole-pipeline run at each seed, in order: estimated (or
    closed-form) Gram matrices, backward per-entry estimation of the
    regression targets through stopping circuits that read the coefficients
    fitted so far, classical solves, final estimate. A step's Gram entries
    are one estimation batch, its targets another; each entry draws on its
    run's next stream. Runs go in lockstep groups of at most _GROUP_ENTRIES
    estimated entries (one run when a run alone has more), each group when
    its first run is asked for; the inputs are checked then too. No step's
    Gram law and not the horizon's target law depend on a run's
    coefficients, so in a group each is estimated once for all its runs, as
    one batch of their entries run by run; the later targets and the final
    estimate are each run's own. Each run is run_quantum_lsm's at its seed.
    Circuits and coefficients round to the one format FixedPointFormat(). A
    None sigma_min_lower is read off the exact Gram (oracle_sigma_min), which
    a deployment must supply; sigma_min_oracle and a note record that."""
    lockstep = _Lockstep(chain, payoff, basis, epsilon, delta, sigma_min_lower, gram_mode,
                         weights)
    if not lockstep.normalized:
        warnings.warn(_NORMALIZATION_WARNING, stacklevel=2)
    size = max(1, _GROUP_ENTRIES // _entry_count(chain.horizon, basis.size))
    for lo in range(0, len(seeds), size):
        yield from lockstep.runs(seeds[lo:lo + size])


def run_quantum_lsm(chain: MarkovChainSpec, payoff: PayoffSpec, basis: BasisSpec,
                    epsilon: float, delta: float, sigma_min_lower: float | None = None,
                    seed=None, *, gram_mode: str = "estimated",
                    weights: CostWeights = CostWeights()) -> QuantumLsmRun:
    """run_quantum_lsm_trials at the one seed."""
    lockstep = _Lockstep(chain, payoff, basis, epsilon, delta, sigma_min_lower, gram_mode,
                         weights)
    if not lockstep.normalized:
        warnings.warn(_NORMALIZATION_WARNING, stacklevel=2)
    [run] = lockstep.runs([seed])
    return run


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

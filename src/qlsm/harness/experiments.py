"""Experiment drivers: pricing runs against the exact oracle, cost-scaling
studies, the configured instance's bound audit and the exact oracle's
per-state report. Reports are deterministic given (config, seed) and
serialize to JSON plus flat CSV tables. No driver enumerates paths."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..basis import KIND_GBM, KIND_HERMITE, hermite, hermite_tail_bound, l2_norm_bound
from ..dp import continuation_values, exact_approximation_error, snell_envelope, stop_masses
from ..errors import ConfigError, QlsmError, ScheduleViolation
from ..lsm_classical import choose_sample_count, classical_cost_units, run_classical_lsm
from ..lsm_quantum import (gbm_sigma_mins, oracle_sigma_min, run_quantum_lsm,
                           run_quantum_lsm_trials)
from .config import ExperimentConfig


@dataclass(eq=False)
class ExperimentReport:
    """One experiment's outputs: raw per-trial rows plus derived summaries."""

    kind: str
    config: ExperimentConfig
    exact_value: float | None = None
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """The report as JSON; a NaN or infinite number, which JSON (RFC 8259)
        cannot hold, raises QlsmError."""
        doc = {"kind": self.kind, "config": json.loads(self.config.to_json()),
               "exact_value": self.exact_value, "rows": self.rows, "summary": self.summary}
        try:
            return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:
            raise QlsmError(f"the {self.kind} report holds a non-finite number ({exc})") from None

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        """Writes <kind>.json and <kind>.csv; a report that to_json refuses
        leaves no file behind."""
        text = self.to_json()
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        json_path = out / f"{self.kind}.json"
        csv_path = out / f"{self.kind}.csv"
        json_path.write_text(text)
        with csv_path.open("w", newline="") as fh:
            if self.rows:
                fields = sorted({k for row in self.rows for k in row})
                writer = csv.DictWriter(fh, fieldnames=fields, restval="")
                writer.writeheader()
                for row in self.rows:
                    writer.writerow(row)
        return json_path, csv_path


def _trial_seeds(base_seed: int, count: int) -> list:
    return list(np.random.SeedSequence(base_seed).spawn(count))


def resolve_sigma_min(config: ExperimentConfig, basis, chain) -> float:
    """The config's sigma_min_lower when set, else oracle_sigma_min when its
    sigma_min_oracle allows reading it; raises ScheduleViolation when neither
    is allowed."""
    if config.sigma_min_lower is not None:
        return config.sigma_min_lower
    if not config.sigma_min_oracle:
        raise ScheduleViolation(
            "sigma_min_lower is required (or enable sigma_min_oracle, which "
            "reads it off the exact Gram and is not free information)")
    return oracle_sigma_min(basis, chain)


def run_price(config: ExperimentConfig) -> ExperimentReport:
    """Price with the selected algorithm(s); compare to the exact oracle.
    The quantum trials run through run_quantum_lsm_trials, in its lockstep
    groups, each group when its first row is due; rows come trial by trial."""
    chain, payoff, basis = config.build()
    report = ExperimentReport(kind="price", config=config)
    algorithms = [a for a in ("classical", "quantum") if config.algorithm in (a, "both")]
    if "classical" in algorithms:
        n_paths = config.path_count or choose_sample_count(basis.size, config.epsilon,
                                                           config.delta)
        if n_paths < basis.size:
            raise ConfigError(f"path_count {n_paths} is below the basis size {basis.size}")

    exact = report.exact_value = snell_envelope(chain, payoff).value0
    seeds = _trial_seeds(config.seed, config.trials)
    weights = config.cost_weights()
    # One sigma_min for every trial: the oracle's SVDs are the same each time.
    if "quantum" in algorithms:
        sigma_min = resolve_sigma_min(config, basis, chain)
        quantum_runs = run_quantum_lsm_trials(chain, payoff, basis, config.epsilon,
                                              config.delta, sigma_min, seeds, weights=weights)
    for trial, seed in enumerate(seeds):
        for algo in algorithms:
            if algo == "classical":
                run = run_classical_lsm(chain, payoff, basis, n_paths, seed)
                row = {"cost_units": classical_cost_units(run, weights), "paths": n_paths}
            else:
                run = next(quantum_runs)
                row = {"cost_units": run.ledger.total_units(chain.horizon, weights),
                       "grover": run.ledger.grover_applications}
            row.update(trial=trial, algorithm=algo, estimate=run.estimate,
                       abs_error=abs(run.estimate - exact))
            report.rows.append(row)

    for algo in algorithms:
        rows = [r for r in report.rows if r["algorithm"] == algo]
        ests = np.array([r["estimate"] for r in rows])
        report.summary[algo] = {
            "mean_estimate": float(ests.mean()),
            "std_estimate": float(ests.std()),
            "mean_cost_units": float(np.mean([r["cost_units"] for r in rows])),
            "exceed_epsilon_rate": sum(r["abs_error"] > config.epsilon for r in rows) / len(rows),
        }
    if chain.diagnostics is not None:
        report.summary["discretization"] = [asdict(d) for d in chain.diagnostics]
    return report


def _fit_slope(log_x: np.ndarray, log_y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope with a two-sigma half-width; run_scaling fits at
    least four distinct points, so the residual sum exists."""
    coeffs, residuals, *_ = np.polyfit(log_x, log_y, 1, full=True)
    slope = float(coeffs[0])
    n = len(log_x)
    var = float(residuals[0]) / (n - 2)
    spread = float(np.sum((log_x - log_x.mean()) ** 2))
    return slope, 2.0 * math.sqrt(var / spread)


def run_scaling(config: ExperimentConfig, epsilon_grid: list[float]) -> ExperimentReport:
    """Cost-versus-accuracy study for both algorithms over an epsilon grid."""
    chain, payoff, basis = config.build()
    if len(set(epsilon_grid)) < 4:  # a slope through repeats of one epsilon means nothing
        raise ConfigError(f"epsilon grid needs at least 4 distinct points, got "
                          f"{sorted(set(epsilon_grid), reverse=True)}")
    weights = config.cost_weights()
    sigma_min = resolve_sigma_min(config, basis, chain)
    for eps in epsilon_grid:
        if eps > sigma_min / 2.0:
            raise ConfigError(
                f"epsilon {eps} exceeds sigma_min/2 = {sigma_min / 2.0}")

    report = ExperimentReport(kind="scaling", config=config)
    table = snell_envelope(chain, payoff)
    report.exact_value = table.value0
    seeds = _trial_seeds(config.seed, 2 * len(epsilon_grid))
    q_costs, c_costs = [], []
    for i, eps in enumerate(sorted(epsilon_grid, reverse=True)):
        qrun = run_quantum_lsm(chain, payoff, basis, eps, config.delta,
                               sigma_min_lower=sigma_min, seed=seeds[2 * i],
                               weights=weights)
        n_paths = choose_sample_count(basis.size, eps, config.delta)
        crun = run_classical_lsm(chain, payoff, basis, n_paths, seeds[2 * i + 1])
        q_cost = qrun.ledger.total_units(chain.horizon, weights)
        c_cost = classical_cost_units(crun, weights)
        q_costs.append(q_cost)
        c_costs.append(c_cost)
        report.rows.append({
            "epsilon": eps, "quantum_cost": q_cost, "classical_cost": c_cost,
            "classical_paths": n_paths,
            "quantum_estimate": qrun.estimate, "classical_estimate": crun.estimate,
            "cost_ratio": c_cost / q_cost,
        })
    log_inv_eps = np.log([1.0 / r["epsilon"] for r in report.rows])
    q_slope, q_ci = _fit_slope(log_inv_eps, np.log(q_costs))
    c_slope, c_ci = _fit_slope(log_inv_eps, np.log(c_costs))
    ratios = [r["cost_ratio"] for r in report.rows]
    report.summary = {
        "quantum_slope": q_slope, "quantum_slope_halfwidth": q_ci,
        "classical_slope": c_slope, "classical_slope_halfwidth": c_ci,
        "ratio_monotone_increasing": all(a < b for a, b in zip(ratios, ratios[1:])),
    }
    return report


# -- bound validation ---------------------------------------------------------


def _check(name: str, lhs: float, rhs: float, note: str = "") -> dict:
    return {"check": name, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs,
            "passed": bool(lhs <= rhs), "note": note}


def _hermite_weighted_integral(k: int, l: int, lower: float) -> float:
    """Integral of H_k H_l e^{-x^2} over [lower, inf), in closed form.

    Expands H_k H_l = sum_j 2^j j! C(k,j) C(l,j) H_{k+l-2j}; the tail of
    H_m e^{-x^2} is H_{m-1}(lower) e^{-lower^2} for m >= 1 (Rodrigues'
    formula) and sqrt(pi)/2 erfc(lower) for m = 0.
    """
    total = 0.0
    for j in range(min(k, l) + 1):
        m = k + l - 2 * j
        tail = (hermite(m - 1, lower) * math.exp(-lower * lower) if m
                else math.sqrt(math.pi) / 2.0 * math.erfc(lower))
        total += 2**j * math.factorial(j) * math.comb(k, j) * math.comb(l, j) * tail
    return total


def _hermite_tail_checks(degree: int, lam: float) -> list[dict]:
    """Both Hermite tail-bound forms at the cube radius lam, each the worst
    case over l <= k <= degree against the closed-form integral, and their
    ordering. The exact form is tight at k=1, l=0, so the comparison allows
    for the rounding of both closed forms."""
    slack = 1e-7
    worst_exact, worst_simple, worst_order = -math.inf, -math.inf, -math.inf
    for k in range(degree + 1):
        for l in range(k + 1):
            integral = abs(_hermite_weighted_integral(k, l, lam))
            exact_form, simple_form = hermite_tail_bound(k, l, lam)
            worst_exact = max(worst_exact, integral - exact_form * (1 + slack))
            worst_simple = max(worst_simple, integral - simple_form * (1 + slack))
            worst_order = max(worst_order, exact_form - simple_form)
    note = "rounding slack 1e-7 relative"
    return [_check(f"hermite-tail<=exact-form(lam={lam})", worst_exact, 1e-30, note),
            _check(f"hermite-tail<=simplified(lam={lam})", worst_simple, 1e-30, note),
            _check(f"exact-form<=simplified(lam={lam})", worst_order, 0.0)]


def validate_bounds(config: ExperimentConfig) -> ExperimentReport:
    """Numerical audit of the bounds the configured instance relies on: each
    lemma bound at the instance's own parameters where its basis uses it (the
    Hermite tails at the cube radius, the Vandermonde sigma_min at each step),
    then the classical and quantum end-to-end error bounds, each on one run.
    Tier-1 acceptance criteria 7-10 check the lemmas in general."""
    chain, payoff, basis = config.build()
    report = ExperimentReport(kind="bounds", config=config)
    rows = report.rows
    if basis.kind == KIND_HERMITE:
        rows += _hermite_tail_checks(basis.degree, basis.cube_radius)
    elif basis.kind == KIND_GBM:
        q, d = basis.degree, len(basis.multi_indices[0])
        for t, (smin, sharp, simple) in enumerate(gbm_sigma_mins(basis, chain.horizon), 1):
            rows.append(_check(f"sigma-min-sharp(q={q},d={d},t={t})", 1.0 / smin, sharp))
            rows.append(_check(f"sigma-min-simple(q={q},d={d},t={t})", 1.0 / smin, simple))

    table = snell_envelope(chain, payoff)
    exact = table.value0
    horizon, m = chain.horizon, basis.size
    bound_r = payoff.bound_for(chain)
    ell = l2_norm_bound(basis, chain) if horizon > 1 else 1.0
    sigma_min = oracle_sigma_min(basis, chain)
    eps = min(config.epsilon, sigma_min / 2.0)
    approx_err = max((exact_approximation_error(chain, basis, t, table.continuation[t])
                      for t in range(1, horizon)), default=0.0)
    n_paths = choose_sample_count(m, eps, config.delta)
    run = run_classical_lsm(chain, payoff, basis, n_paths,
                            np.random.SeedSequence(config.seed))
    rhs = 5.0**horizon * (4 * eps * m * bound_r * ell**2 / sigma_min**2 + approx_err)
    rows.append(_check("classical-error-bound(single-run)", abs(run.estimate - exact), rhs,
                       note=f"failure budget {6 * m * m * math.exp(-2 * n_paths * eps**2 / m**2):.3g}"))

    qrun = run_quantum_lsm(chain, payoff, basis, eps, config.delta,
                           sigma_min_lower=sigma_min, seed=config.seed,
                           weights=config.cost_weights())
    tail = sum(exact_approximation_error(chain, basis, t,
                                         continuation_values(chain, payoff, qrun.rule, t))
               for t in range(1, horizon))
    rhs_q = 8 * horizon * eps * m * bound_r * ell**2 / sigma_min**2 + 2 * tail
    rows.append(_check("quantum-error-bound(single-run)", abs(qrun.estimate - exact), rhs_q,
                       note=f"failure budget {config.delta}"))

    report.summary = {
        "all_passed": all(r["passed"] for r in rows),
        "failed": [r["check"] for r in rows if not r["passed"]],
    }
    return report


def dump_oracle(config: ExperimentConfig) -> ExperimentReport:
    """Exact value table of the configured instance, one row per step t =
    0..horizon and grid state x (the start point at t=0): the marginal mass,
    payoff, value, continuation value (None at the horizon), stop decision
    and stop_mass = P(tau = t, X_t = x) under the optimal stop time tau."""
    chain, payoff, _ = config.build()
    table = snell_envelope(chain, payoff)
    stopped = stop_masses(table)
    report = ExperimentReport(kind="oracle", config=config, exact_value=table.value0)
    for t, mass in enumerate((np.ones(1), *chain.marginals)):
        cont = table.continuation[t].tolist() if t < chain.horizon else [None] * mass.size
        columns = zip(mass.tolist(), payoff.values(chain, t).tolist(), table.values[t].tolist(),
                      cont, table.stop[t].tolist(), stopped[t].tolist())
        report.rows += [{"step": t, "state": x, "mass": m, "payoff": z, "value": v,
                         "continuation": c, "stop": s, "stop_mass": p}
                        for x, (m, z, v, c, s, p) in enumerate(columns)]
    report.summary = {
        "value": table.value0,
        "continuation0": table.continuation0,
        "expected_collected": float(sum(p @ payoff.values(chain, t)
                                        for t, p in enumerate(stopped))),
        "stop_time_law": [float(p.sum()) for p in stopped],
    }
    return report

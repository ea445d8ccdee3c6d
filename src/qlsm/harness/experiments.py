"""Experiment drivers: pricing runs against the exact oracle, cost-scaling
studies, the bound-validation suite and the exact oracle's per-state report.
Reports are deterministic given (config, seed) and serialize to JSON plus
flat CSV tables. No driver enumerates paths."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..basis import (BasisSpec, gbm_tail_bound, hermite, hermite_tail_bound, l2_norm_bound,
                     monomial_basis, vandermonde_gram, vandermonde_sigma_min_bound)
from ..chain import MarkovChainSpec, _seeded_rng
from ..dp import (CoefficientRule, continuation_values, exact_approximation_error,
                  snell_envelope, stop_masses, weighted_l2_norm)
from ..errors import ConfigError
from ..lsm_classical import choose_sample_count, classical_cost_units, run_classical_lsm
from ..lsm_quantum import oracle_sigma_min, resolve_sigma_min, run_quantum_lsm
from ..payoff import PayoffSpec, table_payoff
from ..qsim.fixed_point import FixedPointFormat
from .config import ExperimentConfig


@dataclass(eq=False)
class ExperimentReport:
    """One experiment's outputs: raw per-trial rows plus derived summaries."""

    kind: str
    config: ExperimentConfig
    exact_value: float | None = None
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_document(self) -> dict:
        return {
            "kind": self.kind,
            "config": json.loads(self.config.to_json()),
            "exact_value": self.exact_value,
            "rows": self.rows,
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, indent=2)

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        json_path = out / f"{self.kind}.json"
        csv_path = out / f"{self.kind}.csv"
        json_path.write_text(self.to_json())
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


def run_price(config: ExperimentConfig) -> ExperimentReport:
    """Price with the selected algorithm(s); compare to the exact oracle."""
    chain, payoff, basis = config.build()
    report = ExperimentReport(kind="price", config=config)
    algorithms = [a for a in ("classical", "quantum") if config.algorithm in (a, "both")]
    n_paths = config.path_count or choose_sample_count(basis.size, config.epsilon, config.delta)
    if "classical" in algorithms and n_paths < basis.size:
        raise ConfigError(f"path_count {n_paths} is below the basis size {basis.size}")

    exact = report.exact_value = snell_envelope(chain, payoff).value0
    seeds = _trial_seeds(config.seed, config.trials)
    weights = config.cost_weights()
    # One sigma_min for every trial: the oracle's SVDs are the same each time.
    if "quantum" in algorithms:
        sigma_min = resolve_sigma_min(basis, chain, config.sigma_min_lower,
                                      config.sigma_min_oracle)
    for trial, seed in enumerate(seeds):
        for algo in algorithms:
            if algo == "classical":
                run = run_classical_lsm(chain, payoff, basis, n_paths, seed)
                row = {"cost_units": classical_cost_units(run, weights), "paths": n_paths}
            else:
                run = run_quantum_lsm(chain, payoff, basis, config.epsilon, config.delta,
                                      sigma_min_lower=sigma_min, seed=seed, weights=weights)
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
    """Least-squares slope with a two-sigma half-width."""
    coeffs, residuals, *_ = np.polyfit(log_x, log_y, 1, full=True)
    slope = float(coeffs[0])
    n = len(log_x)
    if n <= 2 or not len(residuals):
        return slope, 0.0
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
    sigma_min = resolve_sigma_min(basis, chain, config.sigma_min_lower, config.sigma_min_oracle)
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


def _gauss_hermite_gram(k: int, l: int) -> float:
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    return float(np.sum(weights * hermite(k, nodes) * hermite(l, nodes))
                 / math.sqrt(math.pi))


def _lognormal_moment(order: int, t: float) -> float:
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    # E[x^order] with x = exp(sqrt(2t) y - t/2) under the e^{-y^2} weight.
    return float(np.sum(weights * np.exp(order * (math.sqrt(2 * t) * nodes - t / 2)))
                 / math.sqrt(math.pi))


def _lognormal_tail_integral(k: int, lam: float, t: float) -> float:
    """E[x^k; x > lam] for x = e^u, u ~ N(-t/2, t), in closed form."""
    return (math.exp(t * k * (k - 1) / 2.0)
            * 0.5 * math.erfc((math.log(lam) + t / 2.0 - k * t) / math.sqrt(2.0 * t)))


def validate_bounds(config: ExperimentConfig) -> ExperimentReport:
    """Numerical audit of every closed-form bound the package relies on."""
    chain, payoff, basis = config.build()
    report = ExperimentReport(kind="bounds", config=config)
    rows = report.rows
    rng = _seeded_rng(config.seed)

    # Orthonormality of the Hermite family under the Gaussian weight.
    worst = 0.0
    for k in range(7):
        for l in range(k + 1):
            target = math.factorial(k) * 2**k if k == l else 0.0
            got = _gauss_hermite_gram(k, l)
            scale = math.sqrt((math.factorial(k) * 2**k) * (math.factorial(l) * 2**l))
            worst = max(worst, abs(got - target) / scale)
    rows.append(_check("hermite-orthonormality(normalized)", worst, 1e-8))

    # One-sided Hermite tail integrals against both bound forms. The exact
    # form is tight at k=1, l=0, so the comparison allows for the rounding
    # of both closed forms.
    slack = 1e-7
    for lam in (2.0, 4.0, 6.0):
        worst_exact, worst_simple, worst_order = -math.inf, -math.inf, -math.inf
        for k in range(7):
            for l in range(k + 1):
                integral = abs(_hermite_weighted_integral(k, l, lam))
                exact_form, simple_form = hermite_tail_bound(k, l, lam)
                worst_exact = max(worst_exact, integral - exact_form * (1 + slack))
                worst_simple = max(worst_simple, integral - simple_form * (1 + slack))
                worst_order = max(worst_order, exact_form - simple_form)
        rows.append(_check(f"hermite-tail<=exact-form(lam={lam})", worst_exact, 1e-30,
                           note="rounding slack 1e-7 relative"))
        rows.append(_check(f"hermite-tail<=simplified(lam={lam})", worst_simple, 1e-30,
                           note="rounding slack 1e-7 relative"))
        rows.append(_check(f"exact-form<=simplified(lam={lam})", worst_order, 0.0))

    # Vandermonde-power sigma_min bounds against dense SVD.
    for t in (0.5, 1.0):
        for d in (1, 2):
            for q in (1, 2, 3, 4):
                mat = vandermonde_gram(q, d, t)
                smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
                sharp, simple = vandermonde_sigma_min_bound(q, d, t)
                rows.append(_check(f"sigma-min-sharp(q={q},d={d},t={t})",
                                   1.0 / smin, sharp))
                rows.append(_check(f"sigma-min-simple(q={q},d={d},t={t})",
                                   1.0 / smin, simple))

    # Log-normal tail bound in its validity regime.
    for t in (0.5, 1.0):
        for k in range(5):
            for factor in (1.05, math.e):
                lam = math.exp(t * (k - 0.5)) * factor
                integral = _lognormal_tail_integral(k, lam, t)
                bound = gbm_tail_bound(k, lam, t)
                rows.append(_check(f"lognormal-tail(k={k},t={t},f={factor:.2f})",
                                   integral, bound))

    # Closed-form Gram entries against quadrature.
    for t in (0.5, 1.0):
        worst_rel = 0.0
        for k in range(4):
            for l in range(4):
                target = math.exp(k * l * t)
                shift = math.exp(-(k * (k - 1) + l * (l - 1)) * t / 2.0)
                got = shift * _lognormal_moment(k + l, t)
                worst_rel = max(worst_rel, abs(got - target) / target)
        rows.append(_check(f"gbm-gram-quadrature(t={t})", worst_rel, 1e-6))

    # Linear-system sensitivity bound on random perturbed systems.
    sens_fail = 0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        mat = rng.normal(size=(m, m))
        smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
        if smin < 1e-6:
            continue
        vec = rng.normal(size=m)
        if np.linalg.norm(vec) < 1e-9:
            continue
        eps_a = rng.uniform(0, smin / 2.0)
        eps_b = rng.uniform(0, 1.0)
        d_mat = rng.normal(size=(m, m))
        d_mat *= eps_a / max(np.linalg.norm(d_mat, 2), 1e-300)
        d_vec = rng.normal(size=m)
        d_vec *= eps_b / max(np.linalg.norm(d_vec), 1e-300)
        x = np.linalg.solve(mat, vec)
        x_t = np.linalg.solve(mat + d_mat, vec + d_vec)
        lhs = float(np.linalg.norm(x - x_t))
        rhs = 2.0 / smin * (eps_a * np.linalg.norm(vec) / smin + eps_b)
        sens_fail += lhs > rhs
    rows.append(_check("sensitivity-bound-failures", float(sens_fail), 0.0))

    # Error-propagation inequalities for approximate stopping rules.
    propagation_fail = _stopping_error_propagation_failures(rng)
    rows.append(_check("stopping-error-propagation-failures", float(propagation_fail), 0.0))

    # Instantiated end-to-end bounds on the configured instance.
    rows.extend(_instantiated_error_bound_checks(config, chain, payoff, basis))

    report.summary = {
        "all_passed": all(r["passed"] for r in rows),
        "failed": [r["check"] for r in rows if not r["passed"]],
    }
    return report


def _random_small_chain(rng: np.random.Generator, horizon: int, n_states: int):
    grids = tuple(np.sort(rng.uniform(-1.5, 1.5, size=(n_states, 1)), axis=0)
                  for _ in range(horizon))
    init = rng.dirichlet(np.ones(n_states))
    mats = tuple(np.stack([rng.dirichlet(np.ones(n_states)) for _ in range(n_states)])
                 for _ in range(horizon - 1))
    return MarkovChainSpec(dimension=1, horizon=horizon, initial_state=[0.0],
                           grids=grids, initial_distribution=init, transitions=mats)


def _stopping_error_propagation_failures(rng: np.random.Generator) -> int:
    failures = 0
    for _ in range(20):
        horizon = int(rng.integers(2, 5))
        n_states = int(rng.integers(2, 5))
        chain = _random_small_chain(rng, horizon, n_states)
        tables = {t: rng.uniform(0, 1, size=n_states) for t in range(1, horizon + 1)}
        payoff = table_payoff(tables, start_value=float(rng.uniform(0, 1)))
        basis = monomial_basis(1, 1, horizon)
        coeffs = {t: rng.normal(scale=0.7, size=basis.size)
                  for t in range(1, horizon)}
        rule = CoefficientRule(basis=basis, coefficients=coeffs)
        fitted_gap = {}
        for k in range(1, horizon):
            approx = basis.evaluate(k, chain.grid(k)) @ coeffs[k]
            target = continuation_values(chain, payoff, rule, k)
            fitted_gap[k] = weighted_l2_norm(chain, k, approx - target)
        for t in range(1, horizon):
            exact_target = continuation_values(chain, payoff, "optimal", t)
            approx = basis.evaluate(t, chain.grid(t)) @ coeffs[t]
            lhs1 = weighted_l2_norm(chain, t, approx - exact_target)
            rhs1 = 2.0 * sum(fitted_gap[k] for k in range(t, horizon))
            approx_target = continuation_values(chain, payoff, rule, t)
            lhs2 = weighted_l2_norm(chain, t, approx_target - exact_target)
            rhs2 = 2.0 * sum(fitted_gap[k] for k in range(t + 1, horizon))
            failures += (lhs1 > rhs1 + 1e-12) + (lhs2 > rhs2 + 1e-12)
    return failures


def _instantiated_error_bound_checks(config: ExperimentConfig, chain: MarkovChainSpec,
                                     payoff: PayoffSpec, basis: BasisSpec) -> list[dict]:
    rows = []
    table = snell_envelope(chain, payoff)
    horizon, m = chain.horizon, basis.size
    bound_r = payoff.bound_for(chain)
    ell = l2_norm_bound(basis, chain) if horizon > 1 else 1.0
    sigma_min = oracle_sigma_min(basis, chain)
    eps = min(config.epsilon, sigma_min / 2.0)

    approx_err = 0.0
    for t in range(1, horizon):
        approx_err = max(approx_err, exact_approximation_error(chain, payoff, basis, t))

    n_paths = choose_sample_count(m, eps, config.delta)
    run = run_classical_lsm(chain, payoff, basis, n_paths,
                            np.random.SeedSequence(config.seed))
    rhs = 5.0**horizon * (4 * eps * m * bound_r * ell**2 / sigma_min**2 + approx_err)
    rows.append(_check("classical-error-bound(single-run)",
                       abs(run.estimate - table.value0), rhs,
                       note=f"failure budget {6 * m * m * math.exp(-2 * n_paths * eps**2 / m**2):.3g}"))

    qrun = run_quantum_lsm(chain, payoff, basis, eps, config.delta,
                           sigma_min_lower=sigma_min, seed=config.seed,
                           weights=config.cost_weights())
    fmt = FixedPointFormat()
    rule = CoefficientRule(basis=basis, coefficients=qrun.coefficients,
                           quantize=fmt.quantize)
    tail = 0.0
    for t in range(1, horizon):
        tail += exact_approximation_error(chain, payoff, basis, t, rule=rule)
    rhs_q = 8 * horizon * eps * m * bound_r * ell**2 / sigma_min**2 + 2 * tail
    rows.append(_check("quantum-error-bound(single-run)",
                       abs(qrun.estimate - table.value0), rhs_q,
                       note=f"failure budget {config.delta}"))
    return rows


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

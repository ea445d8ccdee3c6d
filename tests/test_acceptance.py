"""End-to-end acceptance suite.

Each test prints one pass/fail line. Tolerances are inlined where each
criterion states them; oracles (brute force, quadrature, statevector, exact
enumeration) are reimplemented here independently of the library paths they
check wherever the criterion calls for a comparison.
"""
import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from ae_reference import ae_outcome_distribution, statevector_ae_distribution
from basis_reference import gbm_tail_bound, table_payoff, weighted_l2_norm
from circuit_reference import HybridState, composed, product_register, stopped_payoff_values
from qmc_reference import exact_moments
from qlsm.basis import (hermite, hermite_basis, hermite_tail_bound,
                        monomial_basis, vandermonde_gram,
                        vandermonde_sigma_min_bound)
from qlsm.chain import MarkovChainSpec, discretize_brownian, enumerate_paths
from qlsm.dp import (CoefficientRule, continuation_values,
                     exact_approximation_error, snell_envelope)
from qlsm.harness.config import ExperimentConfig
from qlsm.harness.experiments import run_scaling
from qlsm.lsm_classical import choose_sample_count, run_classical_lsm
from qlsm.lsm_quantum import oracle_sigma_min, run_quantum_lsm
from qlsm.payoff import put_payoff
from qlsm.qsim import (FixedPointFormat, FunctionOracle, QmcVariable, qmontecarlo,
                       SamplingOracle)
from qlsm.stopping_circuits import StoppingCircuits


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d}: {status} - {detail}", flush=True)
    assert passed, detail


def random_chain(rng, horizon, n_states, dim=1):
    grids = tuple(np.sort(rng.uniform(-1.5, 1.5, size=(n_states, dim)), axis=0)
                  for _ in range(horizon))
    init = rng.dirichlet(np.ones(n_states))
    mats = tuple(np.stack([rng.dirichlet(np.ones(n_states))
                           for _ in range(n_states)])
                 for _ in range(horizon - 1))
    return MarkovChainSpec(dimension=dim, horizon=horizon, initial_state=[0.0],
                           grids=grids, initial_distribution=init,
                           transitions=mats)


def random_payoff(rng, chain):
    tables = {t: rng.uniform(0.0, 1.0, size=chain.n_states(t))
              for t in range(1, chain.horizon + 1)}
    return table_payoff(tables, start_value=float(rng.uniform(0.0, 1.0)))


def brute_force_optimum(chain, payoff):
    """Vectorized sweep over every per-step stop/continue decision table."""
    T = chain.horizon
    z = {t: payoff.values(chain, t) for t in range(1, T + 1)}
    values = z[T][None, :]  # (rules, states)
    for t in range(T - 1, 0, -1):
        cont = values @ chain.transition(t).T
        patterns = np.array(list(itertools.product([False, True],
                                                   repeat=chain.n_states(t))))
        values = np.where(patterns[:, None, :], z[t][None, None, :],
                          cont[None, :, :]).reshape(-1, chain.n_states(t))
    start = values @ chain.initial_distribution
    return max(float(start.max()), payoff.value_at_start(chain))


def test_criterion_1_oracle_vs_brute_force():
    rng = np.random.Generator(np.random.Philox(2024))
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        horizon = int(rng.integers(2, 5))
        n_states = int(rng.integers(2, 6))
        chain = random_chain(rng, horizon, n_states)
        payoff = random_payoff(rng, chain)
        table = snell_envelope(chain, payoff)
        worst = max(worst, abs(table.value0 - brute_force_optimum(chain, payoff)))
    elapsed = time.perf_counter() - started
    _report(1, worst <= 1e-12 and elapsed < 5.0,
            f"max |dp - brute force| = {worst:.2e} over 50 instances "
            f"in {elapsed:.2f}s")


def test_criterion_2_circuit_classical_equivalence():
    rng = np.random.Generator(np.random.Philox(77))
    fmt = FixedPointFormat()
    started = time.perf_counter()
    mismatches = 0
    dirty = 0
    checked = 0
    for _ in range(20):
        horizon = int(rng.integers(2, 4))
        n_states = int(rng.integers(2, 4))
        chain = random_chain(rng, horizon, n_states)
        payoff = random_payoff(rng, chain)
        basis = monomial_basis(1, 1, horizon)
        coeffs = {t: rng.normal(scale=0.6, size=basis.size)
                  for t in range(1, horizon)}
        circ = StoppingCircuits(chain=chain, payoff=payoff, basis=basis,
                                coefficients=coeffs, fmt=fmt)
        ens = enumerate_paths(chain)

        # Classical recursion replayed per path with scalar arithmetic,
        # quantizing after every operation exactly as the registers do.
        def q(x):
            return float(np.asarray(fmt.quantize(x)))

        z_grid = {t: payoff.values(chain, t) for t in range(1, horizon + 1)}
        e_grid = {t: basis.evaluate(t, chain.grid(t)) for t in range(1, horizon)}
        for i in range(len(ens)):
            idx = ens.indices[i]
            tau = horizon
            for t in range(horizon - 1, 0, -1):
                score = 0.0
                for k in range(basis.size):
                    term = q(q(e_grid[t][idx[t - 1], k]) * q(coeffs[t][k]))
                    score = q(score + term)
                if q(z_grid[t][idx[t - 1]]) >= score:
                    tau = t
                taus_here = tau
                for member in range(basis.size):
                    factor = 1.0 if t == 1 else q(e_grid[t - 1][idx[t - 2], member])
                    expected = q(q(z_grid[taus_here][idx[taus_here - 1]]) * factor)
                    got = stopped_payoff_values(circ, t, member)[i]
                    checked += 1
                    if got != expected:
                        mismatches += 1
        # Ancilla hygiene after a composed application.
        state = HybridState.prepared(ens)
        composed(circ, state, 1, 0)
        leftovers = [r for r in state.nonzero_registers()
                     if r != product_register(1, 0)]
        dirty += len(leftovers)
    elapsed = time.perf_counter() - started
    _report(2, mismatches == 0 and dirty == 0 and elapsed < 30.0,
            f"{checked} (path, step, member) annotations bit-exact, "
            f"ancillas clean, in {elapsed:.2f}s")


def test_criterion_3_amplitude_estimation_fidelity():
    worst = 0.0
    for amplitude in (0.0, 0.1, 0.25, 0.5, 1.0):
        for queries in (4, 8, 16):
            _, analytic, _ = ae_outcome_distribution(amplitude, queries)
            system = np.array([math.sqrt(1 - amplitude), math.sqrt(amplitude)],
                              dtype=complex)
            sv = statevector_ae_distribution(system, np.array([False, True]),
                                             queries)
            worst = max(worst, float(np.abs(analytic - sv).max()))
    est0, p0, _ = ae_outcome_distribution(0.0, 8)
    est1, p1, _ = ae_outcome_distribution(1.0, 8)
    exact_ends = (p0[0] == 1.0 and est0[0] == 0.0
                  and est1[int(np.argmax(p1))] == 1.0
                  and p1.max() == pytest.approx(1.0, abs=1e-15))
    _report(3, worst <= 1e-9 and exact_ends,
            f"analytic vs statevector max deviation {worst:.2e}; "
            f"endpoints exact")


def _four_path_variable(values):
    chain = MarkovChainSpec(
        dimension=1, horizon=2, initial_state=[0.0],
        grids=(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])),
        initial_distribution=[0.5, 0.5],
        transitions=(np.full((2, 2), 0.5),))
    oracle = FunctionOracle(name="h", fmt=FixedPointFormat(),
                            raw_values=np.asarray(values, dtype=float),
                            query_cost={"payoff": 1})
    return QmcVariable(sampling=SamplingOracle(chain), oracle=oracle,
                       masses=enumerate_paths(chain).probabilities)


def test_criterion_4_mean_estimation_failure_rates():
    trials = 500
    indicator = _four_path_variable([1.0, 0.0, 0.0, 0.0])
    signed = _four_path_variable([-0.8, -0.1, 0.3, 0.9])
    details = []
    ok = True
    for cfg_idx, (eps, delta) in enumerate(((0.05, 0.1), (0.02, 0.05))):
        bar = delta + 3.0 * math.sqrt(delta * (1 - delta) / trials)
        for var_idx, (name, var, sigma) in enumerate(
                (("indicator", indicator, 0.5), ("signed", signed, 0.7))):
            mean = exact_moments(var)[0]
            fails = 0
            for seed in range(trials):
                rep = qmontecarlo(var, eps, delta, sigma,
                                  (cfg_idx, var_idx, seed))
                fails += abs(rep.estimate - mean) > eps
            rate = fails / trials
            details.append(f"{name}@(eps={eps},delta={delta}): {rate:.3f}<={bar:.3f}")
            ok = ok and rate <= bar
    _report(4, ok, "; ".join(details))


def test_criterion_5_speedup_scaling():
    started = time.perf_counter()
    cfg = ExperimentConfig.from_json(dict(
        model="brownian", dimension=1, horizon=3, grid_size=4, grid_radius=2.0,
        algorithm="both", epsilon=0.05, delta=0.1, trials=1, seed=31,
        basis={"kind": "constant"}))
    grid = [2.0**-k for k in range(3, 8)]
    report = run_scaling(cfg, grid)
    q_slope = report.summary["quantum_slope"]
    c_slope = report.summary["classical_slope"]
    elapsed = time.perf_counter() - started
    ok = (abs(q_slope - 1.0) <= 0.15 and abs(c_slope - 2.0) <= 0.2
          and report.summary["ratio_monotone_increasing"] and elapsed < 600.0)
    _report(5, ok, f"quantum slope {q_slope:.3f}, classical slope {c_slope:.3f}, "
                   f"monotone ratio, in {elapsed:.2f}s")


def test_criterion_6_end_to_end_error_bound():
    chain = discretize_brownian(1, 3, 8, 2.2)
    payoff = put_payoff(1.0)
    basis = hermite_basis(1, 2, 3, 4.0)
    table = snell_envelope(chain, payoff)
    m = basis.size
    sigma_min = oracle_sigma_min(basis, chain)
    bound_r = payoff.bound_for(chain)
    ell = 1.0
    epsilon, delta, trials = 1.0, 0.2, 100
    eps0 = epsilon * sigma_min**2 / (4.0 * m * bound_r * ell**2)
    n_paths = choose_sample_count(m, eps0, delta)
    approx = max(exact_approximation_error(chain, basis, t, table.continuation[t])
                 for t in (1, 2))
    threshold = 5.0**3 * (epsilon + approx)

    seeds = np.random.SeedSequence(606).spawn(trials)
    classical_fails = quantum_fails = 0
    worst_c = worst_q = 0.0
    for seed in seeds:
        crun = run_classical_lsm(chain, payoff, basis, n_paths, seed)
        err_c = abs(crun.estimate - table.value0)
        worst_c = max(worst_c, err_c)
        classical_fails += err_c > threshold
        qrun = run_quantum_lsm(chain, payoff, basis, eps0, delta,
                               sigma_min_lower=sigma_min, seed=seed)
        err_q = abs(qrun.estimate - table.value0)
        worst_q = max(worst_q, err_q)
        quantum_fails += err_q > threshold
    ok = (classical_fails / trials <= delta and quantum_fails / trials <= delta)
    _report(6, ok,
            f"threshold {threshold:.3f}; worst classical err {worst_c:.4f} "
            f"({classical_fails} exceed), worst quantum err {worst_q:.4f} "
            f"({quantum_fails} exceed) over {trials} trials "
            f"(paths/trial {n_paths}, eps0 {eps0:.4f})")


def test_criterion_7_hermite_suite():
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    worst_gram = 0.0
    for k in range(7):
        for l in range(7):
            got = float(np.sum(weights * hermite(k, nodes) * hermite(l, nodes))
                        / math.sqrt(math.pi))
            target = math.factorial(k) * 2**k if k == l else 0.0
            scale = math.sqrt(math.factorial(k) * 2**k
                              * math.factorial(l) * 2**l)
            worst_gram = max(worst_gram, abs(got - target) / scale)

    worst_tail, worst_order = -math.inf, -math.inf
    for lam in (2.0, 4.0, 6.0):
        for k in range(7):
            for l in range(k + 1):
                integral, _ = quad(
                    lambda x: hermite(k, x) * hermite(l, x) * math.exp(-x * x),
                    lam, np.inf, limit=200, epsabs=1e-13, epsrel=1e-11)
                integral = abs(integral)
                exact_form, simple = hermite_tail_bound(k, l, lam)
                worst_tail = max(worst_tail,
                                 integral - exact_form * (1 + 1e-7),
                                 integral - simple * (1 + 1e-7))
                worst_order = max(worst_order, exact_form - simple)
    ok = worst_gram <= 1e-8 and worst_tail <= 1e-30 and worst_order <= 0.0
    _report(7, ok, f"normalized Gram deviation {worst_gram:.2e}; "
                   f"worst tail-bound slack violation {worst_tail:.2e}; "
                   f"worst exact-form minus simplified bound {worst_order:.2e}")


def test_criterion_8_gbm_suite():
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    worst_gram = 0.0
    for t in (0.5, 1.0):
        x = np.exp(math.sqrt(2 * t) * nodes - t / 2)
        for k in range(4):
            for l in range(4):
                ek = x**k * math.exp(-k * (k - 1) * t / 2)
                el = x**l * math.exp(-l * (l - 1) * t / 2)
                got = float(np.sum(weights * ek * el) / math.sqrt(math.pi))
                target = math.exp(k * l * t)
                worst_gram = max(worst_gram, abs(got - target) / target)

    # Two-coordinate entries against genuine product quadrature.
    t = 1.0
    x1 = np.exp(math.sqrt(2 * t) * nodes - t / 2)
    w2 = (weights[:, None] * weights[None, :]) / math.pi
    for kv, lv in (((1, 2), (2, 1)), ((0, 3), (3, 0)), ((2, 2), (1, 1))):
        integrand = np.ones((96, 96))
        for axis, (k, l) in enumerate(zip(kv, lv)):
            vals = (x1 ** (k + l)
                    * math.exp(-(k * (k - 1) + l * (l - 1)) * t / 2))
            integrand = integrand * (vals[:, None] if axis == 0 else vals[None, :])
        got = float(np.sum(w2 * integrand))
        target = math.exp((kv[0] * lv[0] + kv[1] * lv[1]) * t)
        worst_gram = max(worst_gram, abs(got - target) / target)

    sigma_ok = True
    for t in (0.5, 1.0):
        for d in (1, 2):
            for q in (1, 2, 3, 4):
                smin = float(np.linalg.svd(vandermonde_gram(q, d, t),
                                           compute_uv=False)[-1])
                sharp, simple = vandermonde_sigma_min_bound(q, d, t)
                sigma_ok &= 1.0 / smin <= sharp and 1.0 / smin <= simple

    worst_tail_ratio = 0.0
    for t in (0.5, 1.0):
        for k in range(5):
            for factor in (1.05, 1.1, math.e):
                lam = math.exp(t * (k - 0.5)) * factor
                integral, _ = quad(
                    lambda u: math.exp(k * u - (u + t / 2) ** 2 / (2 * t))
                    / math.sqrt(2 * math.pi * t), math.log(lam), np.inf, limit=200)
                worst_tail_ratio = max(worst_tail_ratio, integral / gbm_tail_bound(k, lam, t))

    ok = worst_gram <= 1e-6 and sigma_ok and worst_tail_ratio <= 1 + 1e-9
    _report(8, ok, f"Gram relative deviation {worst_gram:.2e}; sigma-min bounds "
                   f"{'hold' if sigma_ok else 'fail'}; worst log-normal tail integral/bound "
                   f"{worst_tail_ratio:.3f} at 1.05, 1.1 and e times the edge of its regime")


def test_criterion_9_sensitivity_bound():
    rng = np.random.Generator(np.random.Philox(909))
    violations = 0
    tested = 0
    while tested < 1000:
        m = int(rng.integers(2, 7))
        mat = rng.normal(size=(m, m))
        smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
        vec = rng.normal(size=m)
        if smin < 1e-6 or np.linalg.norm(vec) < 1e-9:
            continue
        eps_a = float(rng.uniform(0.0, smin / 2.0))
        eps_b = float(rng.uniform(0.0, 1.0))
        d_mat = rng.normal(size=(m, m))
        d_mat *= eps_a / max(np.linalg.norm(d_mat, 2), 1e-300)
        d_vec = rng.normal(size=m)
        d_vec *= eps_b / max(np.linalg.norm(d_vec), 1e-300)
        lhs = float(np.linalg.norm(np.linalg.solve(mat, vec)
                                   - np.linalg.solve(mat + d_mat, vec + d_vec)))
        rhs = 2.0 / smin * (eps_a * float(np.linalg.norm(vec)) / smin + eps_b)
        violations += lhs > rhs
        tested += 1
    _report(9, violations == 0,
            f"{tested} perturbed systems, {violations} bound violations")


def test_criterion_10_error_propagation_inequalities():
    rng = np.random.Generator(np.random.Philox(1010))
    violations = 0
    checked = 0
    for _ in range(20):
        horizon = int(rng.integers(2, 5))
        chain = random_chain(rng, horizon, int(rng.integers(2, 5)))
        payoff = random_payoff(rng, chain)
        basis = monomial_basis(1, 1, horizon)
        coeffs = {t: rng.normal(scale=0.7, size=basis.size)
                  for t in range(1, horizon)}
        rule = CoefficientRule(basis=basis, coefficients=coeffs)
        fitted_gap = {}
        for k in range(1, horizon):
            approx = basis.evaluate(k, chain.grid(k)) @ coeffs[k]
            target = continuation_values(chain, payoff, rule, k)
            fitted_gap[k] = weighted_l2_norm(chain, k, approx - target)
        table = snell_envelope(chain, payoff)
        for t in range(1, horizon):
            exact_target = table.continuation[t]
            approx = basis.evaluate(t, chain.grid(t)) @ coeffs[t]
            lhs1 = weighted_l2_norm(chain, t, approx - exact_target)
            rhs1 = 2.0 * sum(fitted_gap[k] for k in range(t, horizon))
            lhs2 = weighted_l2_norm(
                chain, t,
                continuation_values(chain, payoff, rule, t) - exact_target)
            rhs2 = 2.0 * sum(fitted_gap[k] for k in range(t + 1, horizon))
            violations += (lhs1 > rhs1 + 1e-12) + (lhs2 > rhs2 + 1e-12)
            checked += 2
    _report(10, violations == 0,
            f"{checked} displayed inequalities on 20 instances, "
            f"{violations} violations")

"""Per-seed byte identity of quantum run reports.

The digests pin ``run_quantum_lsm(...).to_json()`` for fixed instances and
seeds: estimates, Gram and target entries, coefficients and the full ledger
snapshot. A change that only makes the simulator faster must leave every
digest as it is. They were recorded with numpy 2.4 on x86-64; a different
numpy or BLAS build may round the classical solves differently.

The digests were re-pinned once when the chain's normal CDF moved from
``scipy.special.ndtr`` to ``math.erfc`` and the basis log-factorials from
``gammaln`` to ``math.lgamma``: the two differ in the last bits, which moves
``sigma_min_lower`` (and on the 1-d instance ``sup_bound``) by up to 1.1e-15
relative. Every estimate, coefficient, Gram and target entry and every
ledger count is unchanged; ``test_report_matches_recorded_values`` checks
each field against the reports recorded before the switch.

The criterion-6 digests were re-pinned again when the stopped-payoff laws
moved from rows keyed by (stop state, step t-1 state) to rows keyed by (step
t-1 state, payoff value). The laws and their exact means are the same, but
the rough center draws a row of the law, and on the 1-d put the zero payoffs
of many stop states now share one row, so the drawn centers, and with them
the piece plans, ledgers, targets, coefficients and estimates, move. Those
fields (LAW_FIELDS) are left out of the recorded-value comparison for that
instance; the Gram matrices and every other field are still compared, and
the basket digests did not move.
"""
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from qlsm import lsm_quantum
from qlsm.basis import hermite_basis
from qlsm.chain import discretize_brownian
from qlsm.harness import experiments
from qlsm.harness.config import ExperimentConfig
from qlsm.lsm_quantum import oracle_sigma_min, run_quantum_lsm, run_quantum_lsm_trials
from qlsm.payoff import put_payoff
from report_reference import assert_report_close, recorded_report


def criterion6_instance():
    """1-d Brownian chain, T=3, n=8, Hermite degree 2, put K=1 (512 paths)."""
    return (discretize_brownian(1, 3, 8, 2.2), put_payoff(1.0),
            hermite_basis(1, 2, 3, 4.0))


def basket_instance():
    """2-d Brownian chain, T=3, n=3, Hermite degree 2, basket put (729 paths)."""
    return (discretize_brownian(2, 3, 3, 2.2), put_payoff(1.0),
            hermite_basis(2, 2, 3, 4.0))


def basket2d_instance():
    """2-d Brownian chain, T=4, n=5, Hermite degree 2, basket put (390,625 paths)."""
    return (discretize_brownian(2, 4, 5, 2.2), put_payoff(1.0),
            hermite_basis(2, 2, 4, 4.0))


# Report fields fed by the stopped-payoff laws' rough centers.
LAW_FIELDS = frozenset({"targets", "coefficients", "estimate", "final_payoff_estimate",
                        "ledger"})

# Digests of the reports recorded in golden_reports_scipy.json, and the
# fields left out of the comparison with them.
RECORDED = [
    (criterion6_instance, 1, "2f1eef5cbfddcdaca40caef2350238c8c87cf531add4ceee75e7f777a03b26c2",
     LAW_FIELDS),
    (criterion6_instance, 2, "60dd870259afb672654c3757e05d705123f5ab19153a794b8c64e8b23514f23b",
     LAW_FIELDS),
    (basket_instance, 1, "a432b3d6345de039359ffbf7df42334df900d42353a90f546bdddd1e40eb5d9a",
     frozenset()),
    (basket_instance, 2, "3406e90fc5d7ac3cd4350197fe0554d0d455d374828432d04a0b454dbb48b7d5",
     frozenset()),
]

GOLDEN = [
    (criterion6_instance, 1, "bb97096fa53f660704ba7b7c0d94ba3a2ad3f6372578c9f367ac9466d335f6ab"),
    (criterion6_instance, 2, "8abde38ce1691f2ce188006ef46875e05219ce0e60241962b00a984f046467ff"),
    (basket_instance, 1, "065b67fd22a5eb53af16b9bdd5d184244e257579379a747d52ba328dfb136720"),
    (basket_instance, 2, "38512314a4a865601b1f858c5e752e950dab47bcd0b9425d4b1d351bb031308e"),
]


def report_json(build, seed) -> str:
    chain, payoff, basis = build()
    return run_quantum_lsm(chain, payoff, basis, 0.05, 0.1,
                           sigma_min_lower=oracle_sigma_min(basis, chain), seed=seed).to_json()


@pytest.mark.parametrize("build, seed, digest", GOLDEN,
                         ids=[f"{b.__name__}-seed{s}" for b, s, _ in GOLDEN])
def test_report_digest(build, seed, digest):
    assert hashlib.sha256(report_json(build, seed).encode()).hexdigest() == digest


@pytest.mark.parametrize("build, seed, digest, moved", RECORDED,
                         ids=[f"{b.__name__}-seed{s}" for b, s, _, _ in RECORDED])
def test_report_matches_recorded_values(build, seed, digest, moved):
    recorded = recorded_report(f"quantum/{build.__name__}/seed{seed}", digest)
    report = json.loads(report_json(build, seed))
    assert moved <= recorded.keys()
    assert_report_close({k: v for k, v in report.items() if k not in moved},
                        {k: v for k, v in recorded.items() if k not in moved})


# sha256 over every entry report of a run, entry by entry in estimation
# order: the entry's name, its estimate, center, exact mean and variance,
# cost reference and factor and piece records (floats as hex), and its
# ledger snapshot. to_json() carries only the estimates and the run's ledger.
ENTRY_GOLDEN = [
    (basket2d_instance, 0.02, 1, "d7bad7fb286f40a10b910b9b567e0d3c10482bf8f8f0154c3f0f13f8fc0ad8bf"),
    (basket2d_instance, 0.02, 2, "fee4d36b283f47a355ebc16a936eac6bc03f9834d83c0632fb073721d1d601f2"),
    (basket2d_instance, 0.02, 3, "2cbaab2310e48a820c274fe90fa5e9a1cea12fa0179ddae05fae67bc66d0a88a"),
    (criterion6_instance, 2.0**-12, 1,
     "53ee9ebcd2131318bc39564614b992c4d573cf11bf00d7e01c24237da7d248fd"),
    (criterion6_instance, 2.0**-12, 2,
     "7667ba12c553e61e7e37d59999a2b0c2ec48f03b21e7e563eeeb2ae109103173"),
    (criterion6_instance, 2.0**-12, 3,
     "bc42da45a1a9bdfbd09767c1f08cc6c93ec4b547a040c0347602d3a0d2aff93d"),
]


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    if dataclasses.is_dataclass(value):
        return _hex(dataclasses.astuple(value))
    return value


def entry_reports_digest(run) -> str:
    doc = [[name, _hex([r.estimate, r.center, r.exact_mean, r.exact_variance,
                        r.cost_reference, r.cost_factor, r.pieces]), r.ledger.snapshot()]
           for name, r in run.entry_reports.items()]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("build, epsilon, seed, digest", ENTRY_GOLDEN,
                         ids=[f"{b.__name__}-seed{s}" for b, _, s, _ in ENTRY_GOLDEN])
def test_entry_report_digest(build, epsilon, seed, digest):
    chain, payoff, basis = build()
    run = run_quantum_lsm(chain, payoff, basis, epsilon, 0.1,
                          sigma_min_lower=oracle_sigma_min(basis, chain), seed=seed)
    assert entry_reports_digest(run) == digest


def assert_same_run(run, single, horizon):
    assert run.to_json() == single.to_json()
    assert run.ledger.snapshot() == single.ledger.snapshot()
    assert (run.ledger.total_units(horizon).hex() == single.ledger.total_units(horizon).hex())
    assert entry_reports_digest(run) == entry_reports_digest(single)


# Each run of a lockstep trials call holds its own coefficients and score
# tables; score tables shared among the runs would score every run with the
# first run's coefficients and move the later runs' targets and estimates.
# Groups of at most two runs put a group boundary inside five seeds.
@pytest.mark.parametrize("build", [criterion6_instance, basket2d_instance])
@pytest.mark.parametrize("count", [1, 2, 5])
def test_trials_equal_single_runs(monkeypatch, build, count):
    chain, payoff, basis = build()
    T, m = chain.horizon, basis.size
    entries = (T - 1) * (m * m + m) + 1
    monkeypatch.setattr(lsm_quantum, "_GROUP_ENTRIES", 2 * entries)
    sigma_min = oracle_sigma_min(basis, chain)
    seeds = np.random.SeedSequence(11).spawn(count)
    runs = list(run_quantum_lsm_trials(chain, payoff, basis, 0.05, 0.1, sigma_min, seeds))
    assert len(runs) == count
    for seed, run in zip(seeds, runs):
        assert len(run.entry_reports) == entries
        single = run_quantum_lsm(chain, payoff, basis, 0.05, 0.1, sigma_min_lower=sigma_min,
                                 seed=seed)
        assert_same_run(run, single, chain.horizon)


def group_sizes(monkeypatch) -> list:
    """The seed count of each lockstep group run from here on, in order."""
    sizes = []
    lockstep_runs = lsm_quantum._Lockstep.runs

    def recorded(self, seeds):
        sizes.append(len(seeds))
        return lockstep_runs(self, seeds)

    monkeypatch.setattr(lsm_quantum._Lockstep, "runs", recorded)
    return sizes


def test_price_rows_equal_single_runs(monkeypatch):
    # 25 entries per run: five trials in lockstep groups of at most two, 2, 2
    # and 1, and then one trial per group.
    cfg = ExperimentConfig.from_json({
        "model": "brownian", "dimension": 1, "horizon": 3, "grid_size": 8,
        "grid_radius": 2.2, "payoff": {"name": "put", "strike": 1.0},
        "basis": {"kind": "hermite", "degree": 2, "cube_radius": 4.0},
        "algorithm": "both", "epsilon": 0.05, "delta": 0.1, "trials": 5, "seed": 0})
    sizes = group_sizes(monkeypatch)
    monkeypatch.setattr(lsm_quantum, "_GROUP_ENTRIES", 50)
    report = experiments.run_price(cfg)
    assert sizes == [2, 2, 1]
    chain, payoff, basis = cfg.build()
    sigma_min = oracle_sigma_min(basis, chain)
    assert [(row["trial"], row["algorithm"]) for row in report.rows] == [
        (k, algo) for k in range(5) for algo in ("classical", "quantum")]
    for seed, row in zip(np.random.SeedSequence(cfg.seed).spawn(5), report.rows[1::2]):
        single = run_quantum_lsm(chain, payoff, basis, cfg.epsilon, cfg.delta,
                                 sigma_min_lower=sigma_min, seed=seed)
        assert row["estimate"] == single.estimate
        assert row["cost_units"] == single.ledger.total_units(chain.horizon)
        assert row["grover"] == single.ledger.grover_applications
    monkeypatch.setattr(lsm_quantum, "_GROUP_ENTRIES", 1)
    del sizes[:]
    assert experiments.run_price(cfg).to_json() == report.to_json()
    assert sizes == [1] * 5

"""Per-seed byte identity of classical run reports.

The digests pin ``run_classical_lsm(...).to_json()`` for fixed instances and
seeds: estimate, sampled Gram and target entries, coefficients and the query
counts. They depend on every sampled path index, so a change that only makes
path sampling faster must leave every digest as it is. They were recorded
with numpy 2.4 on x86-64; a different numpy or BLAS build may round the
regression solves differently.

The digests were re-pinned once when the chain's normal CDF moved from
``scipy.special.ndtr`` to ``math.erfc`` and the basis log-factorials from
``gammaln`` to ``math.lgamma``: the two differ in the last bits, so the
transition entries do, and the reports' floats move by up to 5.5e-14
relative. Every sampled index and query count is unchanged;
``test_report_matches_recorded_values`` checks each field against the
reports recorded before the switch.
"""
import hashlib
import json

import numpy as np
import pytest

from qlsm.basis import hermite_basis
from qlsm.chain import discretize_brownian
from qlsm.lsm_classical import run_classical_lsm
from qlsm.payoff import PayoffSpec, put_payoff
from report_reference import assert_report_close, recorded_report

PATHS = 20_000


def basket_put(t, pts):
    return np.maximum(0.0, 1.0 - pts.mean(axis=1))


def criterion6_instance():
    """1-d Brownian chain, T=3, n=8, Hermite degree 2, put K=1."""
    return (discretize_brownian(1, 3, 8, 2.2), put_payoff(1.0),
            hermite_basis(1, 2, 3, 4.0))


def basket_instance():
    """2-d Brownian chain, T=4, n=5, Hermite degree 2, basket put."""
    return (discretize_brownian(2, 4, 5, 2.2), PayoffSpec(step_function=basket_put),
            hermite_basis(2, 2, 4, 4.0))


# Digests of the reports recorded in golden_reports_scipy.json.
RECORDED = [
    (criterion6_instance, 1, "08bf0c0824b730884ff82f3d3b15adc6ccb0407058f1dd2c65545051787be931"),
    (criterion6_instance, 2, "b5b98e6cb139ec28408298ead245b92b3879cb51f9278dab284fa75421502d6f"),
    (basket_instance, 1, "d83f47dcf2798efd802ad31196ada509bf8687bdaeb49b53205296f918b55319"),
    (basket_instance, 2, "e65213ae7df59c1feb2c18e3a542d148c75d143e185e01b59adf78948454cfda"),
]

GOLDEN = [
    (criterion6_instance, 1, "84413f72f52b7a14cfb4e332912199602ed25a57249b304d4735a3f67c140525"),
    (criterion6_instance, 2, "c68ccf4604cd36a25ec7558a3b51864b227ddb89fea2dbc4fcab8c8c0876a6fe"),
    (basket_instance, 1, "18f2094d335fb727076462445d870e8292b85b2ec384f1f4b6aecc7790002378"),
    (basket_instance, 2, "a9542ccd8c46f0deccfc2e574b12656138564c94f1e1367c8452803d146937a4"),
]


def report_json(build, seed) -> str:
    chain, payoff, basis = build()
    return run_classical_lsm(chain, payoff, basis, PATHS, seed=seed).to_json()


@pytest.mark.parametrize("build, seed, digest", GOLDEN,
                         ids=[f"{b.__name__}-seed{s}" for b, s, _ in GOLDEN])
def test_report_digest(build, seed, digest):
    assert hashlib.sha256(report_json(build, seed).encode()).hexdigest() == digest


@pytest.mark.parametrize("build, seed, digest", RECORDED,
                         ids=[f"{b.__name__}-seed{s}" for b, s, _ in RECORDED])
def test_report_matches_recorded_values(build, seed, digest):
    recorded = recorded_report(f"classical/{build.__name__}/seed{seed}", digest)
    assert_report_close(json.loads(report_json(build, seed)), recorded)

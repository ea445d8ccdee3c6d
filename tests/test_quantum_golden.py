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
"""
import hashlib
import json

import numpy as np
import pytest

from qlsm.basis import hermite_basis
from qlsm.chain import discretize_brownian
from qlsm.lsm_quantum import oracle_sigma_min, run_quantum_lsm
from qlsm.payoff import PayoffSpec, put_payoff
from report_reference import assert_report_close, recorded_report


def basket_put(t, pts):
    return np.maximum(0.0, 1.0 - pts.mean(axis=1))


def criterion6_instance():
    """1-d Brownian chain, T=3, n=8, Hermite degree 2, put K=1 (512 paths)."""
    return (discretize_brownian(1, 3, 8, 2.2), put_payoff(1.0),
            hermite_basis(1, 2, 3, 4.0))


def basket_instance():
    """2-d Brownian chain, T=3, n=3, Hermite degree 2, basket put (729 paths)."""
    return (discretize_brownian(2, 3, 3, 2.2), PayoffSpec(step_function=basket_put),
            hermite_basis(2, 2, 3, 4.0))


# Digests of the reports recorded in golden_reports_scipy.json.
RECORDED = [
    (criterion6_instance, 1, "2f1eef5cbfddcdaca40caef2350238c8c87cf531add4ceee75e7f777a03b26c2"),
    (criterion6_instance, 2, "60dd870259afb672654c3757e05d705123f5ab19153a794b8c64e8b23514f23b"),
    (basket_instance, 1, "a432b3d6345de039359ffbf7df42334df900d42353a90f546bdddd1e40eb5d9a"),
    (basket_instance, 2, "3406e90fc5d7ac3cd4350197fe0554d0d455d374828432d04a0b454dbb48b7d5"),
]

GOLDEN = [
    (criterion6_instance, 1, "6cfc4b34d375c0344f61fc12dd35a6e227e7e48c620abbb2b6f710aa15f31f2d"),
    (criterion6_instance, 2, "88a0991d5c280b881fc3dd58eb1590a5151cd6a9924ed1bf6680527f133779c9"),
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


@pytest.mark.parametrize("build, seed, digest", RECORDED,
                         ids=[f"{b.__name__}-seed{s}" for b, s, _ in RECORDED])
def test_report_matches_recorded_values(build, seed, digest):
    recorded = recorded_report(f"quantum/{build.__name__}/seed{seed}", digest)
    assert_report_close(json.loads(report_json(build, seed)), recorded)

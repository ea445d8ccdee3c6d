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

They were re-pinned a second time when the regression moved from an N x m
gather of basis rows along the paths to per-state visit counts and payoff
sums (B^T diag(counts) B / N, one triangle mirrored). The sums are the same
sums in another order, so the Gram and target entries move in the last
bits: against exact rational sums over the sampled paths the Gram entries
are off by at most 3.1e-16 of their Cauchy-Schwarz scale
sqrt(G_jj * G_kk), where the per-path products were off by up to 4.2e-15.
Stop times and estimates are unchanged. An off-diagonal entry that nearly
cancels moves by much more, relative to itself, than the entries it is
made of; so ``test_report_matches_recorded_values`` compares Gram entries
against rel * sqrt(G_jj * G_kk) and every other float against rel * |x|.
"""
import hashlib
import json

import numpy as np
import pytest

from qlsm.basis import hermite_basis
from qlsm.chain import discretize_brownian
from qlsm.lsm_classical import run_classical_lsm
from qlsm.payoff import put_payoff
from lsm_reference import run_classical_lsm_per_path, run_stop_times
from report_reference import assert_report_close, recorded_report

PATHS = 20_000
REL = 1e-12


def criterion6_instance():
    """1-d Brownian chain, T=3, n=8, Hermite degree 2, put K=1."""
    return (discretize_brownian(1, 3, 8, 2.2), put_payoff(1.0),
            hermite_basis(1, 2, 3, 4.0))


def basket_instance():
    """2-d Brownian chain, T=4, n=5, Hermite degree 2, basket put."""
    return (discretize_brownian(2, 4, 5, 2.2), put_payoff(1.0),
            hermite_basis(2, 2, 4, 4.0))


# Digests of the reports recorded in golden_reports_scipy.json.
RECORDED = [
    (criterion6_instance, 1, "08bf0c0824b730884ff82f3d3b15adc6ccb0407058f1dd2c65545051787be931"),
    (criterion6_instance, 2, "b5b98e6cb139ec28408298ead245b92b3879cb51f9278dab284fa75421502d6f"),
    (basket_instance, 1, "d83f47dcf2798efd802ad31196ada509bf8687bdaeb49b53205296f918b55319"),
    (basket_instance, 2, "e65213ae7df59c1feb2c18e3a542d148c75d143e185e01b59adf78948454cfda"),
]

GOLDEN = [
    (criterion6_instance, 1, "26dbb175072d2a784ef3e69e24ae8f3f377ff18e249a5068bdede1adf7df6f53"),
    (criterion6_instance, 2, "4a5210098d65a2989090c832fae26cc113d94fe11fe83e12360403861b92ee47"),
    (basket_instance, 1, "4ade0ad2312d859631fc65ea3cdf86bacc966cf454eeddc8de955ff62f5754dd"),
    (basket_instance, 2, "e5c4d2334fec6790e0ba0001e8e9dec4b7f68333d05fa59eeeafdda1f10dfcdb"),
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
    report = json.loads(report_json(build, seed))
    assert_report_close({k: v for k, v in report.items() if k != "gram_matrices"},
                        {k: v for k, v in recorded.items() if k != "gram_matrices"}, REL)
    assert report["gram_matrices"].keys() == recorded["gram_matrices"].keys()
    for t, old in recorded["gram_matrices"].items():
        new, old = np.array(report["gram_matrices"][t]), np.array(old)
        assert new.shape == old.shape, t
        scale = np.sqrt(np.outer(np.diag(old), np.diag(old)))
        assert (np.abs(new - old) <= REL * scale).all(), (t, new - old, scale)


@pytest.mark.parametrize("gram_mode", ["sampled", "closed_form"])
@pytest.mark.parametrize("build, seed", [(b, s) for b, s, _ in GOLDEN],
                         ids=[f"{b.__name__}-seed{s}" for b, s, _ in GOLDEN])
def test_matches_per_path_reference(build, seed, gram_mode):
    chain, payoff, basis = build()
    run = run_classical_lsm(chain, payoff, basis, PATHS, seed, gram_mode=gram_mode)
    reference = run_classical_lsm_per_path(chain, payoff, basis, PATHS, seed, gram_mode)
    np.testing.assert_array_equal(run_stop_times(run)[1], reference.stopping_times)
    assert run.estimate == reference.estimate
    assert (run.sample_draws, run.payoff_queries, run.basis_queries) == \
        (reference.sample_draws, reference.payoff_queries, reference.basis_queries)
    for gram in run.gram_matrices.values():
        np.testing.assert_array_equal(gram, gram.T)

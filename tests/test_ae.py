import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from qlsm.chain import MarkovChainSpec, enumerate_paths
from qlsm.qsim import (ControlledRotation, EstimationOperator, FunctionOracle,
                       QueryLedger, SamplingOracle, draw_ae_estimates)
from qlsm.qsim.ae import _WINDOW, _branch_windows, _phase_kernel, _sample_tail, _window
from qlsm.qsim.fixed_point import FixedPointFormat
from qlsm.reference import (ae_outcome_distribution, embed, prepare_operator,
                            statevector_ae_distribution)

import ae_reference
from ae_reference import Branch


def operator_with_amplitude(a: float) -> EstimationOperator:
    chain = MarkovChainSpec(
        dimension=1, horizon=1, initial_state=[0.0],
        grids=(np.array([[0.0], [1.0]]),),
        initial_distribution=[0.75, 0.25], transitions=())
    sampling = SamplingOracle(chain)
    fmt = FixedPointFormat(4, 20)
    values = fmt.quantize(np.array([a, a]))
    oracle = FunctionOracle(name="h", fmt=fmt, raw_values=values, query_cost={"payoff": 1})
    rot = ControlledRotation(oracle=oracle, low=0.0, high=1.0)
    return EstimationOperator(sampling=sampling, rotation=rot,
                              masses=enumerate_paths(chain).probabilities)


class TestAnalyticDistribution:
    def test_probabilities_normalized(self):
        for a in (0.0, 0.2, 0.5, 0.77, 1.0):
            _, probs, _ = ae_outcome_distribution(a, 16)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_amplitude_exact(self):
        est, probs, _ = ae_outcome_distribution(0.0, 8)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert est[0] == 0.0

    def test_unit_amplitude_exact(self):
        est, probs, _ = ae_outcome_distribution(1.0, 8)
        peak = int(np.argmax(probs))
        assert probs[peak] == pytest.approx(1.0, abs=1e-12)
        assert est[peak] == pytest.approx(1.0)

    def test_grid_amplitudes_concentrate(self):
        # theta on the estimation grid: the two symmetric outcomes carry
        # probability one half each.
        a = np.sin(np.pi * 3 / 16) ** 2
        est, probs, _ = ae_outcome_distribution(a, 16)
        assert probs[3] == pytest.approx(0.5, abs=1e-12)
        assert probs[13] == pytest.approx(0.5, abs=1e-12)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            ae_outcome_distribution(0.5, 12)

    def test_each_branch_sums_to_one(self):
        # Offsets near +-1 (phase + y/M close to 1 on the -theta branch) used
        # to cost the branch up to 6.6e-12 of its unit mass at M = 2^14.
        queries = 1 << 14
        y = np.arange(queries)
        amplitudes = np.concatenate([np.linspace(0.0, 1.0, 296), [1e-12, 1e-9, 1 - 1e-9, 1 - 1e-12]])
        for a in amplitudes:
            phase = math.asin(math.sqrt(a)) / math.pi
            for sign in (-1, 1):
                masses = kernel_branch(phase, y, queries, sign)
                assert abs(masses.sum() - 1.0) <= 1e-14, (a, sign)
                naive = _phase_kernel(phase + sign * y / queries, queries)
                np.testing.assert_allclose(masses, naive, rtol=1e-9, atol=1e-15)

    def test_law_mirror_symmetric(self):
        # The -theta branch at y is the +theta branch at M - y, bit for bit.
        for queries in (2, 16, 1 << 14):
            y = np.arange(queries)
            for a in np.linspace(0.0, 1.0, 41):
                _, probs, _ = ae_outcome_distribution(float(a), queries)
                np.testing.assert_array_equal(probs, probs[np.mod(-y, queries)])


class TestStatevectorCrossCheck:
    @pytest.mark.parametrize("amplitude", [0.0, 0.1, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("queries", [4, 8, 16])
    def test_modes_agree(self, amplitude, queries):
        _, analytic, _ = ae_outcome_distribution(amplitude, queries)
        system = np.array([np.sqrt(1 - amplitude), np.sqrt(amplitude)], dtype=complex)
        sv = statevector_ae_distribution(system, np.array([False, True]), queries)
        np.testing.assert_allclose(analytic, sv, atol=1e-9)

    def test_multi_state_system(self):
        # Good amplitude spread over several flagged components.
        system = np.sqrt(np.array([0.3, 0.2, 0.4, 0.1], dtype=complex))
        mask = np.array([False, True, False, True])
        sv = statevector_ae_distribution(system, mask, 8)
        _, analytic, _ = ae_outcome_distribution(0.3, 8)
        np.testing.assert_allclose(analytic, sv, atol=1e-9)

    def test_qubit_cap(self):
        system = np.zeros(2**10, dtype=complex)
        system[0] = 1.0
        with pytest.raises(ValueError, match="capped"):
            statevector_ae_distribution(system, np.zeros(2**10, bool), 16)

    def test_hybrid_operator_statevector_mode(self):
        # The prepared hybrid state, simulated as a dense Grover circuit, has
        # the outcome law the analytic sampler draws from.
        op = operator_with_amplitude(0.37)
        system, mask = embed(prepare_operator(op))
        sv = statevector_ae_distribution(system, mask, 8)
        _, analytic, _ = ae_outcome_distribution(op.amplitude, 8)
        np.testing.assert_allclose(analytic, sv, atol=1e-9)


class TestSamplingAndLedger:
    def test_ledger_accounting(self):
        op = operator_with_amplitude(0.5)
        for repetitions in (1, 5):
            ledger = QueryLedger()
            rng = np.random.Generator(np.random.Philox(3))
            draws = draw_ae_estimates(op, 16, repetitions, rng, ledger=ledger)
            assert draws.shape == (repetitions,)
            assert ledger.grover_applications == 16 * repetitions
            assert ledger.state_preparations == (2 * 16 + 1) * repetitions
            assert ledger.rotations == (2 * 16 + 1) * repetitions
            assert ledger.function_queries["h"] == 2 * (2 * 16 + 1) * repetitions

    def test_repeated_draws_marginal(self):
        op = operator_with_amplitude(0.25)
        rng = np.random.Generator(np.random.Philox(5))
        draws = draw_ae_estimates(op, 64, 400, rng)
        assert abs(np.median(draws) - 0.25) < 0.05

    def test_degenerate_draws_exact(self):
        rng = np.random.Generator(np.random.Philox(7))
        op = operator_with_amplitude(0.0)
        assert draw_ae_estimates(op, 8, 1, rng)[0] == 0.0
        op = operator_with_amplitude(1.0)
        assert draw_ae_estimates(op, 8, 1, rng)[0] == 1.0


def kernel_branch(phase: float, outcomes: np.ndarray, queries: int, sign: int) -> np.ndarray:
    """One Fejer branch at outcomes, evaluated as ae_outcome_distribution does:
    at phase - k/M for the k = -sign * y (mod M) nearest the peak."""
    centre = math.floor(phase * queries) - queries // 2
    k = np.mod(-sign * outcomes - centre, queries) + centre
    return _phase_kernel(phase - k / queries, queries)


def dense_branches(amplitude: float, queries: int):
    """The two unnormalized Fejer kernels ae_outcome_distribution mixes:
    the sign=-1 branch peaks at theta M / pi, the sign=+1 branch at -theta M / pi."""
    phase = math.asin(math.sqrt(amplitude)) / math.pi
    y = np.arange(queries)
    return {sign: kernel_branch(phase, y, queries, sign) for sign in (-1, 1)}


def branch_laws(amplitude: float, queries: int):
    """Each branch's window as the sampler sees it: row 0 of
    `_branch_windows` is the sign=-1 branch, row 1 the sign=+1 branch."""
    phase = math.asin(math.sqrt(amplitude)) / math.pi
    [floors], [fracs], [rows] = _branch_windows(np.array([phase]), queries)
    floors, fracs = floors.tolist(), fracs.tolist()
    offsets = _window(queries)[0]
    return {sign: Branch(floors[row], fracs[row], np.mod(floors[row] + offsets, queries),
                         rows[row, :-1], float(rows[row, -1]))
            for row, sign in enumerate((-1, 1))}


def amplitude_grid(queries: int) -> list:
    """0, 1, a few generic values, and sin^2(pi k / M) exactly and 1e-15 off."""
    grid = [0.0, 1.0, 0.3, 1e-9, 0.999]
    for k in sorted({1, 3, queries // 4, queries // 2 - 1, queries // 2}):
        on_grid = float(np.sin(np.pi * k / queries) ** 2)
        grid += [a for a in (on_grid - 1e-15, on_grid, on_grid + 1e-15) if 0.0 <= a <= 1.0]
    return grid


GRID_CASES = [(a, m) for m in (2, 8, 128, 256, 1024, 1 << 14)
              for a in amplitude_grid(m)]


def check_window_law(amplitude: float, queries: int):
    """Window masses are the dense entries, tails the dense tail masses, and
    where the window covers every outcome the mixture is the dense law."""
    dense = dense_branches(amplitude, queries)
    laws = branch_laws(amplitude, queries)
    _, probs, _ = ae_outcome_distribution(amplitude, queries)
    mixture = 0.5 * (dense[-1] + dense[1])
    np.testing.assert_array_equal(probs, mixture / mixture.sum())
    law = np.zeros(queries)
    for sign, branch in laws.items():
        assert np.unique(branch.outcomes).size == branch.outcomes.size
        assert np.max(np.abs(branch.masses - dense[sign][branch.outcomes])) <= 1e-15
        off_window = np.ones(queries, dtype=bool)
        off_window[branch.outcomes] = False
        # Each exact kernel sums to 1 up to rounding; the sampler's tail
        # (1 - window) may differ from the dense tail by that drift and no more.
        drift = abs(dense[sign].sum() - 1.0)
        assert drift <= 1e-14
        assert abs(branch.tail - dense[sign][off_window].sum()) <= 1e-12 + drift
        np.add.at(law, branch.outcomes, branch.masses)
    if queries <= 2 * _WINDOW + 1:
        assert laws[-1].tail == laws[1].tail == 0.0
        assert 0.5 * np.abs(law / law.sum() - probs).sum() < 1e-12


def pooled_chisquare_pvalue(counts: np.ndarray, probs: np.ndarray, bins: int = 50) -> float:
    """Pearson test after merging consecutive cells into ~equal-mass bins."""
    probs = probs / probs.sum()
    start = np.cumsum(probs) - probs
    ids = np.minimum((start * bins).astype(np.int64), bins - 1)
    observed = np.bincount(ids, weights=counts, minlength=bins)
    expected = np.bincount(ids, weights=probs, minlength=bins) * counts.sum()
    keep = expected > 0
    return stats.chisquare(observed[keep], expected[keep]).pvalue


class TestWindowedSampler:
    @pytest.mark.parametrize("amplitude, queries", GRID_CASES)
    def test_window_law_matches_dense(self, amplitude, queries):
        check_window_law(amplitude, queries)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(1, 14))
    def test_window_law_matches_dense_random(self, amplitude, log_queries):
        check_window_law(amplitude, 1 << log_queries)

    def test_tail_draws_follow_dense_conditional_tail(self):
        # Every grid branch whose tail the sampler can reach: 1e5 tail-only
        # draws against the dense kernel restricted off the window.
        rng = np.random.Generator(np.random.Philox(11))
        tested = 0
        for amplitude, queries in GRID_CASES:
            dense = dense_branches(amplitude, queries)
            for sign, branch in branch_laws(amplitude, queries).items():
                if branch.tail == 0.0:
                    continue
                off_window = np.ones(queries, dtype=bool)
                off_window[branch.outcomes] = False
                draws = _sample_tail(branch.floor, branch.frac, queries, 100_000, rng)
                assert off_window[draws].all()
                counts = np.bincount(draws, minlength=queries)[off_window]
                p = pooled_chisquare_pvalue(counts, dense[sign][off_window])
                assert p > 1e-3, (amplitude, queries, sign, p)
                tested += 1
        assert tested >= 20

    def test_draws_follow_dense_law(self):
        # End to end: estimates fold y and M - y together, so compare the
        # folded outcome k = min(y, M - y) with the folded dense law.
        op = operator_with_amplitude(0.3)
        queries = 1024
        draws = draw_ae_estimates(op, queries, 200_000, np.random.Generator(np.random.Philox(4)))
        folded = np.rint(np.arcsin(np.sqrt(draws)) * queries / np.pi).astype(np.int64)
        _, probs, y = ae_outcome_distribution(op.amplitude, queries)
        folded_probs = np.bincount(np.minimum(y, queries - y), weights=probs)
        counts = np.bincount(folded, minlength=folded_probs.size)
        assert pooled_chisquare_pvalue(counts, folded_probs) > 1e-3

    def test_peak_memory_flat_in_queries(self):
        # The dense law would need 32 B per outcome: 32 GB at M = 2^30.
        op = operator_with_amplitude(0.37)
        rng = np.random.Generator(np.random.Philox(6))
        op.amplitude  # computed once, outside the measurement
        for log_queries in range(10, 31, 4):
            tracemalloc.start()
            try:
                draws = draw_ae_estimates(op, 1 << log_queries, 117, rng)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert draws.shape == (117,)
            assert peak < 1 << 20, (log_queries, peak)


@st.composite
def ae_cases(draw):
    """(amplitude, M, repetitions, seed) with amplitudes 0, 1, grid points
    sin^2(pi y / M) and arbitrary values in [0, 1]."""
    queries = 1 << draw(st.integers(1, 30))
    grid = st.integers(0, queries // 2).map(lambda y: math.sin(math.pi * y / queries) ** 2)
    amplitude = draw(st.one_of(st.sampled_from([0.0, 1.0]), grid, st.floats(0.0, 1.0)))
    return amplitude, queries, draw(st.integers(1, 200)), draw(st.integers(0, 2**63 - 1))


class TestAgainstPerBranchReference:
    """The two-row window sampler against the per-branch sampler it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(ae_cases())
    # A peak half-way between outcomes: seed 11 draws land in both tails.
    @example((math.sin(math.pi * 1000.5 / 2**20) ** 2, 2**20, 200, 11))
    def test_draws_state_and_ledger_match_reference(self, case):
        amplitude, queries, repetitions, seed = case
        op = operator_with_amplitude(0.5)
        op.amplitude = amplitude  # exact, not rounded through the value table
        runs = []
        for draw in (ae_reference.draw_ae_estimates, draw_ae_estimates):
            rng = np.random.Generator(np.random.Philox(seed))
            ledger = QueryLedger()
            draws = draw(op, queries, repetitions, rng, ledger)
            runs.append((draws.view(np.int64).tolist(), repr(rng.bit_generator.state),
                         ledger.snapshot()))
        assert runs[0] == runs[1]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(1, 30))
    def test_windows_match_reference_branches(self, amplitude, log_queries):
        queries = 1 << log_queries
        phase = math.asin(math.sqrt(amplitude)) / math.pi
        for sign, branch in branch_laws(amplitude, queries).items():
            ref = ae_reference.branch_law(phase, queries, sign)
            assert (branch.floor, branch.frac) == (ref.floor, ref.frac)
            np.testing.assert_array_equal(branch.outcomes, ref.outcomes)
            assert branch.masses.view(np.int64).tolist() == ref.masses.view(np.int64).tolist()
            assert np.float64(branch.tail).view(np.int64) == np.float64(ref.tail).view(np.int64)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=64), st.integers(1, 30))
    def test_phase_kernel_matches_reference(self, deltas, log_queries):
        # Offsets at and within rounding of the grid take the on_grid rule.
        delta = np.array(deltas + [0.0, -0.0, 1.0, -1.0, 1e-15, -1e-15, 1e-300, -5e-324])
        queries = 1 << log_queries
        new = _phase_kernel(delta, queries)
        ref = ae_reference.phase_kernel(delta, queries)
        assert new.view(np.int64).tolist() == ref.view(np.int64).tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(8, 30), st.floats(0.0, 1.0, exclude_max=True), st.integers(-2**30, 2**30),
           st.integers(1, 2000), st.integers(0, 2**63 - 1))
    def test_tail_sampler_matches_reference(self, log_queries, frac, floor, count, seed):
        queries = 1 << log_queries
        runs = []
        for sample in (ae_reference.sample_tail, _sample_tail):
            rng = np.random.Generator(np.random.Philox(seed))
            runs.append((sample(floor, frac, queries, count, rng).tolist(),
                         repr(rng.bit_generator.state)))
        assert runs[0] == runs[1]

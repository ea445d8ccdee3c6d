import numpy as np
import pytest

from qlsm.chain import MarkovChainSpec, enumerate_paths
from qlsm.errors import Overflow
from qlsm.payoff import put_payoff
from qlsm.qsim import (ControlledRotation, FixedPointFormat, FunctionOracle,
                       QueryLedger, SamplingOracle)
from qlsm.qsim.oracles import law_cdf
from circuit_reference import apply_oracle, apply_rotation, prepare


def uniform_chain():
    return MarkovChainSpec(
        dimension=1, horizon=2, initial_state=[0.0],
        grids=(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])),
        initial_distribution=[0.5, 0.5],
        transitions=(np.full((2, 2), 0.5),))


def single_chain():
    return MarkovChainSpec(
        dimension=1, horizon=1, initial_state=[0.0],
        grids=(np.array([[2.0]]),), initial_distribution=[1.0], transitions=())


class TestSamplingOracle:
    def test_single_path_amplitude_one(self):
        state = prepare(SamplingOracle(single_chain()))
        np.testing.assert_allclose(state.amplitudes, [1.0])

    def test_uniform_amplitudes(self):
        state = prepare(SamplingOracle(uniform_chain()))
        np.testing.assert_allclose(np.abs(state.amplitudes), 0.5)
        state.check_normalized()

    def test_prepare_bills_one_application(self):
        ledger = QueryLedger()
        prepare(SamplingOracle(uniform_chain()), ledger)
        assert ledger.state_preparations == 1

    def test_measurement_matches_classical_sampling(self):
        # Rows of a law come up with their masses, a zero-mass row never;
        # every shot bills one preparation.
        oracle = SamplingOracle(uniform_chain())
        masses = np.array([0.1, 0.0, 0.6, 0.3])
        rng = np.random.Generator(np.random.Philox(0))
        ledger = QueryLedger()
        draws = oracle.measure(law_cdf(masses), 10_000, rng, ledger)
        freq = np.bincount(draws, minlength=4) / 10_000
        assert freq[1] == 0.0
        assert 0.5 * np.abs(freq - masses).sum() <= 0.02
        assert ledger.state_preparations == 10_000


class TestFunctionOracle:
    def test_write_then_clear(self):
        oracle_chain = SamplingOracle(uniform_chain())
        fmt = FixedPointFormat()
        values = np.array([0.25, 1.5, -0.75, 0.0])
        orc = FunctionOracle(name="h", fmt=fmt, raw_values=values, query_cost={"payoff": 1})
        state = prepare(oracle_chain)
        apply_oracle(orc, state, "reg")
        np.testing.assert_array_equal(state.register_values("reg"), values)
        apply_oracle(orc, state, "reg")
        assert not state.has_register("reg")

    def test_matches_payoff_module_bit_exact(self):
        chain = uniform_chain()
        oracle_chain = SamplingOracle(chain)
        pay = put_payoff(1.0)
        fmt = FixedPointFormat()
        per_path = pay.values(chain, 2)[enumerate_paths(oracle_chain.chain).state_indices_at(2)]
        orc = FunctionOracle(name="z", fmt=fmt, raw_values=per_path,
                             query_cost={"payoff": 1})
        state = prepare(oracle_chain)
        apply_oracle(orc, state, "z2")
        expected = fmt.quantize(pay.values(chain, 2)[enumerate_paths(oracle_chain.chain).state_indices_at(2)])
        np.testing.assert_array_equal(state.register_values("z2"), expected)

    def test_overflow_lists_points(self):
        with pytest.raises(Overflow, match="offending"):
            FunctionOracle(name="big", fmt=FixedPointFormat(8, 8),
                           raw_values=np.array([1.0, 5.0e6]))

    def test_query_billing(self):
        ledger = QueryLedger()
        orc = FunctionOracle(name="h", fmt=FixedPointFormat(), raw_values=np.zeros(4),
                             query_cost={"payoff": 1})
        state = prepare(SamplingOracle(uniform_chain()))
        apply_oracle(orc, state, "reg", ledger)
        assert ledger.function_queries["h"] == 1
        assert ledger.queries_of_kind("payoff") == 1

    def test_composite_billing_keeps_kinds_separate(self):
        from qlsm.qsim.oracles import FunctionOracle

        ledger = QueryLedger()
        orc = FunctionOracle(name="circuit", fmt=FixedPointFormat(),
                             raw_values=np.zeros(4),
                             query_cost={"payoff": 3, "basis": 5})
        orc.bill(ledger, applications=2)
        assert ledger.queries_of_kind("payoff") == 6
        assert ledger.queries_of_kind("basis") == 10


class TestControlledRotation:
    def make(self, values, low, high):
        chain = SamplingOracle(uniform_chain())
        orc = FunctionOracle(name="h", fmt=FixedPointFormat(),
                             raw_values=np.asarray(values, dtype=float),
                             query_cost={"payoff": 1})
        return chain, ControlledRotation(oracle=orc, low=low, high=high)

    def test_full_rotation_at_upper_endpoint(self):
        chain, rot = self.make([2.0, 2.0, 2.0, 2.0], 0.0, 2.0)
        state = prepare(chain)
        apply_rotation(rot, state)
        np.testing.assert_allclose(state.rotation[:, 1], 1.0)
        assert state.good_probability() == pytest.approx(1.0)

    def test_zero_value_inside_interval(self):
        chain, rot = self.make([0.0, 1.0, 0.0, 1.0], 0.0, 1.0)
        state = prepare(chain)
        apply_rotation(rot, state)
        np.testing.assert_allclose(state.rotation[0], [1.0, 0.0])
        assert state.good_probability() == pytest.approx(0.5)

    def test_outside_interval_untouched(self):
        chain, rot = self.make([3.0, 0.5, 3.0, 0.5], 0.0, 1.0)
        state = prepare(chain)
        apply_rotation(rot, state)
        np.testing.assert_allclose(state.rotation[0], [1.0, 0.0])
        np.testing.assert_allclose(state.rotation[1], [np.sqrt(0.5), np.sqrt(0.5)])

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            self.make([0.0] * 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            self.make([0.0] * 4, -1.0, 2.0)

    def test_norm_preserved(self):
        chain, rot = self.make([0.3, 0.9, 0.1, 0.7], 0.0, 1.0)
        state = prepare(chain)
        apply_rotation(rot, state)
        state.check_normalized()

    def test_billing_embeds_two_queries(self):
        chain, rot = self.make([0.5] * 4, 0.0, 1.0)
        ledger = QueryLedger()
        state = prepare(chain, ledger)
        apply_rotation(rot, state, ledger)
        assert ledger.rotations == 1
        assert ledger.function_queries["h"] == 2

    def test_exact_amplitude_matches_state(self):
        chain, rot = self.make([0.3, 0.9, 0.1, 0.7], 0.0, 1.0)
        state = prepare(chain)
        apply_rotation(rot, state)
        assert rot.good_amplitude_squared(enumerate_paths(chain.chain).probabilities) == \
            pytest.approx(state.good_probability(), abs=1e-12)


class TestLedger:
    def test_merge_and_totals(self):
        a, b = QueryLedger(), QueryLedger()
        a.add_state_preparations(2)
        a.add_function_queries("z", "payoff", 3)
        b.add_function_queries("z", "payoff", 1)
        b.add_function_queries("e", "basis", 4)
        b.add_grover(5)
        a.merge(b)
        assert a.state_preparations == 2
        assert a.function_queries["z"] == 4
        assert a.grover_applications == 5
        # horizon 3: each preparation costs 3 sampling units
        assert a.total_units(3) == 2 * 3 + 4 + 4

    def test_counts_only_grow(self):
        ledger = QueryLedger()
        with pytest.raises(ValueError):
            ledger.add_state_preparations(-1)

"""Oracle objects: chain state preparation, reversible function queries, and
interval-conditioned controlled rotations.

A function oracle holds a value table plus an optional per-path label array
that maps each path to its row; estimation then works on the table and the
row masses (the variable's law) and expands to paths only for register
writes."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..chain import DEFAULT_ENUMERATION_CAP, MarkovChainSpec, PathEnsemble, enumerate_paths
from ..errors import Overflow
from .fixed_point import FixedPointFormat
from .ledger import QueryLedger
from .state import HybridState


class StepLaw(NamedTuple):
    """The step-t marginal of a path ensemble: the grid indices that occur on
    some path, each path's row among them, and the probability of each row."""

    states: np.ndarray
    labels: np.ndarray
    masses: np.ndarray


@dataclass(eq=False)
class SamplingOracle:
    """Prepares the path superposition; one application bills one preparation
    (cost model: horizon sampling steps)."""

    chain: MarkovChainSpec
    ensemble: PathEnsemble
    _step_laws: dict = field(default_factory=dict, init=False, repr=False)

    def prepare(self, ledger: QueryLedger | None = None) -> HybridState:
        if ledger is not None:
            ledger.add_state_preparations(1)
        return HybridState.prepared(self.ensemble)

    @cached_property
    def _cdf(self) -> np.ndarray:
        cum = np.cumsum(self.ensemble.probabilities)
        return cum / cum[-1]

    def measure(self, count: int, rng: np.random.Generator,
                ledger: QueryLedger | None = None) -> np.ndarray:
        """Computational-basis samples of prepared states; one prep per shot."""
        if ledger is not None:
            ledger.add_state_preparations(count)
        draws = np.searchsorted(self._cdf, rng.random(count), side="right")
        return np.clip(draws, 0, len(self.ensemble) - 1)

    def masses(self, labels: np.ndarray | None, rows: int) -> np.ndarray:
        """Probability of each of `rows` table rows under a path labelling;
        the path probabilities themselves when labels is None."""
        probs = self.ensemble.probabilities
        if labels is None:
            return probs
        return np.bincount(labels, weights=probs, minlength=rows)

    def step_law(self, t: int) -> StepLaw:
        """The step-t marginal of the ensemble, computed once per step."""
        law = self._step_laws.get(t)
        if law is None:
            idx = self.ensemble.state_indices_at(t)
            counts = np.bincount(idx, minlength=self.chain.n_states(t))
            states = np.flatnonzero(counts)
            labels = idx if states.size == counts.size else np.searchsorted(states, idx)
            law = StepLaw(states, labels, self.masses(labels, states.size))
            self._step_laws[t] = law
        return law


def sampling_oracle(chain: MarkovChainSpec,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> SamplingOracle:
    return SamplingOracle(chain=chain, ensemble=enumerate_paths(chain, cap))


@dataclass(eq=False)
class FunctionOracle:
    """Reversible XOR-write of a per-path function value at fixed precision.

    The path with label i carries values[labels[i]]; without labels there is
    one value per path. query_cost describes what one application bills, as
    {kind: count} with kinds "payoff"/"basis" (weighted later) or an explicit
    name.
    """

    name: str
    fmt: FixedPointFormat
    raw_values: np.ndarray
    query_cost: dict = field(default_factory=dict)
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.raw_values = np.asarray(self.raw_values, dtype=float)
        bad = np.abs(self.raw_values) > self.fmt.max_value
        if np.any(bad):
            idx = np.nonzero(bad)[0][:8]
            raise Overflow(
                f"function '{self.name}' not representable at "
                f"({self.fmt.int_bits},{self.fmt.frac_bits}); offending path "
                f"indices {idx.tolist()} values {self.raw_values[idx].tolist()}"
            )
        self.values = np.asarray(self.fmt.quantize(self.raw_values))

    @cached_property
    def bits(self) -> np.ndarray:
        """Bit images of the value table; only register writes need them."""
        return self.fmt.to_bits(self.values)

    def along_paths(self, table: np.ndarray) -> np.ndarray:
        """Expand a per-row array to one entry per path."""
        return table if self.labels is None else table[self.labels]

    def at_paths(self, paths: np.ndarray) -> np.ndarray:
        """Values carried by the given path indices."""
        rows = paths if self.labels is None else self.labels[paths]
        return self.values[rows]

    def bill(self, ledger: QueryLedger | None, applications: int = 1) -> None:
        if ledger is None:
            return
        # Composite circuits bill several query kinds; keep one counter per
        # (oracle, kind) so the per-kind totals stay separable.
        for kind, count in self.query_cost.items():
            name = self.name if len(self.query_cost) == 1 else f"{self.name}/{kind}"
            ledger.add_function_queries(name, kind, count * applications)

    def apply(self, state: HybridState, register: str,
              ledger: QueryLedger | None = None) -> None:
        """XOR the value image into the register; self-inverse."""
        state.xor_register(register, self.along_paths(self.bits), self.fmt)
        self.bill(ledger)


@dataclass(eq=False)
class ControlledRotation:
    """Rotates the flag qubit by value/high for paths whose oracle value lies
    in [low, high]; leaves it at |0> otherwise. One application embeds two
    oracle queries."""

    oracle: FunctionOracle
    low: float
    high: float

    def __post_init__(self):
        fmt = self.oracle.fmt
        self.low = float(np.asarray(fmt.quantize(self.low)))
        self.high = float(np.asarray(fmt.quantize(self.high)))
        if not 0.0 <= self.low < self.high:
            raise ValueError(f"need 0 <= low < high, got [{self.low}, {self.high}]")

    def in_interval(self) -> np.ndarray:
        v = self.oracle.values
        return (v >= self.low) & (v <= self.high)

    def good_amplitude_squared(self, probabilities: np.ndarray) -> float:
        """Exact flagged weight sum p(x) * value(x)/high over the interval,
        with p the mass of each row of the oracle's value table."""
        mask = self.in_interval()
        return float(np.sum(probabilities[mask] * self.oracle.values[mask] / self.high))

    def apply(self, state: HybridState, ledger: QueryLedger | None = None) -> None:
        mask = self.in_interval()
        ratio = np.where(mask, self.oracle.values / self.high, 0.0)
        ratio = self.oracle.along_paths(np.clip(ratio, 0.0, 1.0))
        state.set_rotation(np.sqrt(1.0 - ratio), np.sqrt(ratio))
        if ledger is not None:
            ledger.add_rotations(1)
        self.oracle.bill(ledger, applications=2)

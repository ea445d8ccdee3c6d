"""Oracle objects: chain sampling, reversible function queries, and
interval-conditioned controlled rotations.

A function oracle holds a value table, one row per atom of the variable's
law; estimation works on the table and the masses of its rows, which come
from the chain (step marginals and dynamic programs on it), never from paths.
The register writes of these oracles on a prepared path state are
qlsm.reference's."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# enumerate_paths stays bound here: perfbench/spans.py traces it by this name.
from ..chain import MarkovChainSpec, enumerate_paths  # noqa: F401
from ..errors import Overflow
from .fixed_point import FixedPointFormat
from .ledger import QueryLedger


@dataclass(eq=False)
class SamplingOracle:
    """Prepares the chain's path superposition; one preparation costs horizon
    sampling steps. Estimation only measures it (qlsm.reference prepares it)."""

    chain: MarkovChainSpec

    def measure(self, cdf: np.ndarray, count: int, rng: np.random.Generator,
                ledger: QueryLedger | None = None) -> np.ndarray:
        """Rows of a law drawn from its law_cdf: computational-basis samples
        of prepared states, read through the law's oracle; one prep per shot."""
        if ledger is not None:
            ledger.add_state_preparations(count)
        draws = np.searchsorted(cdf, rng.random(count), side="right")
        return np.minimum(draws, cdf.size - 1)


def law_cdf(masses: np.ndarray) -> np.ndarray:
    """The cumulative masses of a law's rows, normalized to end at 1: what
    SamplingOracle.measure draws rows from, built once per law."""
    cum = np.cumsum(masses)
    return cum / cum[-1]


def bill_queries(ledger: QueryLedger, name: str, query_cost: dict, applications: int) -> None:
    """Bill applications of the oracle called name with costs query_cost."""
    # Composite circuits bill several query kinds; keep one counter per
    # (oracle, kind) so the per-kind totals stay separable.
    for kind, count in query_cost.items():
        key = name if len(query_cost) == 1 else f"{name}/{kind}"
        ledger.add_function_queries(key, kind, count * applications)


def overflow_error(name: str, fmt: FixedPointFormat, raw_values: np.ndarray) -> Overflow:
    """The error of a function whose raw values leave fmt's range: its name
    and its first eight offending rows."""
    idx = np.flatnonzero(~(np.abs(raw_values) <= fmt.max_value))[:8]
    return Overflow(f"function '{name}' not representable at ({fmt.int_bits},"
                    f"{fmt.frac_bits}); offending row indices {idx.tolist()} "
                    f"values {raw_values[idx].tolist()}")


@dataclass(eq=False)
class FunctionOracle:
    """Reversible XOR-write of a function value at fixed precision.

    values has one row per atom of the function's law. query_cost describes
    what one application bills, as {kind: count} with kinds "payoff"/"basis"
    (weighted later) or an explicit name.
    """

    name: str
    fmt: FixedPointFormat
    raw_values: np.ndarray
    query_cost: dict = field(default_factory=dict)

    def __post_init__(self):
        self.raw_values = np.asarray(self.raw_values, dtype=float)
        try:
            self.values = np.asarray(self.fmt.quantize(self.raw_values))
        except Overflow:
            raise overflow_error(self.name, self.fmt, self.raw_values) from None

    def bill(self, ledger: QueryLedger | None, applications: int = 1) -> None:
        if ledger is not None:
            bill_queries(ledger, self.name, self.query_cost, applications)


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
        self.low = float(fmt.quantize(self.low))
        self.high = float(fmt.quantize(self.high))
        if not 0.0 <= self.low < self.high:
            raise ValueError(f"need 0 <= low < high, got [{self.low}, {self.high}]")

    def in_interval(self) -> np.ndarray:
        v = self.oracle.values
        return (v >= self.low) & (v <= self.high)

    def good_amplitude_squared(self, probabilities: np.ndarray) -> float:
        """Exact flagged weight sum p(x) * value(x)/high over the interval,
        with p the mass of each row of the oracle's value table."""
        mask = self.in_interval()
        return float((probabilities[mask] * self.oracle.values[mask] / self.high).sum())

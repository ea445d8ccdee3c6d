"""Exact oracle-call accounting: the artifact's stand-in for runtime."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostWeights:
    """Unit costs: one chain preparation bills horizon * sample_step."""

    sample_step: float = 1.0
    payoff_query: float = 1.0
    basis_query: float = 1.0

    def of_kind(self, kind: str) -> float:
        """Unit cost of one query of kind: "payoff", "basis", else 1."""
        return {"payoff": self.payoff_query, "basis": self.basis_query}.get(kind, 1.0)


@dataclass
class QueryLedger:
    """Counts of state preparations, per-name function queries, controlled
    rotations and Grover applications; merge by summation."""

    state_preparations: int = 0
    rotations: int = 0
    grover_applications: int = 0
    function_queries: Counter = field(default_factory=Counter)
    query_kinds: dict = field(default_factory=dict)

    def add_state_preparations(self, count: int = 1) -> None:
        self._check(count)
        self.state_preparations += count

    def add_rotations(self, count: int = 1) -> None:
        self._check(count)
        self.rotations += count

    def add_grover(self, count: int = 1) -> None:
        self._check(count)
        self.grover_applications += count

    def add_function_queries(self, name: str, kind: str, count: int = 1) -> None:
        self._check(count)
        self.function_queries[name] += count
        self.query_kinds[name] = kind

    @staticmethod
    def _check(count: int) -> None:
        if count < 0:
            raise ValueError("ledger counts only grow")

    def merge(self, other: "QueryLedger") -> None:
        self.state_preparations += other.state_preparations
        self.rotations += other.rotations
        self.grover_applications += other.grover_applications
        self.function_queries.update(other.function_queries)
        self.query_kinds.update(other.query_kinds)

    def queries_of_kind(self, kind: str) -> int:
        return sum(c for n, c in self.function_queries.items()
                   if self.query_kinds.get(n) == kind)

    def total_units(self, horizon: int, weights: CostWeights = CostWeights()) -> float:
        """Weighted oracle cost; rotations and reflections are unit-free."""
        total = self.state_preparations * horizon * weights.sample_step
        for name, count in self.function_queries.items():
            total += count * weights.of_kind(self.query_kinds.get(name, ""))
        return float(total)

    def snapshot(self) -> dict:
        return {
            "state_preparations": self.state_preparations,
            "rotations": self.rotations,
            "grover_applications": self.grover_applications,
            "function_queries": dict(sorted(self.function_queries.items())),
        }

"""Hybrid simulation state: complex amplitudes over path basis states,
classically annotated ancilla registers, and one genuine rotation qubit.

Every register update is a reversible map on basis states, so registers are
kept as per-path bit images instead of explicit qubits; only the rotation
qubit (and the phase register inside amplitude estimation) are treated as
quantum."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..chain import PathEnsemble
from .fixed_point import FixedPointFormat

_NORM_TOL = 1e-10


@dataclass(eq=False)
class HybridState:
    """Superposition over the paths of one ensemble."""

    ensemble: PathEnsemble
    amplitudes: np.ndarray
    registers: dict = field(default_factory=dict)
    register_formats: dict = field(default_factory=dict)
    rotation: np.ndarray | None = None

    @classmethod
    def prepared(cls, ensemble: PathEnsemble) -> "HybridState":
        """State with amplitude sqrt(p(x)) on every path basis state."""
        amps = np.sqrt(ensemble.probabilities).astype(complex)
        return cls(ensemble=ensemble, amplitudes=amps)

    @property
    def n_basis_states(self) -> int:
        return len(self.ensemble)

    def norm_squared(self) -> float:
        total = np.abs(self.amplitudes) ** 2
        if self.rotation is not None:
            total = total * (self.rotation[:, 0] ** 2 + self.rotation[:, 1] ** 2)
        return float(total.sum())

    def check_normalized(self) -> None:
        if abs(self.norm_squared() - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm drifted to {self.norm_squared()}")

    def register_bits(self, name: str) -> np.ndarray:
        bits = self.registers.get(name)
        if bits is None:
            bits = np.zeros(self.n_basis_states, dtype=np.int64)
            self.registers[name] = bits
        return bits

    def xor_register(self, name: str, bits: np.ndarray,
                     fmt: FixedPointFormat | None = None) -> None:
        """Reversible XOR write; trims registers that return to all-zero."""
        current = self.register_bits(name)
        updated = current ^ np.asarray(bits, dtype=np.int64)
        if np.any(updated):
            self.registers[name] = updated
            self.register_formats[name] = fmt
        else:
            self.registers.pop(name, None)
            self.register_formats.pop(name, None)

    def register_values(self, name: str) -> np.ndarray:
        """Decoded register contents (floats for fixed-point registers)."""
        bits = self.register_bits(name)
        fmt = self.register_formats.get(name)
        if fmt is None:
            return bits.astype(np.int64)
        return np.asarray(fmt.from_bits(bits))

    def has_register(self, name: str) -> bool:
        return name in self.registers and bool(np.any(self.registers[name]))

    def nonzero_registers(self) -> list[str]:
        return sorted(n for n, b in self.registers.items() if np.any(b))

    def set_rotation(self, zero_amp: np.ndarray, one_amp: np.ndarray) -> None:
        self.rotation = np.column_stack([zero_amp, one_amp])

    def good_probability(self) -> float:
        """Squared weight of the rotation qubit's |1> branch."""
        if self.rotation is None:
            return 0.0
        return float(np.sum(np.abs(self.amplitudes) ** 2 * self.rotation[:, 1] ** 2))

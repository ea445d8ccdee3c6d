"""Desk-scale quantum simulation substrate: fixed-point formats, oracles,
amplitude estimation and bounded-variance mean estimation with exact query
accounting. The fixed-point register encode and decode, the path-state
register replay and the dense AE laws that this package is checked against
live in qlsm.reference."""
from .ae import EstimationOperator, draw_ae_estimates
from .fixed_point import DEFAULT_FRAC_BITS, DEFAULT_INT_BITS, FixedPointFormat
from .ledger import CostWeights, QueryLedger
from .oracles import ControlledRotation, FunctionOracle, SamplingOracle
from .qmc import (EntryBatch, EstimationReport, PieceRecord, QmcVariable,
                  median_repetitions, qmontecarlo, qmontecarlo_batch)

__all__ = [
    "EstimationOperator", "draw_ae_estimates",
    "DEFAULT_FRAC_BITS", "DEFAULT_INT_BITS", "FixedPointFormat",
    "CostWeights", "QueryLedger",
    "ControlledRotation", "FunctionOracle", "SamplingOracle",
    "EntryBatch", "EstimationReport", "PieceRecord", "QmcVariable",
    "median_repetitions", "qmontecarlo", "qmontecarlo_batch",
]

"""Desk-scale quantum simulation substrate: fixed-point registers, oracles,
amplitude estimation and bounded-variance mean estimation with exact query
accounting. The path-state register replay and the dense AE laws it is
checked against live in qlsm.reference."""
from .ae import EstimationOperator, draw_ae_estimates
from .fixed_point import DEFAULT_FRAC_BITS, DEFAULT_INT_BITS, FixedPoint, FixedPointFormat
from .ledger import CostWeights, QueryLedger
from .oracles import ControlledRotation, FunctionOracle, SamplingOracle
from .qmc import (EstimationReport, PieceRecord, QmcVariable,
                  median_repetitions, qmontecarlo, qmontecarlo_batch)

__all__ = [
    "EstimationOperator", "draw_ae_estimates",
    "DEFAULT_FRAC_BITS", "DEFAULT_INT_BITS", "FixedPoint", "FixedPointFormat",
    "CostWeights", "QueryLedger",
    "ControlledRotation", "FunctionOracle", "SamplingOracle",
    "EstimationReport", "PieceRecord", "QmcVariable",
    "median_repetitions", "qmontecarlo", "qmontecarlo_batch",
]

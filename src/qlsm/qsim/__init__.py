"""Desk-scale quantum simulation substrate: fixed-point registers, hybrid
path-superposition states, oracles, amplitude estimation and bounded-variance
mean estimation with exact query accounting."""
from .ae import (EstimationOperator, ae_outcome_distribution, draw_ae_estimates,
                 statevector_ae_distribution)
from .fixed_point import DEFAULT_FRAC_BITS, DEFAULT_INT_BITS, FixedPoint, FixedPointFormat
from .ledger import CostWeights, QueryLedger
from .oracles import ControlledRotation, FunctionOracle, SamplingOracle
from .qmc import (EstimationReport, PieceRecord, QmcVariable,
                  median_repetitions, qmontecarlo, qmontecarlo_batch)
from .state import HybridState

__all__ = [
    "EstimationOperator", "ae_outcome_distribution", "draw_ae_estimates",
    "statevector_ae_distribution",
    "DEFAULT_FRAC_BITS", "DEFAULT_INT_BITS", "FixedPoint", "FixedPointFormat",
    "CostWeights", "QueryLedger",
    "ControlledRotation", "FunctionOracle", "SamplingOracle",
    "EstimationReport", "PieceRecord", "QmcVariable",
    "median_repetitions", "qmontecarlo", "qmontecarlo_batch", "HybridState",
]

"""Desk-scale quantum simulation substrate: fixed-point registers, hybrid
path-superposition states, oracles, amplitude estimation and bounded-variance
mean estimation with exact query accounting."""
from .ae import (AEOutcome, EstimationOperator, ae_outcome_distribution,
                 amplitude_estimation, draw_ae_estimates,
                 statevector_ae_distribution)
from .fixed_point import (DEFAULT_FRAC_BITS, DEFAULT_INT_BITS, FixedPoint,
                          FixedPointFormat, decode_fixed, encode_fixed)
from .ledger import CostWeights, QueryLedger
from .oracles import (ControlledRotation, FunctionOracle, SamplingOracle,
                      function_oracle, sampling_oracle)
from .qmc import (EstimationReport, PieceRecord, QmcVariable,
                  median_repetitions, qmontecarlo)
from .state import HybridState

__all__ = [
    "AEOutcome", "EstimationOperator", "ae_outcome_distribution",
    "amplitude_estimation", "draw_ae_estimates", "statevector_ae_distribution",
    "DEFAULT_FRAC_BITS", "DEFAULT_INT_BITS", "FixedPoint", "FixedPointFormat",
    "decode_fixed", "encode_fixed", "CostWeights", "QueryLedger",
    "ControlledRotation", "FunctionOracle", "SamplingOracle",
    "function_oracle", "sampling_oracle", "EstimationReport", "PieceRecord", "QmcVariable",
    "median_repetitions", "qmontecarlo", "HybridState",
]

"""verma-lab: exact operator calculus on graded modules with fixed-point
bases, plus the verification suites that machine-check every stated
identity at desk scale."""

from .field import DivisionByZeroError, FieldElem, PoleError, VermalabError
from .laurent import ExponentQuadratic, LaurentMonomial, VPowerProduct
from .linalg import LinearSolveResult, SparseMatrix, solve_linear
from .patterns import (
    GlobalFixedPoint,
    GTPattern,
    Pattern,
    enumerate_global_fixed_points,
    enumerate_patterns,
    gt_pattern,
)
from .ring import MultiPoly, PolyRing, classical_ring, quantum_ring
from .verma import GradedOperator, VermaContext, check_gl_relations

__version__ = "0.1.0"

__all__ = [
    "DivisionByZeroError",
    "ExponentQuadratic",
    "FieldElem",
    "GTPattern",
    "GlobalFixedPoint",
    "GradedOperator",
    "LaurentMonomial",
    "LinearSolveResult",
    "MultiPoly",
    "Pattern",
    "PoleError",
    "PolyRing",
    "SparseMatrix",
    "VPowerProduct",
    "VermaContext",
    "VermalabError",
    "check_gl_relations",
    "classical_ring",
    "enumerate_global_fixed_points",
    "enumerate_patterns",
    "gt_pattern",
    "quantum_ring",
    "solve_linear",
]

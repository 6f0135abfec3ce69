"""verma-lab: exact operator calculus on graded modules with fixed-point
bases, plus the verification suites that machine-check every stated
identity at desk scale."""

from .field import DivisionByZeroError, FieldElem, PoleError, VermalabError
from .linalg import LinearSolveResult, SparseMatrix, solve_linear
from .patterns import (
    GlobalFixedPoint,
    Pattern,
    enumerate_global_fixed_points,
    enumerate_patterns,
)
from .ring import MultiPoly, PolyRing, classical_ring, quantum_ring
from .verma import GradedOperator, VermaContext, check_gl_relations

__version__ = "0.1.0"

__all__ = [
    "DivisionByZeroError",
    "FieldElem",
    "GlobalFixedPoint",
    "GradedOperator",
    "LinearSolveResult",
    "MultiPoly",
    "Pattern",
    "PoleError",
    "PolyRing",
    "SparseMatrix",
    "VermaContext",
    "VermalabError",
    "check_gl_relations",
    "classical_ring",
    "enumerate_global_fixed_points",
    "enumerate_patterns",
    "quantum_ring",
    "solve_linear",
]

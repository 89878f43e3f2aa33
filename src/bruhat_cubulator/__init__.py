"""Exact Coxeter-group computations over Bruhat intervals.

Builds Coxeter systems with exact arithmetic, enumerates Bruhat intervals
and graphs, computes R- and Kazhdan-Lusztig polynomials, searches for
cubical-lattice spanning subgraphs, and evaluates growth series.
"""

from .bruhat import BruhatInterval, bruhat_leq, interval, poincare_polynomial
from .coxeter import CoxeterSystem, Element, build_system
from .cube import CubicalLattice
from .kl import (
    CPReport,
    KLConsistencyError,
    KLTable,
    all_trivial,
    carrell_peterson_report,
    kl_polynomial,
    kl_table,
    r_polynomial,
    soergel_h,
)
from .polynomials import (
    IntPoly,
    SeriesTruncation,
    is_palindromic,
    quantum_factorizations,
    quantum_poly,
)
from .search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    Cubulation,
    SearchOutcome,
    candidate_shapes,
    cubulate,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "BruhatInterval",
    "BUDGET_EXCEEDED",
    "CPReport",
    "CoxeterSystem",
    "CubicalLattice",
    "Cubulation",
    "EXHAUSTED",
    "Element",
    "FOUND",
    "IntPoly",
    "KLConsistencyError",
    "KLTable",
    "SearchOutcome",
    "SeriesTruncation",
    "all_trivial",
    "bruhat_leq",
    "build_system",
    "candidate_shapes",
    "carrell_peterson_report",
    "cubulate",
    "interval",
    "is_palindromic",
    "kl_polynomial",
    "kl_table",
    "poincare_polynomial",
    "quantum_factorizations",
    "quantum_poly",
    "r_polynomial",
    "soergel_h",
    "verify_certificate",
]

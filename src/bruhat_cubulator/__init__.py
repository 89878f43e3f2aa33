"""Exact Coxeter-group computations over Bruhat intervals.

Builds Coxeter systems with exact arithmetic, enumerates Bruhat intervals
and graphs, computes R- and Kazhdan-Lusztig polynomials, searches for
cubical-lattice spanning subgraphs, and evaluates growth series.

Each exported name is imported from its module on first use (PEP 562),
so a program loads only the modules it reads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bruhat": ("BruhatInterval", "interval", "poincare_polynomial"),
    "coxeter": ("CoxeterSystem", "Element", "build_system"),
    "cube": ("CubicalLattice",),
    "kl": (
        "CPReport", "KLConsistencyError", "KLTable", "all_trivial", "carrell_peterson_report",
        "kl_polynomial", "kl_table", "r_polynomial", "soergel_h",
    ),
    "polynomials": (
        "IntPoly", "SeriesTruncation", "is_palindromic", "quantum_factorizations", "quantum_poly",
    ),
    "search": (
        "BUDGET_EXCEEDED", "EXHAUSTED", "FOUND", "Cubulation", "SearchOutcome",
        "candidate_shapes", "cubulate", "verify_certificate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

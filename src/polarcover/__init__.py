"""Double covers of symplectic dual polar graphs over F_q (q = 1 mod 4).

Everything here is exact: rationals, the quadratic extension Q(sqrt(q)),
finite-field arithmetic, and integer counting.  No floating-point results
are ever produced (numpy floats appear only as eigenvalue hints that are
certified exactly, and as the exact integer carrier of the two-graph
check's trace(S^3), behind an overflow guard).
"""

import importlib

# Each exported name and the module that defines it.  Modules load on first
# access (PEP 562), so the formula-only paths never import numpy.
_EXPORTS = {
    **dict.fromkeys(["QuadExt", "gauss"], "exact_algebra"),
    **dict.fromkeys(["FieldSpec", "construct_field"], "finite_field"),
    **dict.fromkeys(
        ["SymplecticSpace", "enumerate_generators"],
        "symplectic"),
    **dict.fromkeys(
        ["CoherenceTable", "coherent_split_count", "verify_two_graph"],
        "maslov"),
    "CoverGraph": "cover",
    **dict.fromkeys(
        ["SchemeInstance", "verify_scheme", "spectral_data", "krein",
         "q_poly_orderings", "q_bipartite_check"],
        "scheme_core"),
    **dict.fromkeys(
        ["l1_closed", "q_sequence", "s_family", "verify_thm71",
         "eigenmatrices_closed", "crosscheck_P"],
        "closed_form"),
    **dict.fromkeys(
        ["candidate_parameters", "check_feasibility", "verify_Lstar",
         "parse_r"],
        "feasibility"),
    **dict.fromkeys(
        ["PolarcoverError", "ResourceCapExceeded", "QNotOneModFour",
         "EigenvalueOutsideField", "RepeatedEigenvalue", "SchemeAxiomError"],
        "errors"),
}

__version__ = "0.1.0"

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Double covers of symplectic dual polar graphs over F_q (q = 1 mod 4).

Everything here is exact: rationals, the quadratic extension Q(sqrt(q)),
finite-field arithmetic, and integer counting.  No floating-point results
are ever produced (numpy floats appear only as exact integer carriers in
bulk counting, with overflow guards, and as eigenvalue hints that are
certified exactly).
"""

from .exact_algebra import (
    GaussianContext,
    Polynomial,
    QuadExt,
    gauss,
    e_poly,
)
from .finite_field import FieldSpec, FieldElement, construct_field
from .symplectic import SymplecticSpace, Subspace, Generator, enumerate_generators
from .maslov import (
    CoherenceTable,
    coherent_split_count,
    sigma_pair,
    sigma_triple,
    verify_invariance,
    verify_two_graph,
)
from .cover import CoverGraph, SignedVertex
from .scheme_core import (
    SchemeInstance,
    verify_scheme,
    spectral_data,
    krein,
    q_poly_orderings,
    q_bipartite_check,
    verify_idempotents,
)
from .closed_form import (
    l1_closed,
    q_sequence,
    s_family,
    verify_thm71,
    eigenmatrices_closed,
    crosscheck_P,
)
from .feasibility import (
    candidate_parameters,
    check_feasibility,
    verify_Lstar,
    parse_r,
)
from .errors import (
    PolarcoverError,
    ResourceCapExceeded,
    QNotOneModFour,
    EigenvalueOutsideField,
    RepeatedEigenvalue,
    SchemeAxiomError,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianContext",
    "Polynomial",
    "QuadExt",
    "gauss",
    "e_poly",
    "FieldSpec",
    "FieldElement",
    "construct_field",
    "SymplecticSpace",
    "Subspace",
    "Generator",
    "enumerate_generators",
    "CoherenceTable",
    "coherent_split_count",
    "sigma_pair",
    "sigma_triple",
    "verify_invariance",
    "verify_two_graph",
    "CoverGraph",
    "SignedVertex",
    "SchemeInstance",
    "verify_scheme",
    "spectral_data",
    "krein",
    "q_poly_orderings",
    "q_bipartite_check",
    "verify_idempotents",
    "l1_closed",
    "q_sequence",
    "s_family",
    "verify_thm71",
    "eigenmatrices_closed",
    "crosscheck_P",
    "candidate_parameters",
    "check_feasibility",
    "verify_Lstar",
    "parse_r",
    "PolarcoverError",
    "ResourceCapExceeded",
    "QNotOneModFour",
    "EigenvalueOutsideField",
    "RepeatedEigenvalue",
    "SchemeAxiomError",
]

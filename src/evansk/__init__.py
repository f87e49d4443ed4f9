"""Exact K-theory bookkeeping for higher-rank graph algebras.

Build the Evans chain complex of a k-graph from its commuting adjacency
matrices, compute integer homology exactly (from the determinants or the
one-vertex Künneth closed form where they apply, else via Smith normal
form), assemble the E2 page of the convergence spectral sequence, and
report what that page does (and does not) pin down about K-theory.
"""

from .complexes import (
    ChainComplex,
    ChainComplexError,
    build_complex,
    build_differential_direct,
    differential_product_witness,
    evans_boundary,
)
from .documents import (
    DocumentError,
    GraphDocument,
    document_from_dict,
    document_to_dict,
    dumps_document,
    dumps_documents,
    load_document,
    loads_document,
)
from .homology import TRIVIAL_GROUP, AbelianGroup, homology
from .indexsets import (
    IndexTuple,
    boundary_pattern,
    enumerate_tuples,
    format_index_tuple,
)
from .intmat import IntMatrix
from .kgraph import (
    KGraphSpec,
    SpecValidationError,
    StructuralError,
    ValidationReport,
    Violation,
    coadjacencies,
    monoid_spec,
    spec_from_matrices,
    validate,
)
from .snf import SnfResult, elementary_divisors, smith_normal_form
from .spectral import (
    Analysis,
    KTheoryVerdict,
    VerdictKind,
    k_theory_verdict,
    monoid_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "Analysis",
    "ChainComplex",
    "ChainComplexError",
    "DocumentError",
    "GraphDocument",
    "IndexTuple",
    "IntMatrix",
    "KGraphSpec",
    "KTheoryVerdict",
    "SnfResult",
    "SpecValidationError",
    "StructuralError",
    "TRIVIAL_GROUP",
    "ValidationReport",
    "VerdictKind",
    "Violation",
    "boundary_pattern",
    "build_complex",
    "build_differential_direct",
    "coadjacencies",
    "differential_product_witness",
    "document_from_dict",
    "document_to_dict",
    "dumps_document",
    "dumps_documents",
    "elementary_divisors",
    "enumerate_tuples",
    "evans_boundary",
    "format_index_tuple",
    "homology",
    "k_theory_verdict",
    "load_document",
    "loads_document",
    "monoid_closed_form",
    "monoid_spec",
    "smith_normal_form",
    "spec_from_matrices",
    "validate",
]

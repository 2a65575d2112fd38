"""Exact superderivation computations for super Virasoro and super W(2,2)
algebras: graded brackets, Leibniz defects, window annihilators, and
certificate-producing globalization of 2-local superderivations."""

from .algebra import (
    AlgebraFamily,
    BasisVector,
    Element,
    FamilyMismatchError,
    IndexNotInSectorError,
    KindNotInFamilyError,
    bracket,
    bracket_terms,
    parity_decompose,
)
from .annihilator import (
    DerivationSpace,
    GradedWindow,
    ZeroTargetError,
    annihilator_basis,
    derivation_coords,
    evaluation_matrix,
    span_contains,
)
from .derivations import (
    OUTER_TAG,
    RawLinearMap,
    SuperDerivation,
    leibniz_defect,
    outer_action,
)
from .expr import (
    ParseError,
    format_derivation,
    format_element,
    parse_derivation,
    parse_element,
)
from .lemmas import antisymmetry_sweep, jacobi_sweep, outer_derivation_defect_sweep
from .two_local import (
    ADVERSARIAL_KINDS,
    OracleAnswer,
    OracleDefectError,
    TestSet,
    TwoLocalOracle,
    anchor_pair,
    checked_query,
    globalize,
    homogeneity_check,
    make_adversarial_oracle,
    make_honest_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "ADVERSARIAL_KINDS",
    "AlgebraFamily",
    "BasisVector",
    "DerivationSpace",
    "Element",
    "FamilyMismatchError",
    "GradedWindow",
    "IndexNotInSectorError",
    "KindNotInFamilyError",
    "OUTER_TAG",
    "OracleAnswer",
    "OracleDefectError",
    "ParseError",
    "RawLinearMap",
    "SuperDerivation",
    "TestSet",
    "TwoLocalOracle",
    "ZeroTargetError",
    "anchor_pair",
    "annihilator_basis",
    "antisymmetry_sweep",
    "bracket",
    "bracket_terms",
    "checked_query",
    "derivation_coords",
    "evaluation_matrix",
    "format_derivation",
    "format_element",
    "globalize",
    "homogeneity_check",
    "jacobi_sweep",
    "leibniz_defect",
    "make_adversarial_oracle",
    "make_honest_oracle",
    "outer_action",
    "outer_derivation_defect_sweep",
    "parity_decompose",
    "parse_derivation",
    "parse_element",
    "span_contains",
]

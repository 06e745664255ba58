"""Exact Tate-Hochschild dimension computations for quantum complete intersections."""

from .exact_field import QQ, PrimeField, RationalField
from .hochschild_bar import BarWindowRequest, BudgetExceeded, hh_cohomology_dims, \
    hh_homology_dims
from .near_zero import check_exactness_claim, tate_hh0
from .codim2_complex import DeltaComplex, KScalarTable
from .qci_algebra import (
    Bimodule,
    QciAlgebra,
    codim2_algebra,
    dual_bimodule,
    exterior_algebra,
    regular_bimodule,
    truncated_polynomial_algebra,
    twisted_bimodule,
)
from .tate_engine import DimensionTable, TateRequest, cross_validate, tate_dims

__all__ = [
    "QQ",
    "PrimeField",
    "RationalField",
    "QciAlgebra",
    "Bimodule",
    "BarWindowRequest",
    "BudgetExceeded",
    "DeltaComplex",
    "DimensionTable",
    "KScalarTable",
    "TateRequest",
    "check_exactness_claim",
    "codim2_algebra",
    "cross_validate",
    "dual_bimodule",
    "exterior_algebra",
    "hh_cohomology_dims",
    "hh_homology_dims",
    "regular_bimodule",
    "tate_dims",
    "tate_hh0",
    "truncated_polynomial_algebra",
    "twisted_bimodule",
]

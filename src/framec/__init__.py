"""framec: finite frames, dual frames, and dual frame completion.

Given a frame F for F^n (an n x k matrix of full row rank, real or
complex) and prescribed dual columns H at chosen positions, the package
decides whether a dual G of F extends H and produces either the unique
completion or the full affine family of completions, by three
independent methods: a direct linear solve on the free columns, the
product-matrix parametrization G = [I A] P, and the SVD parametrization
G = U [Sigma^{-1} X] V*.
"""

from .errors import (BadShape, DimensionMismatch, FramecError, MixedField,
                     NonFinite, NotAFamily, NotAFrame, NotDualPair,
                     NotZeroColumn, ParseError, RankDeficient)
from .linalg import (Elimination, LinSolve, SvdFactors, adjoint,
                     eliminate_with_product, nullspace_basis, numerical_rank,
                     pseudoinverse, solve_min_norm, svd)
from .frames import (Certificate, CompletionOutcome, Family, Frame,
                     FrameBounds, NoCompletion, PartialDual, SolutionFamily,
                     Unique, canonical_dual, dual_residual, family_contains,
                     family_sample, frame_bounds, frame_operator,
                     is_dual_pair, is_tight, make_frame, surgery_remove)
from .direct import (Weights, complete_direct, complete_direct_scaled,
                     extend_dual_pair, solve_weights)
from .product import complete_via_product, dual_from_A
from .svdparam import DualParam, complete_via_svd, dual_from_X, dual_param
from .matio import read_matrix, write_matrix

__version__ = "0.1.0"

__all__ = [
    "BadShape", "Certificate", "CompletionOutcome", "DimensionMismatch",
    "DualParam", "Elimination", "Family", "Frame", "FrameBounds",
    "FramecError", "LinSolve", "MixedField", "NoCompletion", "NonFinite",
    "NotAFamily", "NotAFrame", "NotDualPair", "NotZeroColumn", "ParseError",
    "PartialDual", "RankDeficient", "SolutionFamily", "SvdFactors", "Unique",
    "Weights", "adjoint", "canonical_dual", "complete_direct",
    "complete_direct_scaled", "complete_via_product", "complete_via_svd",
    "dual_from_A", "dual_from_X", "dual_param", "dual_residual",
    "eliminate_with_product", "extend_dual_pair", "family_contains",
    "family_sample", "frame_bounds", "frame_operator", "is_dual_pair",
    "is_tight", "make_frame", "nullspace_basis", "numerical_rank",
    "pseudoinverse", "read_matrix", "solve_min_norm", "solve_weights",
    "surgery_remove", "svd", "write_matrix",
]

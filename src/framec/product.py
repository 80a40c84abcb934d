"""Completion through the product-matrix parametrization of duals.

Row-reducing F* with recorded operations gives an invertible P with
P @ F* = [I_n; 0], and then G is a dual of F exactly when
G = [I_n A] @ P for some n x (k-n) matrix A.  Prescribing columns of G
pins [I_n A] @ P_left, a linear condition on A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._complete import (assemble_outcome, check_partial, leading_permutation)
from .errors import BadShape, ZeroWeight
from .frames import CompletionOutcome, Frame, PartialDual
from .linalg import (Elimination, adjoint, as_matrix, eliminate_with_product,
                     numerical_rank, solve_min_norm)


@dataclass(frozen=True)
class ProductBlocks:
    """P partitioned with rows split n | k-n and columns split s | k-s."""

    P: np.ndarray
    tl: np.ndarray  # n x s
    tr: np.ndarray  # n x (k-s)
    bl: np.ndarray  # (k-n) x s
    br: np.ndarray  # (k-n) x (k-s)


def product_blocks(p, n: int, s: int) -> ProductBlocks:
    """Slice a k x k product matrix into the four completion blocks."""
    p = as_matrix(p)
    k = p.shape[0]
    if p.shape != (k, k):
        raise BadShape(f"P must be square, got {p.shape}")
    if not (0 <= n <= k and 0 <= s <= k):
        raise BadShape(f"invalid split n={n}, s={s} for k={k}")
    return ProductBlocks(P=p, tl=p[:n, :s], tr=p[:n, s:],
                         bl=p[n:, :s], br=p[n:, s:])


def dual_from_A(p, a) -> np.ndarray:
    """Realize the dual G = [I_n A] @ P."""
    p = as_matrix(p)
    k = p.shape[0]
    if p.shape != (k, k):
        raise BadShape(f"P must be square, got {p.shape}")
    a = as_matrix(a, allow_empty=True)
    n = a.shape[0]
    if n < 1 or n > k or a.shape[1] != k - n:
        raise BadShape(f"A must be n x (k-n) with k={k}, got {a.shape}")
    return p[:n, :] + a @ p[n:, :]


def _solve_product(f: Frame, pd: PartialDual, perm: np.ndarray,
                   p: np.ndarray) -> CompletionOutcome:
    n, s = f.n, pd.s
    dtype = np.result_type(f.mat.dtype, pd.H.dtype, p.dtype)
    p = p.astype(dtype)
    coef = adjoint(p[n:, :s])
    rhs = adjoint(pd.H) - adjoint(p[:n, :s])
    lin = solve_min_norm(coef, rhs, tol=f.tol)
    a = adjoint(lin.solution)
    particular_p = p[:n, :] + a @ p[n:, :]

    def lift(nh):  # W = N* P[n:, :]
        return nh @ p[n:, :]

    return assemble_outcome(f, pd, lin, coef, rhs, particular_p, perm, lift)


def complete_via_product(f: Frame, pd: PartialDual,
                         elimination: Elimination | None = None
                         ) -> CompletionOutcome:
    """Complete a partial dual via the product parametrization.

    Solves P_bl* @ A* = H* - P_tl* for the parameter block A; the
    verdict and solution set match the direct method even when
    s > k - n (the system just becomes overdetermined in A).  An
    explicit elimination can be supplied; it must row-reduce F* with
    the prescribed columns already permuted to the front.  Different
    valid P give the same outcome up to reparametrization.
    """
    check_partial(f, pd)
    perm = leading_permutation(pd, f.k)
    fp = f.mat[:, perm]
    if elimination is None:
        elimination = eliminate_with_product(adjoint(fp), tol=f.tol)
    return _solve_product(f, pd, perm, elimination.P)


def rank_zero_shortcut(f: Frame, pd: PartialDual,
                       blocks: ProductBlocks) -> CompletionOutcome | None:
    """Degenerate case P_bl = 0: the prescription cannot touch A.

    When the bottom-left block vanishes, a completion exists iff
    H = P_tl, and then every A works (dof = n(k-n)).  Returns None when
    P_bl is nonzero so callers fall through to the general solve.
    """
    check_partial(f, pd)
    if numerical_rank(blocks.bl) > 0:
        return None
    perm = leading_permutation(pd, f.k)
    return _solve_product(f, pd, perm, blocks.P)


def complete_via_product_scaled(f: Frame, pd: PartialDual,
                                w) -> CompletionOutcome:
    """Scaled variant: find the dual whose prescribed columns are h_i w_i.

    Solves [I_n A] @ P_left = H @ W_H, which requires W_H invertible,
    hence every weight nonzero.
    """
    check_partial(f, pd)
    if len(w.w) != pd.s:
        raise BadShape(f"{pd.s} prescribed columns but {len(w.w)} weights")
    if any(x == 0.0 for x in w.w):
        raise ZeroWeight("scaled product completion needs invertible W_H")
    scaled = PartialDual(pd.H * np.asarray(w.w), pd.indices)
    return complete_via_product(f, scaled)

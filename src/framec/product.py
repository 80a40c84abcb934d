"""Completion through the product-matrix parametrization of duals.

Row-reducing F* with recorded operations gives an invertible P with
P @ F* = [I_n; 0], and then G is a dual of F exactly when
G = [I_n A] @ P for some n x (k-n) matrix A.  Prescribing columns of G
pins [I_n A] @ P[:, idx], a linear condition on A.
"""

from __future__ import annotations

import numpy as np

from ._complete import assemble_outcome, check_partial
from .errors import BadShape
from .frames import CompletionOutcome, Frame, PartialDual
from .linalg import (adjoint, as_matrix, eliminate_with_product,
                     numerical_rank, solve_min_norm)


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


def complete_via_product(f: Frame, pd: PartialDual) -> CompletionOutcome:
    """Complete a partial dual via the product parametrization.

    P comes from eliminating F* in the frame's own column order, so one
    P serves every prescription.
    """
    p = eliminate_with_product(adjoint(f.mat), tol=f.tol).P
    return _complete_over_rows(f, pd, p[:f.n], p[f.n:])


def _complete_over_rows(f: Frame, pd: PartialDual, top: np.ndarray,
                        bottom: np.ndarray):
    """Solve for A and realize the duals G = top + A @ bottom.

    top and bottom are P's first n and last k - n rows, for P @ F* =
    [I_n; 0]; the prescription asks top[:, idx] + A @ bottom[:, idx] = H.
    The rows of bottom span ker F, so bottom[:, j] vanishes exactly when
    frame vector j is independent of the others, and then every dual
    shares column j.  A prescribed column of bottom within
    eps * k * cond(F) of zero is that case when F without column j has
    rank below n at numerical_rank's cutoff, the direct route's rank
    rule; it is then zeroed in a copy, as its rounding would otherwise
    count as rank of the solve.
    """
    check_partial(f, pd)
    dtype = np.result_type(f.mat.dtype, pd.H.dtype, top.dtype)
    top = top.astype(dtype, copy=False)
    bottom = bottom.astype(dtype, copy=False)
    idx = list(pd.indices)
    cols = bottom[:, idx]
    # rounding leaves at most about eps * k * cond(F) at such a column,
    # but a column of a dependent frame vector can be as small
    cutoff = np.finfo(np.float64).eps * f.k * f.sigma[0] / f.sigma[-1]
    small = ((cols * cols.conj()).real.sum(axis=0) <= cutoff ** 2).tolist()
    pinned = [i for i, tiny in enumerate(small) if tiny and
              numerical_rank(np.delete(f.mat, idx[i], axis=1)) < f.n]
    if pinned:
        cols[:, pinned] = 0
        bottom = bottom.copy()
        bottom[:, [idx[i] for i in pinned]] = 0
    coef = adjoint(cols)
    rhs = adjoint(pd.H) - adjoint(top[:, idx])
    lin = solve_min_norm(coef, rhs, tol=f.tol)
    return assemble_outcome(f, pd, lin, coef, rhs,
                            lambda xs, nh: (top + xs @ bottom, nh @ bottom))

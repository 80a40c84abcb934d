"""Completion through the product-matrix parametrization of duals.

Row-reducing F* with recorded operations gives an invertible P with
P @ F* = [I_n; 0], and then G is a dual of F exactly when
G = [I_n A] @ P for some n x (k-n) matrix A.  Prescribing columns of G
pins [I_n A] @ P_left, a linear condition on A.
"""

from __future__ import annotations

import numpy as np

from ._complete import (assemble_outcome, check_partial, leading_permutation)
from .errors import BadShape
from .frames import CompletionOutcome, Frame, PartialDual
from .linalg import (Elimination, adjoint, as_matrix, eliminate_with_product,
                     solve_min_norm)


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


def complete_via_product(f: Frame, pd: PartialDual,
                         elimination: Elimination | None = None
                         ) -> CompletionOutcome:
    """Complete a partial dual via the product parametrization.

    An explicit elimination can be supplied; it must row-reduce F* with
    the prescribed columns already permuted to the front.  Different
    valid P give the same outcome up to reparametrization.
    """
    check_partial(f, pd)
    perm = leading_permutation(pd, f.k)
    if elimination is None:
        elimination = eliminate_with_product(adjoint(f.mat[:, perm]),
                                             tol=f.tol)
    p = elimination.P
    return _complete_over_rows(f, pd, perm, p[:f.n], p[f.n:])


def _complete_over_rows(f: Frame, pd: PartialDual, perm: np.ndarray,
                        top: np.ndarray, bottom: np.ndarray):
    """Solve for A and realize the duals G = top + A @ bottom.

    top and bottom are P's first n and last k - n rows, for P @ F* =
    [I_n; 0] with the prescribed columns of F permuted to the front.
    """
    dtype = np.result_type(f.mat.dtype, pd.H.dtype, top.dtype)
    top = top.astype(dtype, copy=False)
    bottom = bottom.astype(dtype, copy=False)
    coef = adjoint(bottom[:, :pd.s])
    rhs = adjoint(pd.H) - adjoint(top[:, :pd.s])
    lin = solve_min_norm(coef, rhs, tol=f.tol)
    particular_p = top + adjoint(lin.solution) @ bottom

    def lift(nh):  # W = N* P[n:, :]
        return nh @ bottom

    return assemble_outcome(f, pd, lin, coef, rhs, particular_p, perm, lift)

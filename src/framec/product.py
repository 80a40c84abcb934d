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
    n, s = f.n, pd.s
    dtype = np.result_type(f.mat.dtype, pd.H.dtype, elimination.P.dtype)
    p = elimination.P.astype(dtype, copy=False)
    coef = adjoint(p[n:, :s])
    rhs = adjoint(pd.H) - adjoint(p[:n, :s])
    lin = solve_min_norm(coef, rhs, tol=f.tol)
    a = adjoint(lin.solution)
    particular_p = p[:n, :] + a @ p[n:, :]

    def lift(nh):  # W = N* P[n:, :]
        return nh @ p[n:, :]

    return assemble_outcome(f, pd, lin, coef, rhs, particular_p, perm, lift)

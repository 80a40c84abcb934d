"""Completion through the product-matrix parametrization of duals.

Row-reducing F* with recorded operations gives an invertible P with
P @ F* = [I_n; 0], and then G is a dual of F exactly when
G = [I_n A] @ P for some n x (k-n) matrix A.  Prescribing columns of G
pins [I_n A] @ P[:, idx], a linear condition on A.  The k - n
non-pivot columns of P are unit vectors, so a prescribed non-pivot
column fixes a column of A outright, and only the prescribed pivot
columns give equations.  This module only builds P; _complete solves
for A on that shape.
"""

from __future__ import annotations

import numpy as np

from ._complete import _complete_over_rows, check_partial
from .errors import BadShape
from .frames import CompletionOutcome, Frame, PartialDual
from .linalg import adjoint, as_matrix, eliminate_with_product
# bound here for perfbench's tracer test; this module does not call it
from .linalg import solve_min_norm  # noqa: F401


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
    P serves every prescription, and the elimination's row order tells
    its pivot columns from its unit columns.  Only the pivot columns are
    read, and the k x k P is never formed.
    """
    check_partial(f, pd)
    elim = eliminate_with_product(adjoint(f.mat), tol=f.tol)
    return _complete_over_rows(f, pd, elim.pivots[:f.n], elim.pivots[f.n:],
                               elim.order)


"""Completion through the SVD parametrization of duals.

With F = U Sigma V*, the duals of F are exactly U [Sigma^{-1} X] V* over
n x (k-n) blocks X.  That is the product parametrization [I_n A] P_svd
with P_svd = blockdiag(U Sigma^{-1}, I) V* and A = U X, whose top rows
are the canonical dual: every dual is S^{-1} F + A V*_bot (Li's form).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._complete import check_partial
from .errors import BadShape
from .frames import CompletionOutcome, Frame, PartialDual
from .linalg import SvdFactors, as_matrix, svd
from .product import _complete_over_rows


@dataclass(frozen=True)
class DualParam:
    """A dual of F in SVD coordinates: G = U [diag(sigma_inv) X] V*."""

    factors: SvdFactors
    sigma_inv: np.ndarray
    X: np.ndarray


def dual_param(f: Frame, x) -> DualParam:
    """Package X with the SVD of the frame."""
    factors = svd(f.mat)
    x = as_matrix(x, allow_empty=True)
    if x.shape != (f.n, f.k - f.n):
        raise BadShape(f"X must be {f.n} x {f.k - f.n}, got {x.shape}")
    return DualParam(factors=factors, sigma_inv=1.0 / factors.sigma, X=x)


def dual_from_X(dp: DualParam) -> np.ndarray:
    """Realize the dual G = U [Sigma^{-1} X] V*."""
    n = dp.factors.sigma.shape[0]
    k = dp.factors.vh.shape[0]
    if dp.sigma_inv.shape != (n,):
        raise BadShape(f"sigma_inv must have length {n}")
    if dp.X.shape != (n, k - n):
        raise BadShape(f"X must be {n} x {k - n}, got {dp.X.shape}")
    mg = np.hstack([np.diag(dp.sigma_inv).astype(dp.X.dtype), dp.X])
    return dp.factors.U @ mg @ dp.factors.vh


def complete_via_svd(f: Frame, pd: PartialDual) -> CompletionOutcome:
    """Complete a partial dual in SVD coordinates.

    Supplies the rows of P_svd to the product route's solve.  The
    rounding-noise rule for V*_bl = V*[n:, idx] is its only own step.
    """
    check_partial(f, pd)
    fac = svd(f.mat)
    n, vh = f.n, fac.vh
    # V*_bl is a block of a unitary factor: a norm this small is rounding
    idx = list(pd.indices)
    if np.linalg.norm(vh[n:, idx]) <= np.finfo(np.float64).eps * f.k:
        vh[n:, idx] = 0
    top = fac.U @ (vh[:n] / fac.sigma[:, None])
    return _complete_over_rows(f, pd, top, vh[n:])

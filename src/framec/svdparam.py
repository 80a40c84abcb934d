"""Completion through the SVD parametrization of duals.

With F = U Sigma V*, the duals of F are exactly G = U [Sigma^{-1} X] V*
over free n x (k-n) blocks X, and X = 0 gives the canonical dual.
Prescribed columns of G turn into the linear condition
X @ V*_bl = U* H - Sigma^{-1} V*_tl on X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._complete import (assemble_outcome, check_partial, leading_permutation)
from .errors import BadShape
from .frames import CompletionOutcome, Frame, PartialDual
from .linalg import SvdFactors, adjoint, as_matrix, solve_min_norm, svd


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

    Solves X @ V*_bl = U* H - Sigma^{-1} V*_tl by minimum-norm least
    squares (transposed so the unknown sits on the right) and realizes
    the outcome through dual_from_X.  The verdict and solution set
    agree with the direct and product methods.
    """
    check_partial(f, pd)
    perm = leading_permutation(pd, f.k)
    fp = f.mat[:, perm]
    fac = svd(fp)
    sig_inv = 1.0 / fac.sigma
    vh = fac.vh
    n, s = f.n, pd.s
    dtype = np.result_type(fp.dtype, pd.H.dtype)
    coef = adjoint(vh[n:, :s]).astype(dtype)
    # V*_bl is a block of a unitary factor: a norm this small is rounding
    if np.linalg.norm(coef) <= np.finfo(np.float64).eps * f.k:
        coef = np.zeros_like(coef)
    rhs_x = adjoint(fac.U) @ pd.H - sig_inv[:, None] * vh[:n, :s]
    lin = solve_min_norm(coef, adjoint(rhs_x), tol=f.tol)
    x = adjoint(lin.solution)
    particular_p = fac.U @ np.hstack(
        [np.diag(sig_inv).astype(dtype), x]) @ vh

    # W = N* V*[n:, :]; the factor U of each direction U e_row (x) W[i]
    # is invertible, so it leaves the span unchanged and is dropped
    def lift(nh):
        return nh @ vh[n:, :]

    return assemble_outcome(f, pd, lin, coef, adjoint(rhs_x), particular_p,
                            perm, lift)

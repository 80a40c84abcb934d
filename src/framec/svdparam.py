"""Completion through the SVD parametrization of duals.

With F = U Sigma V*, the duals of F are exactly U [Sigma^{-1} X] V* over
n x (k-n) blocks X.  That is the product parametrization [I_n A] P_svd
with P_svd = blockdiag(U Sigma^{-1}, I) V* and A = U X, whose top rows
are the canonical dual: every dual is S^{-1} F + A V*_bot (Li's form).
This module only builds P_svd's rows, from one SVD of the validated F;
_complete solves for A over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._complete import _complete_over_rows, check_partial
from .errors import BadShape
from .frames import CompletionOutcome, Frame, PartialDual
from .linalg import SvdFactors, as_matrix, svd


@dataclass(frozen=True)
class DualParam:
    """A dual of F in SVD coordinates: G = U [Sigma^{-1} X] V*."""

    factors: SvdFactors
    X: np.ndarray


def dual_param(f: Frame, x) -> DualParam:
    """Package X with the SVD of the frame."""
    factors = svd(f.mat)
    x = as_matrix(x, allow_empty=True)
    if x.shape != (f.n, f.k - f.n):
        raise BadShape(f"X must be {f.n} x {f.k - f.n}, got {x.shape}")
    return DualParam(factors=factors, X=x)


def dual_from_X(dp: DualParam) -> np.ndarray:
    """Realize the dual G = U [Sigma^{-1} X] V*."""
    n = dp.factors.sigma.shape[0]
    k = dp.factors.vh.shape[0]
    if dp.X.shape != (n, k - n):
        raise BadShape(f"X must be {n} x {k - n}, got {dp.X.shape}")
    mg = np.hstack([np.diag(1.0 / dp.factors.sigma).astype(dp.X.dtype), dp.X])
    return dp.factors.U @ mg @ dp.factors.vh


def complete_via_svd(f: Frame, pd: PartialDual) -> CompletionOutcome:
    """Complete a partial dual in SVD coordinates."""
    check_partial(f, pd)
    u, sigma, vh = np.linalg.svd(f.mat)
    top = u @ (vh[:f.n] / sigma[:, None])
    return _complete_over_rows(f, pd, top, vh[f.n:])

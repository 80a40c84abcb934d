"""Shared plumbing for the three completion methods.

Each method reduces its completion problem to one linear system
coef @ X = rhs, solved by minimum-norm least squares.  What differs is
how a solution X is realized as an n x k dual matrix and how the kernel
of coef is lifted to the direction rows W of the family.  The helpers
here validate a prescription, give the direct route (the only one that
permutes columns) its split [F_pres | F_free], classify the solve
outcome, and assemble the CompletionOutcome.
"""

from __future__ import annotations

import numpy as np

from .errors import BadShape
from .frames import (Certificate, Family, Frame, NoCompletion, PartialDual,
                     SolutionFamily, Unique)
from .linalg import LinSolve, adjoint, numerical_rank


def check_partial(f: Frame, pd: PartialDual) -> None:
    if pd.H.shape[0] != f.n:
        raise BadShape(
            f"prescribed columns have {pd.H.shape[0]} rows, frame has {f.n}")
    if pd.indices and pd.indices[-1] >= f.k:
        raise BadShape(f"position {pd.indices[-1]} out of range 0..{f.k - 1}")


def leading_permutation(pd: PartialDual, k: int) -> np.ndarray:
    """Column order that moves the prescribed positions to the front."""
    pres = set(pd.indices)
    return np.array(list(pd.indices) + [j for j in range(k) if j not in pres],
                    dtype=int)


def unpermute(gp: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Undo a column permutation: column perm[j] of the result is gp[:, j].

    np.take keeps the result C-contiguous; gp[:, idx] would not.
    """
    return np.take(gp, np.argsort(perm), axis=1)


def assemble_outcome(f: Frame, pd: PartialDual, lin: LinSolve,
                     coef: np.ndarray, rhs: np.ndarray,
                     particular: np.ndarray, lift):
    """Turn a reduced solve into a CompletionOutcome.

    particular is the candidate dual in the frame's column order (only
    meaningful when lin.consistent).  lift(nh) must map the d x m matrix
    nh = N* of conjugated kernel directions of coef to the d x k
    direction rows W in the same order; the family is then
    particular + C @ W over all n x d matrices C.
    """
    if not lin.consistent:
        # the solve's kernel already counts coef's rank at the same cutoff
        cert = Certificate(
            rank_free=coef.shape[1] - lin.nullspace.shape[1],
            rank_augmented=numerical_rank(np.hstack([coef, rhs])),
            projector_residual=lin.residual)
        return NoCompletion(certificate=cert)
    nh = adjoint(lin.nullspace)
    if nh.shape[0] == 0:
        return Unique(G=particular)
    fam = SolutionFamily(frame=f, particular=particular,
                         directions=lift(nh), prescribed=pd)
    return Family(family=fam)

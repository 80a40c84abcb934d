"""The verdict path shared by the three completion methods.

Each method reduces its completion problem to one linear system
coef @ X = rhs; assemble_outcome solves it by minimum-norm least squares
at the frame's tolerance and classifies the outcome.  A method supplies
only the system and its realize map, which turns X* and the conjugated
kernel N* of coef into the particular dual and the direction rows W of
the family, both in the frame's column order, so every family has the
one shape particular + C @ W.  The product and SVD routes supply only
the rows of their P; _complete_over_rows builds their system.  Each
route checks the prescription with check_partial before it factors F.
"""

from __future__ import annotations

import numpy as np

from .errors import BadShape
from .frames import (Certificate, Family, Frame, NoCompletion, PartialDual,
                     SolutionFamily, Unique)
from .linalg import adjoint, numerical_rank, solve_min_norm


def check_partial(f: Frame, pd: PartialDual) -> None:
    if pd.H.shape[0] != f.n:
        raise BadShape(
            f"prescribed columns have {pd.H.shape[0]} rows, frame has {f.n}")
    if pd.s > f.k:
        raise BadShape(
            f"{pd.s} prescribed columns but the frame has {f.k} vectors")
    if pd.indices and pd.indices[-1] >= f.k:
        raise BadShape(f"position {pd.indices[-1]} out of range 0..{f.k - 1}")


def unpermute(gp: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Undo a column permutation: column perm[j] of the result is gp[:, j].

    np.take keeps the result C-contiguous; gp[:, idx] would not.
    """
    return np.take(gp, np.argsort(perm), axis=1)


def assemble_outcome(f: Frame, pd: PartialDual, coef: np.ndarray,
                     rhs: np.ndarray, realize):
    """Solve coef @ X = rhs and turn the solve into a CompletionOutcome.

    realize(xs, nh) maps xs = X* of the solution and the d x m matrix
    nh = N* of conjugated kernel directions of coef to the particular
    dual and the d x k direction rows W, both in the frame's column
    order; the family is then particular + C @ W over all n x d
    matrices C.  It runs only when the system is consistent.  Only here
    is coef cast to the field of F and H: a real F with a complex H is
    solved over C.
    """
    coef = coef.astype(np.result_type(f.mat.dtype, pd.H.dtype), copy=False)
    lin = solve_min_norm(coef, rhs, tol=f.tol)
    if not lin.consistent:
        # the solve's kernel already counts coef's rank at the same cutoff
        cert = Certificate(
            rank_free=coef.shape[1] - lin.nullspace.shape[1],
            rank_augmented=numerical_rank(np.hstack([coef, rhs])),
            projector_residual=lin.residual)
        return NoCompletion(certificate=cert)
    particular, w = realize(adjoint(lin.solution), adjoint(lin.nullspace))
    if w.shape[0] == 0:
        return Unique(G=particular)
    fam = SolutionFamily(frame=f, particular=particular, directions=w,
                         prescribed=pd)
    return Family(family=fam)


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
    count as rank of the solve.  The caller has run check_partial.
    """
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
    return assemble_outcome(f, pd, adjoint(cols),
                            adjoint(pd.H) - adjoint(top[:, idx]),
                            lambda xs, nh: (top + xs @ bottom, nh @ bottom))

"""The verdict path shared by the three completion methods.

Each method reduces its completion problem to one linear system
coef @ X = rhs; assemble_outcome solves it by minimum-norm least squares
at the frame's tolerance and classifies the outcome.  A method supplies
only the system and its realize map, which turns X* and the conjugated
kernel N* of coef into the particular dual and the direction rows W of
the family, both in the frame's column order, so every family has the
one shape particular + C @ W.  Both P-routes supply only the rows of
their P, and _complete_over_rows, the one row step, builds the system:
the SVD route's dense P, or the product route's pivot columns with the
elimination's row order.  _column_realize realizes a route that writes
A's columns in its own column order: the product route, and the direct
route, which has no dense columns.  One rounding rule, _lone_columns,
serves both P-routes.  Each route checks the prescription with
check_partial before it factors F.
"""

from __future__ import annotations

import numpy as np

from .errors import BadShape
from .frames import (Certificate, Family, Frame, NoCompletion, PartialDual,
                     SolutionFamily, Unique)
from .linalg import adjoint, numerical_rank, solve_min_norm

_EPS = np.finfo(np.float64).eps


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


def _lone_columns(f: Frame, positions, cols: np.ndarray) -> list:
    """Which of cols, columns of P's bottom rows, are rounding of zero.

    cols[:, i] belongs to frame position positions[i].  The rows of P's
    bottom rows span ker F, so such a column vanishes exactly when frame
    vector j is independent of the others, and then every dual shares
    column j.  Rounding leaves at most about eps * k * cond(F) at such a
    column, but a column of a dependent frame vector can be as small; a
    column within that bound is counted only when F without column j has
    rank below n at numerical_rank's cutoff, the direct route's rank
    rule.  The caller zeroes the columns returned, as their rounding
    would otherwise count as rank of the solve.
    """
    cutoff = _EPS * f.k * f.sigma[0] / f.sigma[-1]
    small = ((cols * cols.conj()).real.sum(axis=0) <= cutoff ** 2).tolist()
    return [i for i, tiny in enumerate(small) if tiny and
            numerical_rank(np.delete(f.mat, positions[i], axis=1)) < f.n]


def _column_realize(order: np.ndarray, free, nfree: int, pinned=None,
                    h=None, top=None, bottom=None):
    """The realize map of a route that writes A's columns.

    In the column order `order`, G is [top + A @ bottom | A], or A alone
    when top is None.  A's columns pinned are h, and its columns free
    are the first nfree columns of X*, with N* on them as the direction
    rows.  One unpermute puts both back in the frame's column order.
    """
    def realize(xs, nh):
        n = xs.shape[0]
        g = np.zeros((n + nh.shape[0], order.size), dtype=xs.dtype)
        a = g if top is None else g[:, n:]
        a[:n, free] = xs[:, :nfree]
        a[n:, free] = nh[:, :nfree]
        if pinned is not None:
            a[:n, pinned] = h
        if top is not None:
            g[:, :n] = a @ bottom
            g[:n, :n] += top
        g = unpermute(g, order)
        return g[:n], g[n:]
    return realize


def _complete_over_rows(f: Frame, pd: PartialDual, top: np.ndarray,
                        bottom: np.ndarray, order: np.ndarray | None = None):
    """Solve for A and realize the duals G = [I_n A] @ P.

    top and bottom are the first n and last k - n rows of P, for
    P @ F* = [I_n; 0]; the prescription asks top[:, idx] +
    A @ bottom[:, idx] = H.  With order None they are all of P, in the
    frame's column order, and G = top + X* @ bottom.  With the
    elimination's order they are P's pivot columns P[:, order[:n]]
    only: column order[n + t] of G is column t of A, so a prescribed
    non-pivot column pins a column of A, and the prescribed pivot
    columns jp give the equations over the unpinned ("free") ones,
    A_free @ bot[free, jp] = H_p - top[:, jp] - H_np @ bot[pinned, jp];
    the minimum-norm A is the full system's.  When both kinds are
    prescribed and a column of A is free, one more unknown carries the
    full system's scale, so that a pivot column whose free part is pure
    rounding does not count as rank, and a NoCompletion certificate
    counts the full system's ranks.  A prescribed column of bottom that
    _lone_columns counts as rounding of zero is zeroed in a copy, so
    the row step writes none of its inputs.  The caller has run
    check_partial.
    """
    n, k = f.n, f.k
    rhs, npin, nfree, free, scale = pd.H, 0, k - n, slice(None), 0.0
    pinned = h_np = None
    if order is None:
        jp = positions = np.array(pd.indices, dtype=np.intp)
    else:
        # ndarray.take and compress cost a third of fancy indexing here
        place = np.argsort(order).take(pd.indices)
        at_pivot = np.less(place, n)
        jp = place.compress(at_pivot)
        positions = order.take(jp)
        npin = pd.s - jp.size
        rhs = pd.H.compress(at_pivot, axis=1)
    cols = bottom.take(jp, axis=1)
    lone = _lone_columns(f, positions, cols) if jp.size else []
    if lone:
        cols[:, lone] = 0
        bottom = bottom.copy()
        bottom[:, jp[lone]] = 0
    rhs = rhs - top.take(jp, axis=1)
    if npin:
        off_pivot = ~at_pivot
        pinned = place.compress(off_pivot) - n
        h_np = pd.H.compress(off_pivot, axis=1)
        rhs -= h_np @ cols.take(pinned, axis=0)
        free = np.ones(k - n, dtype=bool)
        free[pinned] = False
        nfree -= npin
        if jp.size and nfree:
            # the full system's largest singular value is at least 1, for
            # its unit rows, and at least the rms norm of its pivot rows
            top_sv = max(1.0, np.vdot(cols, cols).real / jp.size) ** 0.5
            scale = top_sv * max(pd.s, k - n) / (max(jp.size, nfree) + 1)
        cols = cols.compress(free, axis=0)
    coef, rhs = adjoint(cols), adjoint(rhs)
    if scale:
        # one more unknown, alone in one more equation, whose coefficient
        # puts the cutoff of the (m + 1) x (nfree + 1) solve at
        # max(s, k - n) * eps * top_sv, the full system's rule; the solve
        # sets it to zero and it is never in the kernel
        m = jp.size
        wide = np.zeros((m + 1, nfree + 1), dtype=coef.dtype)
        wide[:m, :nfree] = coef
        wide[m, nfree] = scale
        tall = np.zeros((m + 1, n), dtype=rhs.dtype)
        tall[:m] = rhs
        coef, rhs = wide, tall
    if order is None:
        def realize(xs, nh):
            return top + xs @ bottom, nh @ bottom
    else:
        realize = _column_realize(order, free, nfree, pinned, h_np, top,
                                  bottom)
    out = assemble_outcome(f, pd, coef, rhs, realize)
    # the full system has npin more unit rows, and no scale unknown
    extra = npin - (1 if scale else 0)
    if extra and isinstance(out, NoCompletion):
        cert = out.certificate
        out = NoCompletion(certificate=Certificate(
            rank_free=cert.rank_free + extra,
            rank_augmented=cert.rank_augmented + extra,
            projector_residual=cert.projector_residual))
    return out

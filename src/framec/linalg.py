"""Matrix primitives used by the completion routines.

Everything here is a thin, contract-checked layer over numpy's LAPACK
bindings.  Real input stays float64, complex input stays complex128, and
every routine rejects NaN/inf up front so the solvers never see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadShape, DimensionMismatch, NonFinite, RankDeficient

# Relative factor behind every default tolerance in the package.
DEFAULT_TOL = 1e-9


def as_matrix(a, allow_empty: bool = False) -> np.ndarray:
    """Validate and convert input to a 2-D float64 or complex128 array."""
    m = np.asarray(a)
    if m.ndim != 2:
        raise BadShape(f"expected a 2-D array, got ndim={m.ndim}")
    # dtype kinds: c complex, i/u signed/unsigned integer, f float; bool,
    # datetime, timedelta, object, bytes and str entries are refused
    kind = m.dtype.kind
    if kind == "c":
        m = m.astype(np.complex128)
    elif kind in "iuf":
        m = m.astype(np.float64)
    else:
        raise BadShape(f"expected numeric entries, got dtype={m.dtype}")
    if not allow_empty and min(m.shape) == 0:
        raise BadShape(f"matrix must be nonempty, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise NonFinite("matrix contains NaN or infinite entries")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def _checked_tol(tol: float) -> float:
    """tol itself; ValueError unless it is finite and positive."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    return tol


def default_tol(m: np.ndarray) -> float:
    """Working tolerance for a matrix: DEFAULT_TOL * max(1, ||m||_F)."""
    return DEFAULT_TOL * max(1.0, float(np.linalg.norm(m)))


@dataclass(frozen=True)
class SvdFactors:
    """Full SVD of an n x k matrix with n <= k: M = U @ sigma_matrix() @ vh."""

    U: np.ndarray      # n x n unitary
    sigma: np.ndarray  # length n, non-increasing, >= 0
    vh: np.ndarray     # k x k unitary V*, rows are right singular vectors

    def sigma_matrix(self) -> np.ndarray:
        """The n x k rectangular diagonal factor."""
        n = self.sigma.shape[0]
        k = self.vh.shape[0]
        out = np.zeros((n, k), dtype=self.U.dtype)
        out[:n, :n] = np.diag(self.sigma)
        return out

    @property
    def V(self) -> np.ndarray:
        return adjoint(self.vh)


def svd(m) -> SvdFactors:
    """Full singular value decomposition of a wide matrix (rows <= cols)."""
    m = as_matrix(m, allow_empty=True)
    n, k = m.shape
    if n > k:
        raise BadShape(f"expected rows <= cols, got {n} x {k}; transpose first")
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    return SvdFactors(U=u, sigma=s, vh=vh)


def _default_cutoff(s: np.ndarray, shape: tuple) -> float:
    """Singular values at or below this count as zero.

    max(rows, cols) * eps * sigma_max, the usual machine-precision rule,
    but never below the smallest normal float: a subnormal singular
    value has a reciprocal that overflows, so a spectrum whose largest
    value is subnormal has rank 0.
    """
    info = np.finfo(s.dtype)
    top = float(s[0]) if s.size else 0.0
    return max(max(shape) * info.eps * top, float(info.tiny))


def numerical_rank(m, tol: float | None = None) -> int:
    """Number of singular values above the cutoff.

    With tol=None the cutoff is the machine-precision rule of
    _default_cutoff; an explicit tol, which must be finite and positive
    (ValueError otherwise), is used as an absolute cutoff on the
    singular values.
    """
    m = as_matrix(m, allow_empty=True)
    s = np.linalg.svd(m, compute_uv=False) if min(m.shape) else np.zeros(0)
    cutoff = _default_cutoff(s, m.shape) if tol is None else _checked_tol(tol)
    return int(np.count_nonzero(s > cutoff))


def pseudoinverse(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with the numerical_rank cutoff."""
    m = as_matrix(m, allow_empty=True)
    if min(m.shape) == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=m.dtype)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    cutoff = _default_cutoff(s, m.shape)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return adjoint(vh) @ (inv[:, None] * adjoint(u))


def nullspace_basis(m) -> np.ndarray:
    """Orthonormal kernel basis (as columns) at numerical_rank's cutoff."""
    m = as_matrix(m, allow_empty=True)
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return np.eye(cols, dtype=m.dtype)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.count_nonzero(s > _default_cutoff(s, m.shape)))
    return adjoint(vh[rank:, :])


@dataclass(frozen=True)
class LinSolve:
    """Outcome of solving A X = C in the least-squares sense.

    solution is the minimum-Frobenius-norm least-squares solution,
    residual is ||A @ solution - C||_F, nullspace holds an orthonormal
    basis of ker(A) as columns, and consistent says whether the residual
    is small enough that A X = C actually holds.
    """

    solution: np.ndarray
    residual: float
    nullspace: np.ndarray
    consistent: bool


def solve_min_norm(a, c, tol: float | None = None) -> LinSolve:
    """Minimum-norm least-squares solution of A X = C with consistency verdict.

    The system counts as consistent when the residual is at most
    tol * max(1, ||C||_F), with tol DEFAULT_TOL unless given; a given
    tol must be finite and positive (ValueError otherwise).  A and C may
    have zero rows or columns; the empty system is consistent with
    solution zero.

    A+ A projects onto A's row space, so its trace is A's rank at the
    pseudoinverse's cutoff, up to rounding.  When that trace is within
    1/4 of A's column count the kernel is empty and no second SVD is
    taken; otherwise nullspace_basis computes it.
    """
    a = as_matrix(a, allow_empty=True)
    c = as_matrix(c, allow_empty=True)
    if a.shape[0] != c.shape[0]:
        raise DimensionMismatch(
            f"A has {a.shape[0]} rows but C has {c.shape[0]}")
    tol = DEFAULT_TOL if tol is None else _checked_tol(tol)
    pinv = pseudoinverse(a)
    solution = pinv @ c
    residual = float(np.linalg.norm(a @ solution - c))
    consistent = residual <= tol * max(1.0, float(np.linalg.norm(c)))
    cols = a.shape[1]
    if abs(np.einsum("ij,ji->", pinv, a).real - cols) < 0.25:
        kernel = np.zeros((cols, 0), dtype=a.dtype)
    else:
        kernel = nullspace_basis(a)
    return LinSolve(solution=solution, residual=residual,
                    nullspace=kernel, consistent=consistent)


@dataclass(frozen=True)
class Elimination:
    """Invertible P with P @ Fstar = [I_n; 0], plus the achieved residual.

    order is the elimination's row order, when it is known: order[:n]
    are the pivot positions in pivot order, and column order[n + t] of P
    is the unit vector e_(n+t), so the row step reads only P's pivot
    columns.  A P built some other way has order None, and the row step
    reads all of it, in the frame's column order.
    """

    P: np.ndarray
    residual: float
    order: np.ndarray | None = None


def eliminate_with_product(fstar, tol: float | None = None) -> Elimination:
    """Row-reduce a tall full-column-rank matrix, accumulating the row ops.

    Gauss-Jordan with partial pivoting on the k x n input (k >= n) builds
    an invertible k x k matrix P with P @ fstar = [I_n; 0].  Only the n
    columns of P that belong to the pivot rows ever change; the other
    k - n columns stay a permuted identity.  So the loop runs on the
    k x 2n block [fstar | Q], where Q holds P's n pivot columns and a
    length-k row order records the swaps, and P is filled in once at the
    end.  Each pivot clears its column with one rank-1 update of that
    block, which applies to every entry of Q the same floating-point
    operations that updating all k columns of P would, so P comes out
    the same.  The order is returned with P: P[:, order[:n]] are its
    pivot columns, and column order[n + t] is exactly e_(n+t), so a
    caller can use that shape without scanning P.  P is not unique
    otherwise; callers must only rely on the residual contract.

    fstar must have numerical rank n at tol, which must be finite and
    positive (ValueError otherwise).  The pivots settle that without an
    SVD: P[:n] is a left inverse of fstar up to the residual, so
    sigma_min(fstar) >= (1 - residual) / ||P[:n]||_F, and a bound above
    2 * tol proves the rank.  numerical_rank is taken, once, only when a
    pivot is at most tol or the bound does not clear 2 * tol.  A pivot
    at most tol is used when the rank is n; an exactly zero one raises
    RankDeficient all the same, as does a P that is not finite.
    """
    fstar = as_matrix(fstar)
    k, n = fstar.shape
    if k < n:
        raise BadShape(f"expected rows >= cols, got {k} x {n}")
    tol = default_tol(fstar) if tol is None else _checked_tol(tol)
    aug = np.zeros((k, 2 * n), dtype=fstar.dtype)
    aug[:, :n] = fstar
    order = np.arange(k)
    rank_checked = False
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = abs(aug[piv, col])
        if pivot <= tol and not rank_checked:
            _require_rank(fstar, tol)
            rank_checked = True
        if pivot == 0:
            raise RankDeficient(f"no usable pivot in column {col}")
        if piv != col:
            row = aug[col].copy()
            aug[col] = aug[piv]
            aug[piv] = row
            order[col], order[piv] = order[piv], order[col]
        # P's identity entry for the original row now at position col
        aug[col, n + col] = 1
        aug[col] *= 1.0 / aug[col, col]
        factors = aug[:, col].copy()
        factors[col] = 0
        aug -= factors[:, None] * aug[col]
    p = np.zeros((k, k), dtype=fstar.dtype)
    p[:, order[:n]] = aug[:, n:]
    p[np.arange(n, k), order[n:]] = 1
    target = np.zeros((k, n), dtype=fstar.dtype)
    target[:n, :n] = np.eye(n)
    residual = float(np.linalg.norm(p @ fstar - target))
    if not math.isfinite(residual):
        raise RankDeficient("P has entries beyond the float range")
    if not (rank_checked
            or 1.0 - residual > 2.0 * tol * float(np.linalg.norm(p[:n]))):
        _require_rank(fstar, tol)
    return Elimination(P=p, residual=residual, order=order)


def _require_rank(fstar: np.ndarray, tol: float) -> None:
    """Raise RankDeficient unless the k x n fstar has numerical rank n."""
    n = fstar.shape[1]
    if numerical_rank(fstar, tol) < n:
        raise RankDeficient(f"matrix has numerical rank < {n}")

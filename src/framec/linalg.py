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
    """SVD of an m x k matrix M, of any shape: M = U @ sigma_matrix() @ vh.

    The full SVD has U m x m and vh k x k.  The thin one that
    np.linalg.svd(M, full_matrices=False) gives, U m x p and vh p x k for
    p = min(m, k), describes the same M, and for m >= k its vh is the
    full V*.  pseudoinverse reads A+ off either; nullspace_basis needs a
    square vh.  SvdFactors(*np.linalg.svd(M, ...)) builds it from the
    plain tuple numpy before 2.0 returns and from the SVDResult after.
    """

    U: np.ndarray      # m x m unitary; m x p when thin
    sigma: np.ndarray  # length p = min(m, k), non-increasing, >= 0
    vh: np.ndarray     # k x k unitary V*, rows right singular vectors;
                       # p x k when thin

    @property
    def shape(self) -> tuple:
        """(m, k), the shape of M."""
        return self.U.shape[0], self.vh.shape[1]

    def sigma_matrix(self) -> np.ndarray:
        """The rectangular diagonal factor, U's columns x vh's rows."""
        p = self.sigma.shape[0]
        out = np.zeros((self.U.shape[1], self.vh.shape[0]),
                       dtype=self.U.dtype)
        out[:p, :p] = np.diag(self.sigma)
        return out

    @property
    def V(self) -> np.ndarray:
        return adjoint(self.vh)


def svd(m) -> SvdFactors:
    """Full singular value decomposition of a wide matrix (rows <= cols).

    V* is the thin SVD's rows and the rows below them, as _kernel_rows
    takes them; a wide matrix (_is_wide) has its rows below written once
    into the one k x k array that V* needs.
    """
    m = as_matrix(m, allow_empty=True)
    n, k = m.shape
    if n > k:
        raise BadShape(f"expected rows <= cols, got {n} x {k}; transpose first")
    u, s, top, rest = _kernel_rows(m)
    vh = np.empty((k, k), dtype=top.dtype)
    vh[:n] = top
    rest.dense(out=vh[n:])
    return SvdFactors(u, s, vh)


def _is_wide(rows: int, cols: int) -> bool:
    """Whether the kernel rows of a rows x cols matrix are built by WY.

    LAPACK forms the full V* of a wide matrix by Householder updates of
    a cols x cols array, next to fresh cols x cols copies, and a fresh
    array of 128 KiB or more (a real one from 128 columns) is returned
    to the system when freed and page-faults again when next touched.
    The wide path takes the thin SVD and holds the rows that complete it
    in compact-WY form (KernelRows.complement), with no cols x cols
    array.  Timed on each route with this line forced both ways, one
    BLAS thread, best of 15 calls: from 128 columns at 4 or more columns
    per row WY makes the direct and SVD routes 1.9-3.0x faster at
    8 x 128 and 1.2-8x from 200 columns, and the product route, which
    factors no F, 0.94-2.1x; LAPACK is faster below 128 columns on real
    matrices (up to 1.2x at 2 x 112) and at 2 columns per row (up to
    1.35x at 64 x 128).
    """
    return cols >= 128 and cols >= 4 * rows


class KernelRows:
    """p x q orthonormal rows R, such as the conjugated kernel of a matrix.

    Dense, R is held as the array itself, such as the rows V*[r:] of a
    full SVD.  In compact-WY form (Schreiber & Van Loan, SIAM J. Sci.
    Stat. Comput. 10(1), 1989), R completes m orthonormal rows vh to a
    q x q unitary: the QR factorization vh* = Q R' has Q = I - Y T Y*,
    Y unit lower trapezoidal q x m and T upper triangular m x m; R' is
    diagonal, so Q[:, :m] spans vh's rows, and R = Q[:, m:]* =
    E* + B Y*, with E = I[:, m:] and B = -Y[m:] T*.  Then each product
    below costs O(q m) per row of its answer, and the only p x q array
    is the answer.  m = 0 gives the identity.
    """

    __slots__ = ("_rows", "_b", "_yh")

    def __init__(self, rows: np.ndarray | None, b=None, yh=None):
        self._rows, self._b, self._yh = rows, b, yh

    @classmethod
    def complement(cls, vh: np.ndarray) -> KernelRows:
        """The rows that complete vh's orthonormal rows, in WY form."""
        m, q = vh.shape
        if m == 0:
            return cls(None, np.zeros((q, 0), vh.dtype),
                       np.zeros((0, q), vh.dtype))
        h, tau = np.linalg.qr(adjoint(vh), mode="raw")
        # h is LAPACK's q x m factor transposed: its strict lower part
        # holds the Householder vectors, whose leading 1 is implicit
        y = np.tril(h.T, -1)
        y[np.arange(m), np.arange(m)] = 1
        yh = np.ascontiguousarray(adjoint(y))
        # T^-1 = diag(1/tau) + striu(Y* Y), solved in a form that needs
        # no 1/tau: LAPACK's tau is 0 for a reflector it leaves out
        unit = np.eye(m, dtype=h.dtype) + tau[:, None] * np.triu(yh @ y, 1)
        t = np.linalg.solve(unit, np.diag(tau))
        return cls(None, -(y[m:] @ adjoint(t)), yh)

    @property
    def shape(self) -> tuple:
        if self._rows is not None:
            return self._rows.shape
        m, q = self._yh.shape
        return q - m, q

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """R as one array, written to out when it is given."""
        if self._rows is not None:
            if out is None:
                return self._rows
            out[...] = self._rows
            return out
        m = self._yh.shape[0]
        out = np.matmul(self._b, self._yh, out=out)
        diag = np.arange(out.shape[0])
        out[diag, diag + m] += 1
        return out

    def columns(self, idx) -> np.ndarray:
        """R[:, idx] for integer positions idx."""
        if self._rows is not None:
            return self._rows.take(idx, axis=1)
        m = self._yh.shape[0]
        out = self._b @ self._yh.take(idx, axis=1)
        below = np.greater_equal(idx, m).nonzero()[0]
        out[np.take(idx, below) - m, below] += 1
        return out

    def left(self, x) -> np.ndarray:
        """x @ R, for an array x or for rows x held as KernelRows."""
        if isinstance(x, KernelRows):
            if x._rows is None:
                return self._left_wy(x)
            x = x._rows
        if self._rows is not None:
            return x @ self._rows
        m = self._yh.shape[0]
        out = (x @ self._b) @ self._yh
        out[:, m:] += x
        return out

    def _left_wy(self, x: KernelRows) -> np.ndarray:
        """x @ R for x = Ex* + Bx Yx* in WY form, with no p x q temporary.

        x @ R = R[mx:] + Bx (Yx* R), and R[mx:] is itself E*[mx:] +
        B[mx:] Y* when R is in WY form, so one GEMM writes the answer.
        """
        mx = x._yh.shape[0]
        if self._rows is not None:
            out = x._b @ (x._yh @ self._rows)
            out += self._rows[mx:]
            return out
        m = self._yh.shape[0]
        out = np.hstack([self._b[mx:], x._b]) @ np.vstack(
            [self._yh, self.left(x._yh)])
        diag = np.arange(out.shape[0])
        out[diag, diag + m + mx] += 1
        return out

    def right(self, y: np.ndarray) -> np.ndarray:
        """R[:, :c] @ y, for y with c <= q rows."""
        c = y.shape[0]
        if self._rows is not None:
            return self._rows[:, :c] @ y
        m = self._yh.shape[0]
        out = self._b @ (self._yh[:, :c] @ y)
        if c > m:
            out[:c - m] += y[m:]
        return out

    def placed(self, at: np.ndarray, k: int) -> np.ndarray:
        """The p x k array whose column at[j] is R[:, j], zero elsewhere.

        at holds distinct positions, c <= q of them; columns of R from c
        on are left out.
        """
        c = at.size
        if self._rows is not None:
            out = np.zeros((self._rows.shape[0], k), dtype=self._rows.dtype)
            out[:, at] = self._rows[:, :c]
            return out
        m = self._yh.shape[0]
        yh = np.zeros((m, k), dtype=self._yh.dtype)
        yh[:, at] = self._yh[:, :c]
        out = self._b @ yh
        diag = np.arange(max(c - m, 0))
        out[diag, at[m:c]] += 1
        return out


def _kernel_rows(m: np.ndarray) -> tuple:
    """U, sigma and the top n rows of V* for an n x k matrix m, n <= k,
    and the rows V2* below them as KernelRows.

    Below _is_wide they come from LAPACK's full SVD, V2* dense; above
    it from the thin SVD, V2* the WY complement of its rows.  When m has
    full row rank n, V2* spans its conjugated kernel.
    """
    n, k = m.shape
    if _is_wide(n, k):
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        return u, s, vh, KernelRows.complement(vh)
    u, s, vh = np.linalg.svd(m)
    return u, s, vh[:n], KernelRows(vh[n:])


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


def _svd_full_v(m: np.ndarray) -> SvdFactors:
    """The SVD of a nonempty m with the full V*, and no more of U.

    With rows >= cols the thin SVD already has the full V*; the columns
    of U that the full SVD adds serve neither A+ nor ker A.
    """
    return SvdFactors(*np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1]))


def _rank(fac: SvdFactors) -> int:
    """Number of singular values above _default_cutoff."""
    return int(np.count_nonzero(fac.sigma > _default_cutoff(fac.sigma,
                                                            fac.shape)))


def _factor(a: np.ndarray) -> tuple:
    """One SVD of a: the factors that A+ is read off, and ker A's rows.

    The rows are KernelRows: dense, read off the full V* by
    nullspace_basis, or for a wide a (_is_wide) the WY complement of the
    thin SVD's rows above the cutoff.  A matrix with no rows or no
    columns takes no SVD; its kernel is the identity, in WY form when a
    is wide.
    """
    rows, cols = a.shape
    wide = _is_wide(rows, cols)
    if not (rows and cols):
        if wide:
            return a, KernelRows.complement(np.zeros((0, cols), a.dtype))
        return a, KernelRows(np.eye(cols, dtype=a.dtype))
    if not wide:
        fac = _svd_full_v(a)
        return fac, KernelRows(adjoint(nullspace_basis(fac)))
    fac = SvdFactors(*np.linalg.svd(a, full_matrices=False))
    return fac, KernelRows.complement(fac.vh[:_rank(fac)])


def pseudoinverse(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse at numerical_rank's cutoff.

    m is a matrix, whose thin SVD is taken here, or the SvdFactors, full
    or thin, of one: A+ = V1 Sigma1^-1 U1* is read off them with no SVD
    of its own.  A matrix with no rows or no columns takes no SVD.
    """
    if not isinstance(m, SvdFactors):
        m = as_matrix(m, allow_empty=True)
        if min(m.shape) == 0:
            return np.zeros((m.shape[1], m.shape[0]), dtype=m.dtype)
        m = SvdFactors(*np.linalg.svd(m, full_matrices=False))
    s = m.sigma
    p = s.shape[0]
    cutoff = _default_cutoff(s, m.shape)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return adjoint(m.vh[:p]) @ (inv[:, None] * adjoint(m.U[:, :p]))


def nullspace_basis(m) -> np.ndarray:
    """Orthonormal kernel basis V2 (as columns) at numerical_rank's cutoff.

    m is a matrix, whose kernel is taken as solve_min_norm takes it
    (_factor), or SvdFactors of one with the full V*, off which the
    kernel is read with no SVD of its own; thin factors whose vh is not
    square raise BadShape.  A matrix with no rows or no columns takes no
    SVD.
    """
    if not isinstance(m, SvdFactors):
        return adjoint(_factor(as_matrix(m, allow_empty=True))[1].dense())
    if m.vh.shape[0] != m.vh.shape[1]:
        raise BadShape(f"the kernel needs a full SVD; vh is {m.vh.shape}")
    return adjoint(m.vh[_rank(m):, :])


@dataclass(frozen=True)
class LinSolve:
    """Outcome of solving A X = C in the least-squares sense.

    solution is the minimum-Frobenius-norm least-squares solution,
    residual is ||A @ solution - C||_F, kernel holds the conjugated
    orthonormal basis N* of ker(A) as KernelRows, and consistent says
    whether the residual is small enough that A X = C actually holds.
    nullspace is the same basis N as the columns of one array.
    """

    solution: np.ndarray
    residual: float
    kernel: KernelRows
    consistent: bool

    @property
    def nullspace(self) -> np.ndarray:
        return adjoint(self.kernel.dense())


def solve_min_norm(a, c, tol: float | None = None) -> LinSolve:
    """Minimum-norm least-squares solution of A X = C with consistency verdict.

    The system counts as consistent when the residual is at most
    tol * max(1, ||C||_F), with tol DEFAULT_TOL unless given; a given
    tol must be finite and positive (ValueError otherwise).  A and C may
    have zero rows or columns; the empty system is consistent with
    solution zero.

    One SVD A = U Sigma V* gives both A+ = V1 Sigma1^-1 U1* and
    ker A = span V2, so it is taken once (_factor) and pseudoinverse
    and the kernel read their answers off it; a system with no rows or
    no columns takes no SVD.  A and C are put into C order first, so the
    answer's bits do not depend on how the caller stored them.
    """
    a = np.ascontiguousarray(as_matrix(a, allow_empty=True))
    c = np.ascontiguousarray(as_matrix(c, allow_empty=True))
    if a.shape[0] != c.shape[0]:
        raise DimensionMismatch(
            f"A has {a.shape[0]} rows but C has {c.shape[0]}")
    tol = DEFAULT_TOL if tol is None else _checked_tol(tol)
    factors, kernel = _factor(a)
    solution = pseudoinverse(factors) @ c
    residual = float(np.linalg.norm(a @ solution - c))
    consistent = residual <= tol * max(1.0, float(np.linalg.norm(c)))
    return LinSolve(solution=solution, residual=residual, kernel=kernel,
                    consistent=consistent)


class Elimination:
    """Invertible P with P @ Fstar = [I_n; 0], plus the achieved residual.

    order is the elimination's row order, when it is known: order[:n]
    are the pivot positions in pivot order, and column order[n + t] of P
    is the unit vector e_(n+t), so the row step reads only P's pivot
    columns.  eliminate_with_product keeps just those, pivots =
    P[:, order[:n]], with the order, and P is formed from them the first
    time it is read.  A P built some other way, Elimination(P, residual),
    has order None, and the row step reads all of it.
    """

    __slots__ = ("_p", "residual", "order", "pivots")

    def __init__(self, P, residual: float, order=None, pivots=None):
        self._p, self.residual = P, residual
        self.order, self.pivots = order, pivots

    @property
    def P(self) -> np.ndarray:
        if self._p is None:
            k, n = self.pivots.shape
            p = np.zeros((k, k), dtype=self.pivots.dtype)
            p[:, self.order[:n]] = self.pivots
            p[np.arange(n, k), self.order[n:]] = 1
            self._p = p
        return self._p


def eliminate_with_product(fstar, tol: float | None = None) -> Elimination:
    """Row-reduce a tall full-column-rank matrix, accumulating the row ops.

    Gauss-Jordan with partial pivoting on the k x n input (k >= n) builds
    an invertible k x k matrix P with P @ fstar = [I_n; 0].  Only the n
    columns of P that belong to the pivot rows ever change; the other
    k - n columns stay a permuted identity.  So the loop runs on the
    k x 2n block [fstar | Q], where Q holds P's n pivot columns and a
    length-k row order records the swaps.  Each pivot clears its column
    with one rank-1 update of that block, which applies to every entry
    of Q the same floating-point operations that updating all k columns
    of P would, so P comes out the same.  Q and the order are returned,
    and P is formed from them only when it is read: P[:, order[:n]] = Q,
    and column order[n + t] is exactly e_(n+t).  The residual
    ||P fstar - [I_n; 0]||_F is taken from Q in O(k n^2).  P is not
    unique otherwise; callers must only rely on the residual contract.

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
    pivots = aug[:, n:].copy()
    # P @ fstar is pivots @ fstar[order[:n]], plus row order[n + t] of
    # fstar in row n + t from P's unit columns
    defect = pivots @ fstar.take(order[:n], axis=0)
    defect[n:] += fstar.take(order[n:], axis=0)
    diag = np.arange(n)
    defect[diag, diag] -= 1
    residual = float(np.linalg.norm(defect))
    if not math.isfinite(residual):
        raise RankDeficient("P has entries beyond the float range")
    # P's top rows are zero off the pivot columns
    if not (rank_checked or 1.0 - residual
            > 2.0 * tol * float(np.linalg.norm(pivots[:n]))):
        _require_rank(fstar, tol)
    return Elimination(None, residual, order, pivots)


def _require_rank(fstar: np.ndarray, tol: float) -> None:
    """Raise RankDeficient unless the k x n fstar has numerical rank n."""
    n = fstar.shape[1]
    if numerical_rank(fstar, tol) < n:
        raise RankDeficient(f"matrix has numerical rank < {n}")

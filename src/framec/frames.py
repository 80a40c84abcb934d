"""Frames, duals, partial duals, and completion outcome types.

A frame for F^n is an n x k matrix (k >= n) of full row rank.  A dual of
F is any G with F G* = I_n.  Completion problems prescribe some columns
of G and ask for the rest; results are reported as one of three arms:
NoCompletion (with a rank certificate), Unique, or Family (an affine
family of duals: particular + C @ W over all n x d coefficient matrices C,
for a d x k matrix W of direction rows).
"""

from __future__ import annotations

import cmath
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import BadShape, NonFinite, NotAFrame, NotDualPair, NotZeroColumn
from .linalg import _checked_tol, adjoint, as_matrix, default_tol


@dataclass(frozen=True)
class Frame:
    """Validated frame matrix with its working tolerance and spectrum.

    Construct through make_frame, which checks the rank condition.
    """

    mat: np.ndarray
    n: int
    k: int
    tol: float
    sigma: np.ndarray  # the n singular values of mat, non-increasing


@dataclass(frozen=True)
class FrameBounds:
    lower: float  # smallest squared singular value
    upper: float  # largest squared singular value


def _positions(values, k: float = np.inf) -> tuple:
    """Distinct integer positions in [0, k); floats raise, not truncate."""
    try:
        out = tuple(operator.index(v) for v in values)
    except TypeError:
        raise BadShape(f"positions must be integers: {values!r}") from None
    if len(set(out)) != len(out):
        raise BadShape("positions must be distinct")
    if any(p < 0 or p >= k for p in out):
        raise BadShape(f"positions must lie in [0, {k})")
    return out


@dataclass(frozen=True)
class PartialDual:
    """Prescribed dual columns H at the given 0-based positions.

    indices=None means the leading positions 0..s-1.  Construction sorts
    the positions (reordering the columns of H to match), so downstream
    code can rely on strictly increasing indices.  s = 0 (H with zero
    columns) states an unconstrained problem.
    """

    H: np.ndarray
    indices: tuple = field(default=None)

    def __post_init__(self):
        h = as_matrix(self.H, allow_empty=True)
        if h.shape[0] < 1:
            raise BadShape("prescribed columns need at least one row")
        s = h.shape[1]
        idx = self.indices
        if idx is None:
            idx = tuple(range(s))
        idx = _positions(idx)
        if len(idx) != s:
            raise BadShape(f"{s} prescribed columns but {len(idx)} indices")
        order = sorted(range(s), key=lambda j: idx[j])
        object.__setattr__(self, "H", h[:, order])
        object.__setattr__(self, "indices", tuple(idx[j] for j in order))

    @property
    def s(self) -> int:
        return self.H.shape[1]

    def scaled(self, w) -> PartialDual:
        """The same positions with column i of H multiplied by w[i].

        A zero weight prescribes a zero column.
        """
        w = np.asarray(w)
        if w.shape != (self.s,):
            raise BadShape(f"{self.s} prescribed columns but weights of "
                           f"shape {w.shape}")
        return PartialDual(self.H * w, self.indices)


@dataclass(frozen=True)
class Certificate:
    """Rank evidence for a NoCompletion verdict.

    rank_free is the rank of the reduced system's coefficient matrix,
    rank_augmented the rank after adjoining the right-hand side; the
    verdict rests on rank_free < rank_augmented, witnessed numerically
    by the projector residual.
    """

    rank_free: int
    rank_augmented: int
    projector_residual: float


class FamilyBasis(Sequence):
    """The n * d basis matrices of a family, each built when it is read.

    Element i * n + row is the n x k matrix whose only nonzero row is
    row `row`, equal to direction W[i].  Nothing is cached: reading
    every element builds n * d dense matrices, so use the directions
    themselves where possible.
    """

    __slots__ = ("_w", "_n")

    def __init__(self, directions: np.ndarray, n: int):
        self._w = directions
        self._n = n

    def __len__(self) -> int:
        return self._n * self._w.shape[0]

    def __getitem__(self, j):
        j = operator.index(j)
        if j < 0:
            j += len(self)
        if not 0 <= j < len(self):
            raise IndexError(f"basis index out of range 0..{len(self) - 1}")
        i, row = divmod(j, self._n)
        b = np.zeros((self._n, self._w.shape[1]), dtype=self._w.dtype)
        b[row] = self._w[i]
        return b


@dataclass(frozen=True)
class SolutionFamily:
    """Affine family of completions: particular + C @ directions.

    C ranges over all n x d coefficient matrices and directions is the
    d x k matrix W of direction rows, so every member is a dual of frame
    that matches the prescribed columns and dof = n * d.  basis is the
    same family spelled out as n * d matrices (see FamilyBasis), in the
    order family_sample's coefficient vector uses.
    """

    frame: Frame
    particular: np.ndarray
    directions: np.ndarray
    prescribed: PartialDual

    @property
    def dof(self) -> int:
        return self.frame.n * self.directions.shape[0]

    @property
    def basis(self) -> FamilyBasis:
        return FamilyBasis(self.directions, self.frame.n)


@dataclass(frozen=True)
class NoCompletion:
    certificate: Certificate


@dataclass(frozen=True)
class Unique:
    G: np.ndarray


@dataclass(frozen=True)
class Family:
    family: SolutionFamily


CompletionOutcome = NoCompletion | Unique | Family


def make_frame(m, tol: float | None = None) -> Frame:
    """Validate m as a frame matrix; attach a tolerance and its spectrum.

    Default tolerance is 1e-9 * max(1, ||m||_F).  Raises ValueError for
    a tol that is not finite and positive, and NotAFrame, carrying the
    rank measured at the tolerance, when k < n or the rows are dependent.
    """
    m = as_matrix(m)
    n, k = m.shape
    tol = default_tol(m) if tol is None else _checked_tol(tol)
    sigma = np.linalg.svd(m, compute_uv=False)
    if k < n or sigma[n - 1] <= tol:
        why = (f"need at least {n} columns, got {k}" if k < n
               else f"matrix has numerical rank < {n} at tol {tol:g}")
        raise NotAFrame(why, rank=int(np.count_nonzero(sigma > tol)))
    return Frame(mat=m, n=n, k=k, tol=float(tol), sigma=sigma)


def frame_bounds(f: Frame) -> FrameBounds:
    """Optimal frame bounds: the extreme squared singular values."""
    return FrameBounds(lower=float(f.sigma[f.n - 1] ** 2),
                       upper=float(f.sigma[0] ** 2))


def is_tight(f: Frame) -> bool:
    """Whether the frame bounds coincide up to relative slack 1e-9."""
    b = frame_bounds(f)
    return b.upper - b.lower <= 1e-9 * b.upper


def frame_operator(f: Frame) -> np.ndarray:
    """S = F F*, Hermitian positive definite."""
    return f.mat @ adjoint(f.mat)


def canonical_dual(f: Frame) -> np.ndarray:
    """The minimum-Frobenius-norm dual S^{-1} F.

    With the thin SVD F = U Sigma V1* that is U Sigma^{-1} V1*; solving
    with S = F F* instead would square the condition number of F.
    """
    u, sigma, vh = np.linalg.svd(f.mat, full_matrices=False)
    return u @ (vh / sigma[:, None])


def _as_dual(f: Frame, g) -> np.ndarray:
    """g validated as an n x k matrix for the frame f."""
    g = as_matrix(g)
    if g.shape != (f.n, f.k):
        raise BadShape(f"dual must be {f.n} x {f.k}, got {g.shape}")
    return g


def _defect(f: Frame, g: np.ndarray) -> float:
    """||F G* - I||_F for a g that _as_dual has validated."""
    return float(np.linalg.norm(f.mat @ adjoint(g) - np.eye(f.n)))


def dual_residual(f: Frame, g) -> float:
    """||F G* - I||_F, the defect of G as a dual of F."""
    return _defect(f, _as_dual(f, g))


def is_dual_pair(f: Frame, g, tol: float | None = None) -> bool:
    """Whether F G* = I within tol (default f.tol).

    The one-sided check suffices: (F G*)* = G F*, so F G* = I forces
    G F* = I as well.  Raises ValueError for a tol that is not finite
    and positive.
    """
    tol = f.tol if tol is None else _checked_tol(tol)
    return dual_residual(f, g) <= tol


# dtypes whose products with float64 or complex128 numpy returns as those
_PLAIN = frozenset(map(np.dtype, "?" + np.typecodes["AllInteger"] + "efdFD"))


def family_sample(fam: SolutionFamily, coefficients) -> np.ndarray:
    """Member of the family at the given coefficient vector.

    Coefficient i * n + row multiplies basis element i * n + row, so the
    member is particular + C @ directions with C[row, i] taken from it.
    The member is float64 or complex128.  Raises BadShape for a wrong
    length or for entries that are not integer, float or complex numbers
    (a Fraction, a long double), and NonFinite for NaN or infinite ones,
    for integers beyond the float range, and for a member with entries
    beyond it (checked when the squared norm of c overflows: a smaller c
    cannot take a route's family there).  numpy
    may warn of an invalid value when a complex entry is infinite, and
    of an overflow when the squared norm of c or the member overflows.
    """
    n = fam.frame.n
    w = fam.directions
    c = np.ascontiguousarray(coefficients)
    if c.dtype not in _PLAIN:
        # integers beyond int64 come as Python objects, floats with them
        if c.dtype != object or not all(
                isinstance(x, (int, float)) for x in c.flat):
            raise BadShape("coefficients must be integer, float or complex "
                           f"numbers, got dtype={c.dtype}")
        try:
            c = c.astype(np.float64)
        except OverflowError:
            raise NonFinite("coefficients lie beyond the float range"
                            ) from None
    if c.shape != (n * w.shape[0],):
        raise BadShape(f"expected {n * w.shape[0]} coefficients, "
                       f"got shape {c.shape}")
    # c . c is NaN or inf when an entry is, and costs far less than
    # np.isfinite(c).all(), which decides only when c . c overflows
    large = not cmath.isfinite(c.dot(c))
    if large and not np.isfinite(c).all():
        raise NonFinite("coefficients contain NaN or infinite entries")
    member = fam.particular + c.reshape(-1, n).T.dot(w)
    # unless c . c overflowed, every entry of c is below about 1e154, and
    # an entry of C @ W below 1e154 * sqrt(n d) times a column norm of W:
    # at most 1 for the direct and SVD routes' orthonormal W, moderate for
    # the product route's.  Only such a large c can push a route's
    # member beyond the float range.
    if large and not np.isfinite(member).all():
        raise NonFinite("the member has entries beyond the float range")
    return member


def family_contains(fam: SolutionFamily, g, tol: float | None = None) -> bool:
    """Whether g belongs to the family.

    Checks the dual equation and the prescribed columns within tol
    (default the frame's; ValueError unless finite and positive), and
    that every row of D = g - particular lies in the row span of the
    directions W.  When W has orthonormal rows, as the direct and SVD
    routes build it, that is the projection residual ||D - (D W*) W||,
    O(n k d) work.  Any other W, such as the product route's, is solved
    by least squares with the cutoff of the equivalent nk x nd system.
    """
    f = fam.frame
    g = _as_dual(f, g)
    tol = f.tol if tol is None else _checked_tol(tol)
    if _defect(f, g) > tol:
        return False
    pd = fam.prescribed
    if pd.s:
        want = pd.H
        got = g[:, list(pd.indices)]
        if np.linalg.norm(got - want) > tol * max(1.0, np.linalg.norm(want)):
            return False
    diff = g - fam.particular
    if not fam.dof:
        return float(np.linalg.norm(diff)) <= tol * max(1.0, float(np.linalg.norm(fam.particular)))
    w = fam.directions
    wh = adjoint(w)
    d = w.shape[0]
    rcond = np.finfo(np.float64).eps * f.n * f.k
    # far below any threshold the residual is compared with, so the two
    # paths can only disagree on a g within a hair of it
    slack = rcond * d
    # the squared row norms, O(d k), turn away the product route's W
    # before the O(d^2 k) test of W W* = I
    squares = np.einsum("ij,ij->i", w, wh.T)
    if (np.abs(squares - 1).max() <= slack
            and np.linalg.norm(w @ wh - np.eye(d)) <= slack):
        resid = float(np.linalg.norm(diff - (diff @ wh) @ w))
    else:
        wt = w.T
        coef, *_ = np.linalg.lstsq(wt, diff.T, rcond=rcond)
        resid = float(np.linalg.norm(wt @ coef - diff.T))
    return resid <= tol * max(1.0, float(np.linalg.norm(diff)))


def surgery_remove(f: Frame, g, positions) -> tuple[Frame, np.ndarray]:
    """Delete frame vectors whose dual partners are zero.

    positions lists 0-based columns; each listed column of g must be
    numerically zero (NotZeroColumn otherwise), and the remaining
    columns of f must still span (NotAFrame otherwise).  Returns the
    reduced (frame, dual) pair, dual to each other within f.tol
    (NotDualPair otherwise, as when g is no dual of f).
    """
    g = _as_dual(f, g)
    positions = _positions(positions, f.k)
    for p in positions:
        if np.linalg.norm(g[:, p]) > f.tol:
            raise NotZeroColumn(f"dual column {p} is not numerically zero")
    keep = np.delete(np.arange(f.k), positions)
    reduced, g = make_frame(f.mat[:, keep], tol=f.tol), g[:, keep]
    if not is_dual_pair(reduced, g):
        raise NotDualPair("the reduced pair is not dual within tol")
    return reduced, g

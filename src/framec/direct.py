"""Completion by solving F G* = I directly on the free columns.

Splitting G into prescribed columns H and unknown columns G_free turns
the dual equation into F_free @ G_free* = I - F_pres @ H*.  Solvability
is a column-span condition on the right-hand side; the minimum-norm
solution gives the particular dual and ker(F_free) parametrizes the
rest of the family: each kernel direction, conjugated, is a direction
row of the family on the free columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._complete import (assemble_outcome, check_partial, leading_permutation,
                        unpermute)
from .errors import BadShape, MixedField, NotDualPair
from .frames import (CompletionOutcome, Frame, PartialDual, dual_residual,
                     make_frame)
from .linalg import adjoint, as_matrix, pseudoinverse, solve_min_norm


@dataclass(frozen=True)
class Weights:
    """Diagonal scaling w_1..w_s applied to the prescribed columns.

    Weights are real even for complex frames: a weight with a nonzero
    imaginary part raises MixedField.  A zero weight prescribes a zero
    column.
    """

    w: tuple

    def __post_init__(self):
        w = tuple(complex(x) for x in self.w)
        if any(x.imag for x in w):
            raise MixedField("weights must be real")
        object.__setattr__(self, "w", tuple(x.real for x in w))


def extend_dual_pair(f0: Frame, g0, f1) -> CompletionOutcome:
    """All duals of [F0 F1] that keep the prescribed block G0.

    Requires (F0, G0) to be a dual pair.  This is the direct completion
    of [F0 F1] with G0 prescribed at the leading positions: the
    extensions are [G0 G1] with F1 @ G1* = I - F0 @ G0*, so the
    directions span the kernel of F1 and independent columns of F1 give
    a unique extension.  The particular dual is exactly [G0 0] when
    F0 @ G0* = I holds exactly, and within rounding of it otherwise.
    """
    g0 = as_matrix(g0)
    if dual_residual(f0, g0) > f0.tol:
        raise NotDualPair("F0 G0* deviates from the identity beyond tol")
    f1 = as_matrix(f1, allow_empty=True)
    if f1.shape[0] != f0.n:
        raise BadShape(f"F1 has {f1.shape[0]} rows, expected {f0.n}")
    return complete_direct(make_frame(np.hstack([f0.mat, f1])),
                           PartialDual(g0, tuple(range(f0.k))))


def complete_direct(f: Frame, pd: PartialDual) -> CompletionOutcome:
    """Complete a partial dual by the free-column linear system.

    Prescribed positions are permuted to the front, the system
    F_free @ G_free* = I - F_pres @ H* is solved by minimum-norm least
    squares, and the outcome is classified by consistency and by the
    kernel of F_free.  s = 0 reproduces the canonical dual as the
    particular member.
    """
    check_partial(f, pd)
    perm = leading_permutation(pd, f.k)
    fp = f.mat[:, perm]
    s = pd.s
    dtype = np.result_type(f.mat.dtype, pd.H.dtype)
    f_pres = fp[:, :s]
    f_free = fp[:, s:].astype(dtype)
    rhs = np.eye(f.n, dtype=dtype) - f_pres @ adjoint(pd.H)
    lin = solve_min_norm(f_free, rhs, tol=f.tol)
    particular = unpermute(
        np.hstack([pd.H.astype(dtype), adjoint(lin.solution)]), perm)

    def lift(nh):  # W = [0 | N*], back in the frame's column order
        zeros = np.zeros((nh.shape[0], s), dtype=nh.dtype)
        return unpermute(np.hstack([zeros, nh]), perm)

    return assemble_outcome(f, pd, lin, f_free, rhs, particular, lift)


def complete_direct_scaled(f: Frame, pd: PartialDual,
                           w: Weights) -> CompletionOutcome:
    """Complete after rescaling the prescribed columns by diag(w).

    The outcome's prescribed columns are h_i * w_i; with all-ones
    weights this is exactly complete_direct.
    """
    return complete_direct(f, pd.scaled(w.w))


def solve_weights(f: Frame, pd: PartialDual) -> Weights | None:
    """Real weights making the scaled completion problem solvable.

    The solvability condition asks the columns of I - sum w_i f_i h_i*
    to lie in the span of the free frame columns; projecting onto the
    orthogonal complement of that span makes the condition linear in w,
    so one real least-squares solve finds the best weights.  Returns
    None when even the optimal weights leave a residual above f.tol.
    """
    check_partial(f, pd)
    perm = leading_permutation(pd, f.k)
    fp = f.mat[:, perm]
    s = pd.s
    f_free = fp[:, s:]
    proj = np.eye(f.n) - f_free @ pseudoinverse(f_free)
    target = proj.ravel()
    cols = [(proj @ np.outer(fp[:, i], pd.H[:, i].conj())).ravel()
            for i in range(s)]
    m = np.column_stack(cols) if cols else np.zeros((target.size, 0))
    if np.iscomplexobj(m) or np.iscomplexobj(target):
        m = np.vstack([m.real, m.imag])
        target = np.concatenate([target.real, target.imag])
    lin = solve_min_norm(m, target.reshape(-1, 1), tol=f.tol)
    if not lin.consistent:
        return None
    return Weights(tuple(lin.solution.ravel()))

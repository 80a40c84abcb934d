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

from ._complete import _column_realize, assemble_outcome, check_partial
from .errors import BadShape, MixedField, NotDualPair
from .frames import (CompletionOutcome, Frame, PartialDual, is_dual_pair,
                     make_frame)
from .linalg import adjoint, as_matrix, pseudoinverse, solve_min_norm


def _column_order(f: Frame, pd: PartialDual) -> np.ndarray:
    """Check pd; the positions, prescribed then free, each in frame order."""
    check_partial(f, pd)
    free = np.ones(f.k, dtype=bool)
    free[list(pd.indices)] = False
    # np.delete or np.flatnonzero cost the direct route 6-10% on small
    # problems; a stable sort of the mask puts the prescribed first
    return np.argsort(free, kind="stable")


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
    if not is_dual_pair(f0, g0):
        raise NotDualPair("F0 G0* deviates from the identity beyond tol")
    f1 = as_matrix(f1, allow_empty=True)
    if f1.shape[0] != f0.n:
        raise BadShape(f"F1 has {f1.shape[0]} rows, expected {f0.n}")
    return complete_direct(make_frame(np.hstack([f0.mat, f1])),
                           PartialDual(g0, tuple(range(f0.k))))


def complete_direct(f: Frame, pd: PartialDual) -> CompletionOutcome:
    """Complete a partial dual by the free-column linear system.

    The system F_free @ G_free* = I - F_pres @ H* on the free columns is
    solved by minimum-norm least squares, and the outcome is classified
    by consistency and by the kernel of F_free.  F_pres and F_free are
    read off F by index, in F's dtype and with no permuted copy of F;
    realize builds the particular [H X*] in [prescribed | free] column
    order, one unpermute puts it back in the frame's, and the direction
    rows N* go straight to the free columns.  s = 0 reproduces the
    canonical dual as the particular member.
    """
    order, s = _column_order(f, pd), pd.s
    rhs = np.eye(f.n) - f.mat[:, order[:s]] @ adjoint(pd.H)
    realize = _column_realize(order, np.argsort(order), slice(s, None),
                              f.k - s, slice(0, s), pd.H)
    return assemble_outcome(f, pd, f.mat[:, order[s:]], rhs, realize)


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
    order, s = _column_order(f, pd), pd.s
    f_free = f.mat[:, order[s:]]
    proj = np.eye(f.n) - f_free @ pseudoinverse(f_free)
    target = proj.ravel()
    # column i is vec(P f_i h_i*), f_i the frame column at position i
    outers = f.mat[:, order[:s]].T[:, :, None] * pd.H.conj().T[:, None, :]
    m = (proj @ outers).reshape(s, target.size).T
    if np.iscomplexobj(m) or np.iscomplexobj(target):
        m = np.vstack([m.real, m.imag])
        target = np.concatenate([target.real, target.imag])
    lin = solve_min_norm(m, target.reshape(-1, 1), tol=f.tol)
    if not lin.consistent:
        return None
    return Weights(tuple(lin.solution.ravel()))

"""Shared generators and oracles for the test suite."""

from fractions import Fraction

import numpy as np

import framec as fc

ROUTES = (fc.complete_direct, fc.complete_via_product, fc.complete_via_svd)

# The paper's worked examples.  Prescribed at positions (0, 1), H_TRIPLE
# has the unique completion G_TRIPLE and H_STUCK has none (the last two
# columns of F_COLLINEAR are collinear); H_WIDE at positions (0, 1, 2)
# leaves a two-parameter family.
F_SPARSE = np.array([[1.0, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0]])
H_TRIPLE = np.array([[2.0, 0], [1, 1], [3, 0]])
G_TRIPLE = np.array([[2.0, 0, 0, -0.5], [1, 1, 0, -0.5], [3, 0, 1, -1.5]])

F_COLLINEAR = np.array([[1.0, 0, -1, -2], [0, 1, -2, -4]])
H_STUCK = np.array([[1.0, 3], [2, 4]])

F_WIDE = np.array([[1.0, 0, -1, -2, 1], [0, 1, 0, 4, -2]])
H_WIDE = np.array([[1.0, 2, 1], [3, 4, 4.5]])

F_HADAMARD = np.array([[1.0, 1, 1, 0], [1, -1, 0, 1]])
H_HADAMARD = np.array([[0.5, 0.5], [0.5, -0.5]])

F_1234 = np.array([[1.0, 2, 3, 4], [4, 3, 2, 1]])


def random_frame(rng, n=None, k=None, complex_field=False, n_max=4, k_max=8):
    """Random frame with entries uniform in [-2, 2] (per component)."""
    if n is None:
        n = int(rng.integers(2, n_max + 1))
    if k is None:
        k = int(rng.integers(n + 1, k_max + 1))
    while True:
        m = rng.uniform(-2.0, 2.0, (n, k))
        if complex_field:
            m = m + 1j * rng.uniform(-2.0, 2.0, (n, k))
        if np.linalg.matrix_rank(m) == n:
            return fc.make_frame(m)


def _gauss(rng, shape, complex_field):
    m = rng.standard_normal(shape)
    return m + 1j * rng.standard_normal(shape) if complex_field else m


def _conditioned_factors(rng, n, k, cond, complex_field):
    """U (n x n unitary), sigma from 1 down to 1/cond, V* (n x k)."""
    u = np.linalg.qr(_gauss(rng, (n, n), complex_field))[0]
    v = np.linalg.qr(_gauss(rng, (k, n), complex_field))[0]
    return u, np.geomspace(1.0, 1.0 / cond, n), v.conj().T


def conditioned_frame(rng, n, k, cond, complex_field=False):
    """Frame F = U diag(sigma) V* with condition number cond.

    U is a random n x n unitary and V* a random n x k matrix with
    orthonormal rows; sigma is spread geometrically from 1 down to
    1/cond, so sigma_max = 1 and sigma_min = 1/cond.
    """
    u, sigma, vh = _conditioned_factors(rng, n, k, cond, complex_field)
    return fc.make_frame(u @ (sigma[:, None] * vh))


def conditioned_instance(rng, n, k, s, cond, verdict, complex_field=False):
    """A problem on a frame like conditioned_frame's, with a known verdict.

    H is s columns, at random positions, of the dual
    G = U diag(1/sigma) V* + Z (I - V V*), Z random.  So the verdict is
    "family" for s < k - n and "unique" for s >= k - n.  For "none",
    which needs s > k - n, H is moved by a random E with ||E||_F between
    1e3 and 1e5 times the frame tolerance: the free columns of F no
    longer span, so the moved H has no completion.
    """
    u, sigma, vh = _conditioned_factors(rng, n, k, cond, complex_field)
    fr = fc.make_frame(u @ (sigma[:, None] * vh))
    z = _gauss(rng, (n, k), complex_field)
    g = u @ (vh / sigma[:, None]) + z - (z @ vh.conj().T) @ vh
    idx = tuple(sorted(int(i) for i in rng.choice(k, size=s, replace=False)))
    h = g[:, list(idx)]
    if verdict == "none":
        e = _gauss(rng, h.shape, complex_field)
        h = h + e * (10 ** rng.uniform(3.0, 5.0) * fr.tol / np.linalg.norm(e))
    return fr, fc.PartialDual(h, idx)


KINDS = {"family": fc.Family, "unique": fc.Unique, "none": fc.NoCompletion}
PER_GROUP = 10


def known_verdict_instances(cond):
    """(verdict, dof, frame, prescription) of 360 seeded problems at cond.

    PER_GROUP problems for each n = 2..7, real and complex, and verdict,
    with k in n+1..3n and s in the verdict's range; conditioned_instance
    builds each one.
    """
    rng = np.random.default_rng(0)
    for n in range(2, 8):
        for cplx in (False, True):
            for verdict in KINDS:
                for _ in range(PER_GROUP):
                    k = int(rng.integers(n + 1, 3 * n + 1))
                    if verdict == "family":
                        s = int(rng.integers(0, k - n))
                    elif verdict == "unique":
                        s = int(rng.integers(k - n, k + 1))
                    else:
                        s = int(rng.integers(k - n + 1, k + 1))
                    fr, pd = conditioned_instance(rng, n, k, s, cond,
                                                  verdict, cplx)
                    dof = n * (k - s - n) if verdict == "family" else 0
                    yield verdict, dof, fr, pd


def random_partial(rng, fr, s=None, from_dual=None):
    """Random prescription at random positions.

    With from_dual given, the prescribed columns are taken from that
    matrix, so the problem is guaranteed solvable.
    """
    if s is None:
        s = int(rng.integers(0, fr.k + 1))
    idx = tuple(sorted(int(i) for i in
                       rng.choice(fr.k, size=s, replace=False)))
    if from_dual is not None:
        h = from_dual[:, list(idx)]
    else:
        h = rng.uniform(-2.0, 2.0, (fr.n, s))
        if np.iscomplexobj(fr.mat):
            h = h + 1j * rng.uniform(-2.0, 2.0, (fr.n, s))
    return fc.PartialDual(h, idx)


def random_dual(rng, fr):
    """A random (generally non-canonical) dual of fr."""
    out = fc.complete_direct(fr, fc.PartialDual(np.zeros((fr.n, 0))))
    if isinstance(out, fc.Unique):
        return out.G
    c = rng.uniform(-1.0, 1.0, out.family.dof)
    if np.iscomplexobj(fr.mat):
        c = c + 1j * rng.uniform(-1.0, 1.0, out.family.dof)
    return fc.family_sample(out.family, c)


def dense_contains(fam, g, tol=None):
    """Membership by least squares on the nk x nd raveled basis."""
    f = fam.frame
    tol = f.tol if tol is None else tol
    if not fc.is_dual_pair(f, g, tol):
        return False
    pd = fam.prescribed
    want = pd.H
    if np.linalg.norm(g[:, list(pd.indices)] - want) \
            > tol * max(1.0, np.linalg.norm(want)):
        return False
    diff = g - fam.particular
    span = np.column_stack([b.ravel() for b in fam.basis])
    coef, *_ = np.linalg.lstsq(span, diff.ravel(), rcond=None)
    resid = float(np.linalg.norm(span @ coef - diff.ravel()))
    return resid <= tol * max(1.0, float(np.linalg.norm(diff)))


def exact_rank(m) -> int:
    """Rank over the rationals, for integer matrices (brute-force oracle)."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(m).tolist()]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col] != 0),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank

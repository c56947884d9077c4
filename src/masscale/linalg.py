"""Dense symmetric linear algebra.

Factorizations, standard and generalized eigensolvers, low-rank-update
(Woodbury) solves, and condition numbers of computed eigenvalues.
Everything operates on plain numpy arrays; symmetry is enforced at
construction points with :func:`symmetrize` and checked with
:func:`require_symmetric`. :func:`factor_spd` factors a general SPD matrix
once as a sparse LU, so that each later solve costs the factor's fill.

Dense factorizations and the standard symmetric eigensolver are delegated
to LAPACK (through numpy/scipy); the generalized solver performs the
explicit Cholesky reduction to standard form so that eigenvectors come out
B-orthonormal.

Accuracy of the generalized eigenvalues. The dense solve errs by about
eps * lambda_max in absolute terms on every eigenvalue, so it is accurate
relative to each value only well above that. The small eigenvalues of a
positive semidefinite pencil such as (K, M) lie far below: the first
flexible mode of the benchmark plate is 3e-8 * lambda_max and keeps eight
or nine digits, different ones for each matrix ordering and BLAS thread
count. :func:`generalized_eig` and :func:`generalized_eigvalues` therefore
recompute every value below 1e-4 * lambda_max by Rayleigh-Ritz on its
dense eigenvectors, with A u formed in twice the working precision.
Every eigenvalue is then accurate to a few 1e-12 relative to itself: the
low tail by the recomputation (to about 1e-15), the rest because the
dense error eps * lambda_max is at most 2e-12 of a value above the cut.
A's null space (the rigid-body modes) is not factored out: its dense
vectors, whose values lie within n * eps * lambda_max of zero, stay in the
Rayleigh-Ritz block, which separates them from the flexible modes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import NoConvergence, NotPositiveDefinite, SingularCore

__all__ = [
    "symmetrize",
    "require_symmetric",
    "MatrixPair",
    "EigDecomposition",
    "LowRankUpdate",
    "cholesky",
    "is_diagonal",
    "factor_spd",
    "sym_eig",
    "generalized_eig",
    "generalized_eigvalues",
    "woodbury_factor",
    "woodbury_solve",
    "condition_number",
]

_SYM_RTOL = 1e-12


def symmetrize(a):
    """Return the exactly symmetric part 0.5 * (A + A^T)."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def require_symmetric(a, name="matrix", rtol=1e-10):
    """Validate that ``a`` is square, finite and symmetric to ``rtol``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    scale = np.abs(a).max() or 1.0
    if np.abs(a - a.T).max() > rtol * scale:
        raise ValueError(f"{name} is not symmetric")
    return a


@dataclass(frozen=True)
class MatrixPair:
    """Symmetric pair (A, B) with B positive definite."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = require_symmetric(self.a, "a")
        b = require_symmetric(self.b, "b")
        if a.shape != b.shape:
            raise ValueError("pair members must have the same order")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def order(self):
        return self.a.shape[0]


@dataclass(frozen=True)
class EigDecomposition:
    """Ascending eigenvalues and column eigenvectors.

    ``normalization`` is ``"unit"`` (2-norm) for standard problems or
    ``"b-orthonormal"`` for generalized ones (U^T B U = I).
    """

    values: np.ndarray
    vectors: np.ndarray
    normalization: str = "unit"

    @property
    def order(self):
        return len(self.values)


@dataclass(frozen=True)
class LowRankUpdate:
    """Implicit representation of base + V S V^T with diagonal core S."""

    base: np.ndarray  # SPD, dense (n, n) or diagonal as 1-D (n,)
    factors: np.ndarray  # (n, r)
    core: np.ndarray  # (r,) diagonal entries of S

    @property
    def order(self):
        return self.factors.shape[0]

    @property
    def rank(self):
        return self.factors.shape[1]

    def base_dense(self):
        b = np.asarray(self.base, dtype=float)
        return np.diag(b) if b.ndim == 1 else b

    def dense(self):
        """Materialize base + V S V^T as a dense symmetric matrix."""
        v = self.factors
        return symmetrize(self.base_dense() + (v * self.core) @ v.T)


def _fix_signs(vectors):
    """Make the largest-magnitude component of each eigenvector positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def cholesky(m):
    """Lower-triangular Cholesky factor of an SPD matrix.

    Raises :class:`NotPositiveDefinite` (with the first failing pivot index,
    0-based) if the matrix is not SPD within the pivot tolerance of LAPACK.
    """
    m = require_symmetric(m, "m")
    c, info = sla.lapack.dpotrf(m, lower=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefinite(info - 1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dpotrf")
    return np.tril(c)


def sym_eig(m):
    """Full spectrum of a dense symmetric matrix, ascending, orthonormal vectors."""
    m = require_symmetric(m, "m")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(-1, str(exc)) from exc
    return EigDecomposition(values, _fix_signs(vectors), "unit")


def is_diagonal(a, rtol=1e-14):
    """True when no off-diagonal entry of the square matrix ``a`` exceeds
    ``rtol`` times its largest entry in magnitude."""
    off = a - np.diag(np.diag(a))
    scale = np.abs(a).max() or 1.0
    return np.abs(off).max() <= rtol * scale


def factor_spd(b):
    """Factor an SPD matrix once for repeated solves.

    Returns ``(diag, solve)``, where ``solve(rhs)`` solves B x = rhs for a
    vector or a matrix of columns. A 1-D ``b`` is a diagonal, and a 2-D
    ``b`` that :func:`is_diagonal` accepts is reduced to its diagonal:
    ``diag`` is then that 1-D diagonal and ``solve`` divides. Any other
    ``b`` is factored as a sparse LU with a symmetric minimum-degree
    ordering and diagonal pivots only (``diag`` is None). Without row
    interchanges the pivots of a symmetric matrix are all positive exactly
    when it is positive definite, so that is the SPD test.

    Raises :class:`NotPositiveDefinite` (with the first failing pivot in
    elimination order) when ``b`` is not SPD.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim == 1 or is_diagonal(b):
        d = b if b.ndim == 1 else np.diag(b).copy()
        bad = np.flatnonzero(~(d > 0))
        if bad.size:
            raise NotPositiveDefinite(int(bad[0]))
        return d, lambda rhs: (rhs.T / d).T
    from scipy import sparse  # deferred: its import would add to every CLI start
    from scipy.sparse import linalg as spla

    b = require_symmetric(b, "b")
    lu = spla.splu(sparse.csc_array(b), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    bad = np.flatnonzero(~(lu.U.diagonal() > 0) | (lu.perm_r != lu.perm_c))
    if bad.size:
        raise NotPositiveDefinite(int(bad[0]))
    return None, lu.solve


_EPS = np.finfo(float).eps
# Eigenvalues of a PSD pencil below _LOW_CUT * lambda_max are recomputed:
# there the dense error eps * lambda_max exceeds 2e-12 of the value. Above
# it lie all flexible values of the benchmark meshes' element pairs.
_LOW_CUT = 1e-4


def _standard_form(pair):
    """C = L^{-1} A L^{-T} for B = L L^T, and the map y -> L^{-T} y back.

    A diagonal B takes a scaling path instead of the Cholesky reduction.
    """
    a, b = pair.a, pair.b
    if is_diagonal(b):
        d = np.diag(b).copy()
        bad = np.flatnonzero(d <= 0)
        if bad.size:
            raise NotPositiveDefinite(int(bad[0]))
        s = 1.0 / np.sqrt(d)
        return symmetrize(a * s[:, None] * s[None, :]), lambda y: y * s[:, None]
    ell = cholesky(b)
    c, info = sla.lapack.dsygst(a, ell, itype=1, lower=1)
    if info != 0:  # pragma: no cover - LAPACK reports illegal arguments only
        raise ValueError(f"illegal argument {-info} to dsygst")
    c = np.tril(c) + np.tril(c, -1).T
    return c, lambda y: sla.solve_triangular(ell.T, y, lower=False)


def _low_tail(values):
    """Number of leading eigenvalues to recompute, or 0 to keep them all.

    The tail is every value below _LOW_CUT * lambda_max. It is kept as it
    is when it holds no value above the dense error n * eps * lambda_max
    (a null space alone), and when the spectrum is not nonnegative (A
    indefinite).
    """
    top = values[-1]
    noise = len(values) * _EPS * top
    if not top > 0 or values[0] < -noise:
        return 0
    count = int(np.searchsorted(values, _LOW_CUT * top))
    return count if count and values[count - 1] > noise else 0


def _split_on_grid(v, exponent, bits):
    """v = hi + lo with hi on the grid 2**(exponent - bits), |hi| <= 2**exponent.

    Needs |v| <= 2**exponent; then |lo| <= 2**(exponent - bits - 1).
    """
    sigma = np.ldexp(0.75, exponent + 53 - bits)
    hi = (v + sigma) - sigma
    return hi, v - hi


def _accurate_matmul(a, x):
    """A @ X as if computed in twice the working precision, then rounded.

    For x near a low eigenvector, the entries of A x are 1e-8 or less of
    the terms that sum to them, and a plain product keeps few digits.
    Here each row of A and each column of X is cut into two slices of
    ``bits`` bits on its own power-of-two grid, narrow enough that every
    slice-by-slice product is exact in double whatever the summation
    order; the leftovers add terms 2**(-2 bits) smaller. The exact partial
    products are summed with error-free transformations (Sum2 of Ogita,
    Rump and Oishi, 2005). A is used through its nonzeros.
    """
    from scipy import sparse  # deferred: its import would add to every CLI start

    rows, cols = np.divmod(np.flatnonzero(a), a.shape[1])
    row_len = np.bincount(rows, minlength=a.shape[0])
    indptr = np.concatenate(([0], np.cumsum(row_len)))
    bits = (53 - int(np.ceil(np.log2(max(row_len.max(initial=1), 2))))) // 2
    row_exp = np.frexp(np.maximum(a.max(axis=1), -a.min(axis=1)))[1][rows]
    a1, rest = _split_on_grid(a[rows, cols], row_exp, bits)
    a2, a3 = _split_on_grid(rest, row_exp - bits, bits)
    col_exp = np.frexp(np.abs(x).max(axis=0))[1]
    x1, rest = _split_on_grid(x, col_exp, bits)
    x2, x3 = _split_on_grid(rest, col_exp - bits, bits)

    def times(data, rhs):
        return sparse.csr_array((data, cols, indptr), shape=a.shape) @ rhs

    k = x.shape[1]
    p1, p2 = (times(part, np.hstack([x1, x2, x3])) for part in (a1, a2))
    total, comp = p1[:, :k], np.zeros_like(x)
    small = p1[:, 2 * k:] + p2[:, 2 * k:] + times(a3, x)
    for term in (p1[:, k:2 * k], p2[:, :k], p2[:, k:2 * k], small):
        s = total + term
        z = s - total
        comp += (total - (s - z)) + (term - z)
        total = s
    return total + comp


def _ritz(pair, x):
    """Rayleigh-Ritz of (A, B) on span(x), with A x from :func:`_accurate_matmul`.

    x holds B-orthonormal approximate eigenvectors. Returns the Ritz values
    ascending, each as the Rayleigh quotient of its Ritz vector (accurate
    relative to the value, where the small eigensolve is accurate only
    relative to the largest), and the B-orthonormal Ritz vectors.
    """
    h = symmetrize(x.T @ _accurate_matmul(pair.a, x))
    g = symmetrize(x.T @ (pair.b @ x))
    _, q = sla.eigh(h, g)
    values = np.einsum("ij,ij->j", q, h @ q)
    order = np.argsort(values)
    return values[order], x @ q[:, order]


def generalized_eig(pair):
    """Solve A u = lambda B u via Cholesky reduction to standard form.

    Eigenvalues are real and ascending; eigenvectors are B-orthonormal.
    A diagonal B takes a fast scaling path instead of the reduction.

    Values above 1e-4 * lambda_max are the dense solve's, accurate to
    eps * lambda_max, which is 2e-12 of them or less. For a positive
    semidefinite A, the values below the cut and their vectors are
    recomputed by Rayleigh-Ritz with A u formed in twice the working
    precision, which makes them accurate relative to themselves too. A's
    null space (values within n * eps * lambda_max of zero) stays in that
    block and is not computed separately. Pencils with nothing but a null
    space below the cut (mass pairs, most element pairs) or with A
    indefinite keep the dense result at no extra cost. See the module
    docstring.
    """
    if not isinstance(pair, MatrixPair):
        pair = MatrixPair(*pair)
    c, back = _standard_form(pair)
    std = sym_eig(c)
    values, vectors = std.values, back(std.vectors)
    count = _low_tail(values)
    if count:
        values[:count], vectors[:, :count] = _ritz(pair, vectors[:, :count])
    return EigDecomposition(values, _fix_signs(vectors), "b-orthonormal")


def generalized_eigvalues(pair):
    """Eigenvalues only of A u = lambda B u, as accurate as :func:`generalized_eig`.

    Vectors are formed only for a low tail that is recomputed; that costs
    a second partial dense solve.
    """
    if not isinstance(pair, MatrixPair):
        pair = MatrixPair(*pair)
    c, back = _standard_form(pair)
    values = np.linalg.eigvalsh(c)
    count = _low_tail(values)
    if count:
        _, y = sla.eigh(c, subset_by_index=[0, count - 1])
        values[:count], _ = _ritz(pair, back(y))
    return values


def woodbury_factor(update, base_solve=None):
    """Precompute solves with base + V S V^T through the Woodbury identity.

    Returns ``solve(rhs)`` for a vector or a matrix of columns.
    ``base_solve`` solves with the SPD base; by default the base is
    factored once with :func:`factor_spd`. Zero core entries are dropped
    (they contribute nothing). The r x r inner system S^{-1} + V^T B^{-1} V
    is solved here once for all of V^T, so each later solve costs one base
    solve and two n x r products.
    """
    if base_solve is None:
        _, base_solve = factor_spd(update.base)
    keep = np.flatnonzero(update.core != 0.0)
    if keep.size == 0:
        return base_solve
    v = update.factors[:, keep]
    bv = base_solve(v)
    inner = np.diag(1.0 / update.core[keep]) + v.T @ bv
    try:
        coef = sla.solve(inner, v.T, assume_a="sym")
    except (sla.LinAlgError, ValueError) as exc:
        raise SingularCore(str(exc)) from exc
    if not np.all(np.isfinite(coef)):
        raise SingularCore("inner system produced non-finite solution")

    def solve(rhs):
        y = base_solve(rhs)
        return y - bv @ (coef @ y)

    return solve


def woodbury_solve(update, rhs):
    """Solve (base + V S V^T) x = rhs once; see :func:`woodbury_factor`."""
    return woodbury_factor(update)(np.asarray(rhs, dtype=float))


def condition_number(values):
    """lambda_max / lambda_min of ascending eigenvalues, such as
    ``sym_eig(a).values`` or ``generalized_eig(pair).values``; raises
    :class:`NotPositiveDefinite` when lambda_min <= 0."""
    if values[0] <= 0:
        raise NotPositiveDefinite(0, "nonpositive smallest eigenvalue")
    return float(values[-1] / values[0])

"""Symmetric linear algebra: dense solvers, by mirror-symmetry blocks where they apply.

Factorizations, standard and generalized eigensolvers, low-rank-update
(Woodbury) solves, and condition numbers of computed eigenvalues. An
assembled matrix arrives as a scipy.sparse CSR array or as a dense array.
Every function that reads a whole matrix (:func:`require_symmetric`,
:func:`is_diagonal`, :func:`factor_spd`, :func:`mirror_split`,
:attr:`CheckedMatrix.component`, :func:`extreme_eigvalues` and the
low-tail recomputation) reads its stored entries alone, and a
:class:`LowRankUpdate` M + V S V^T as M and V, through :func:`_stored`: a
sparse array's entries, or a dense array's entries != 0 found strip by
strip, so that a dense check forms no temporary of the matrix's size
(:func:`_csr` builds its CSR arrays from them). The readers that form
temporaries per stored entry, :func:`mirror_split`'s commutation check
and the low-tail recomputation's accurate product, run in strips of about
_STRIP_ENTRIES stored entries (:func:`_strips`), so that every solver
layer holds one block, or one strip, of transients beyond its inputs and
outputs. Symmetry is imposed at construction points with
:func:`symmetrize` and checked with :func:`require_symmetric`.

A :class:`CheckedMatrix` is a symmetric matrix checked once, when it is
built, with the mesh's mirror basis or None. The solvers trust it; a raw
matrix is checked, and a tuple (A, B) as a :class:`MatrixPair`.
:func:`factor_spd` factors a general SPD matrix once as a sparse LU, so
that each later solve costs the factor's fill.

Dense factorizations and eigensolves are delegated to scipy's LAPACK,
the generalized ones by the explicit Cholesky reduction to standard form,
so that eigenvectors come out B-orthonormal. Every eigensolve runs over a
pencil's :class:`Blocks` (:func:`block_pairs`): the eight mirror blocks
Q_k^T A Q_k of its members (:func:`mirror_split`, in the mesh's basis
:func:`masscale.fem.mirror_basis`, order about n/8) when every member is a
checked matrix that splits, else the pencil itself as one block. A matrix
I_3 (x) A_s splits only A_s, its :attr:`CheckedMatrix.component`, and the
values-only solvers solve a pencil of such matrices as the pencil of the
components, each value counted three times. The integrator's stability
probe steps on the mirror blocks of (K, M), each as :func:`block_operator`
forms it. A mesh's pencil is solved one block at a time
(:func:`_block_solve`): its standard form, formed dense, is reduced once,
in place, to tridiagonal form, all its values come from the tridiagonal
(:func:`_reduce`), and vectors only for the indices that the caller
selects (:func:`_vectors`). So :func:`generalized_eigvalues` (all values,
and vectors for a low tail), :func:`generalized_eig` with ``top`` (the top
pairs) and :func:`extreme_eigvalues` (the ends) read the same lambda_max,
bit for bit. :func:`generalized_eig` without ``top``, for the 24 x 24
element pairs, solves each block in full by divide and conquer.

Accuracy of the generalized eigenvalues. The dense solve errs by about
eps * lambda_max in absolute terms on every eigenvalue, so it is accurate
relative to each value only well above that. The small eigenvalues of a
positive semidefinite pencil such as (K, M) lie far below: the first
flexible mode of the benchmark plate is 3e-8 * lambda_max and keeps eight
or nine digits, different ones for each matrix ordering and BLAS thread
count. :func:`generalized_eig` and :func:`generalized_eigvalues` therefore
recompute every value below 1e-4 * lambda_max by Rayleigh-Ritz, with A u
formed in twice the working precision, on the block pairs' eigenvectors.
Every eigenvalue is then accurate to a few 1e-12 relative to itself: the
low tail by the recomputation (to about 1e-15, on the mirror blocks' or
the whole pencil's vectors alike), the rest because the dense error
eps * lambda_max is at most 2e-12 of a value above the cut. The full
solve without ``top`` uses another LAPACK algorithm, so its values above
the cut differ from the others' by up to that bound; the mirror blocks'
smaller solves err no more (on the benchmark plate's two stiffness
pencils, at most 5.6e-15 * lambda_max, against 8.0e-15 for the full
values-only solve, both measured from Rayleigh quotients). A's null space
(the rigid-body modes)
is not factored out: its vectors, whose values lie within
:func:`rigid_cutoff` (n * eps * lambda_max) of zero, stay in the
Rayleigh-Ritz block, which separates them from the flexible modes.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import NotPositiveDefinite, SingularCore

__all__ = [
    "symmetrize",
    "require_symmetric",
    "MatrixPair",
    "CheckedMatrix",
    "Blocks",
    "EigDecomposition",
    "LowRankUpdate",
    "dense",
    "cholesky",
    "is_diagonal",
    "factor_spd",
    "generalized_eig",
    "generalized_eigvalues",
    "extreme_eigvalues",
    "mirror_split",
    "block_pairs",
    "block_operator",
    "rigid_cutoff",
    "low_tail",
    "woodbury_factor",
    "condition_number",
]

_STRIP = 256  # rows per strip of a dense array's read
_STRIP_ENTRIES = 1 << 15  # stored entries per strip of a sparse check or product
_SYMMETRY_RTOL = 1e-10  # largest |a - a^T| accepted, relative to max |a|
_DIAGONAL_RTOL = 1e-14  # largest off-diagonal |a_ij| of a diagonal a, relative to max |a|


def _is_sparse(a):
    """True for a scipy.sparse array, told apart without importing scipy.sparse."""
    return hasattr(a, "tocsr")


def dense(a):
    """``a`` as a dense float array: a sparse one converted, a
    :class:`LowRankUpdate` formed, a :class:`CheckedMatrix` as its matrix
    is; a dense one is returned as it is, not copied."""
    a = _operand(a)
    if isinstance(a, LowRankUpdate):
        return a.dense()
    return a.toarray() if _is_sparse(a) else np.asarray(a, dtype=float)


def _stored(a):
    """The stored entries of the 2-D array ``a`` as ``(rows, cols,
    values)``, in row-major order with no duplicates: a sparse ``a``'s
    entries after :func:`_csr`, a dense one's entries != 0 (NaN among
    them). A dense ``a`` is searched in strips of _STRIP rows, so that no
    temporary of its size is formed, not even a boolean one."""
    if _is_sparse(a):
        a = _csr(a)
        return _rows_of(a), a.indices, a.data
    a = np.asarray(a, dtype=float)
    width = a.shape[1]
    flat = [np.flatnonzero(a[i:i + _STRIP] != 0) + i * width
            for i in range(0, a.shape[0], _STRIP)]
    rows, cols = np.divmod(np.concatenate(flat) if flat else np.zeros(0, dtype=int), width)
    return rows, cols, a[rows, cols]


def _csr(a):
    """``a`` as a float CSR array with sorted indices and no duplicates;
    one already in that form is returned as it is. A dense ``a`` is built
    from its :func:`_stored` entries, which come in that order."""
    from scipy import sparse  # deferred: its import would add to every CLI start

    if not _is_sparse(a):
        a = np.asarray(a, dtype=float)
        rows, cols, values = _stored(a)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=a.shape[0]))))
        return sparse.csr_array((values, cols, indptr), shape=a.shape)
    if not (a.format == "csr" and a.dtype == float and a.has_canonical_format):
        a = sparse.csr_array(a, dtype=float, copy=True)
        a.sum_duplicates()
    return a


def _rows_of(a):
    """The row index of each stored entry of the CSR array ``a``."""
    return np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))


def _strips(lengths):
    """Consecutive rows, of ``lengths`` stored entries each, as slices
    of about _STRIP_ENTRIES entries: a row starts a new strip where the
    entries before it pass a multiple of _STRIP_ENTRIES."""
    first = (np.cumsum(lengths) - lengths) // _STRIP_ENTRIES
    bounds = [0, *(np.flatnonzero(np.diff(first)) + 1), len(lengths)]
    return [slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]


def symmetrize(a):
    """Return the exactly symmetric part 0.5 * (A + A^T), of each matrix of
    a stack (..., n, n)."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def require_symmetric(a, name="matrix"):
    """Validate that ``a`` is square, finite and symmetric:
    max |a - a^T| <= 1e-10 * max |a|, raising ``ValueError`` for the first
    of these that fails. Both maxima are read over the stored entries
    (:func:`_stored`), each a_ij compared with its mirror a_ji gathered by
    index; a pair of zeros adds nothing to either, so they are the maxima
    over all entries. A sparse ``a`` is returned as :func:`_csr` gives it,
    a dense one as it is."""
    a = _csr(a) if _is_sparse(a) else np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    rows, cols, values = _stored(a)
    scale = np.abs(values).max(initial=0.0)  # NaN and inf propagate through max
    if not np.isfinite(scale):
        raise ValueError(f"{name} contains non-finite entries")
    if np.abs(values - a[cols, rows]).max(initial=0.0) > _SYMMETRY_RTOL * (scale or 1.0):
        raise ValueError(f"{name} is not symmetric")
    return a


@dataclass(frozen=True)
class MatrixPair:
    """Symmetric pair (A, B) with B positive definite. A raw member is
    checked here, a :class:`CheckedMatrix` kept as it is."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a, b = (m if isinstance(m, CheckedMatrix) else require_symmetric(m, name)
                for m, name in ((self.a, "a"), (self.b, "b")))
        if a.shape != b.shape:
            raise ValueError("pair members must have the same order")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def order(self):
        return self.a.shape[0]


@dataclass(frozen=True)
class EigDecomposition:
    """Ascending eigenvalues and column eigenvectors: of unit 2-norm for a
    standard problem, B-orthonormal (U^T B U = I) for a generalized one."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class LowRankUpdate:
    """Implicit representation of base + V S V^T with diagonal core S.

    Raises ``ValueError`` when the base is not a square matrix.
    """

    base: object  # SPD (n, n): CSR or dense
    factors: np.ndarray  # (n, r)
    core: np.ndarray  # (r,) diagonal entries of S

    def __post_init__(self):
        shape = np.shape(self.base)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"base must be square, got shape {shape}")

    @property
    def shape(self):
        return (self.factors.shape[0],) * 2

    def dense(self):
        """Materialize base + V S V^T as a dense symmetric matrix."""
        v = self.factors
        return symmetrize(dense(self.base) + (v * self.core) @ v.T)

    def diagonal(self):
        """The diagonal of base + V S V^T, without the matrix."""
        return self.base.diagonal() + (self.factors**2) @ self.core

    def __matmul__(self, x):
        """(base + V S V^T) x for a vector or columns x: base x + V (S (V^T x))."""
        core = self.core if np.ndim(x) == 1 else self.core[:, None]
        return self.base @ x + self.factors @ (core * (self.factors.T @ x))


@dataclass(frozen=True, eq=False)
class Blocks:
    """The blocks of a matrix or a pencil in a mirror basis
    (:class:`masscale.fem.MirrorBasis`): ``parts[k]`` is block k, Q_k^T A
    Q_k, or the tuple of the members' k-th blocks. With ``basis`` None:
    one block, the matrix or the members as they are, and identity maps.
    A mirror block is stored as the 1-D array of its diagonal when the
    matrix is diagonal (:func:`is_diagonal`), else as CSC, or dense where a
    low-rank update fills it (:func:`mirror_split`). A solver forms one
    part dense right before its LAPACK call (:func:`_dense_part`). Only
    this module reads ``parts``.
    """

    parts: list
    basis: object = None

    @property
    def orders(self):
        """The order m_k of each block."""
        return [(p[0] if isinstance(p, tuple) else p).shape[0] for p in self.parts]

    def expand(self, k, y):
        """Q_k y, block k's coefficients y mapped to the basis's order."""
        return y if self.basis is None else self.basis.columns[k] @ y

    def restrict(self, k, u):
        """Q_k^T u, the coefficients in block k of u of order n (one copy)."""
        return u if self.basis is None else self.basis.columns[k].T @ u


def _is_vector(x):
    """True for a 1-D numpy array: a :class:`Blocks` member stored as its diagonal."""
    return isinstance(x, np.ndarray) and x.ndim == 1


def _dense_part(x):
    """One member of a :class:`Blocks` part, 1-D diagonal or 2-D, as a new
    Fortran-ordered dense array, which LAPACK may overwrite in place."""
    a = _operand(x)
    if _is_vector(a):
        return np.diag(a).T
    return a.toarray(order="F") if _is_sparse(a) else np.array(dense(a), order="F")


def _symmetrize_in_place(c, average=True):
    """Make the square ``c`` symmetric in place, strip by strip: as :func:`symmetrize`,
    or without ``average`` as tril(c) + tril(c, -1).T (0.0 added to each entry)."""
    for i in range(0, len(c), _STRIP):
        e = i + _STRIP
        square, top, bottom = c[i:e, i:e], c[i:e, e:], c[e:, i:e]
        if average:
            square[...] = 0.5 * (square + square.T)
            top += bottom.T
            top *= 0.5
        else:
            square[...] = np.tril(square) + np.tril(square, -1).T
            top[...] = bottom.T + 0.0
        bottom[...] = top.T


@dataclass(frozen=True, eq=False)
class CheckedMatrix:
    """A symmetric matrix checked once, when it is built, with the mesh's
    :class:`masscale.fem.MirrorBasis` or None; its split (of a decoupled
    matrix, its component's), component and diagonal test are computed on
    first read and kept.

    ``matrix`` is a CSR or dense array, kept as :func:`require_symmetric`
    returns it, or a :class:`LowRankUpdate`, kept implicit: its base is
    checked, V S V^T is symmetric by construction. Numpy converts it to a
    dense copy (``__array__``) for a reader outside the package;
    ``checked @ x`` and numpy's operators raise.
    """

    matrix: object
    basis: object = None
    name: str = field(default="matrix", repr=False)
    full_order: int = field(default=None, repr=False)  # a component's n, its split's limit

    __array_ufunc__ = None

    def __post_init__(self):
        if isinstance(self.matrix, LowRankUpdate):
            require_symmetric(self.matrix.base, self.name)
        else:
            object.__setattr__(self, "matrix", require_symmetric(self.matrix, self.name))

    @property
    def shape(self):
        return self.matrix.shape

    def __array__(self, dtype=None, copy=None):
        return np.array(dense(self), dtype=dtype)

    @property
    def split(self):
        """The matrix's :func:`mirror_split` in ``basis``, eight sparse blocks
        (a diagonal matrix's 1-D), or None, formed on first read and kept.
        A matrix with a :attr:`component` splits and keeps only that: each
        read joins its block k from ``basis.joins[k]`` anew, so that the
        joined blocks live only as long as the pencil with K that reads them."""
        if self.component is None:
            return self._own_split
        p = self.component.split and self.component.split.parts
        return p and Blocks([_join([p[j] for j in js]) for js in self.basis.joins], self.basis)

    @functools.cached_property
    def _own_split(self):
        return self.basis and mirror_split(self.matrix, self.basis, self.full_order)

    @functools.cached_property
    def component(self):
        """A_s when the matrix is I_3 (x) A_s in the component-blocked dof
        order (:mod:`masscale.fem`), else None (always for a LowRankUpdate or
        a component): no stored entry couples two components and the three
        diagonal blocks are equal entry for entry, read in O(nnz). A_s is the
        x rows' CSR prefix, checked in :attr:`masscale.fem.MirrorBasis.component`."""
        a = self.matrix
        third, rest = divmod(a.shape[0], 3)
        if isinstance(a, LowRankUpdate) or rest or not third or self.full_order:
            return None
        a = _csr(a)
        lengths = np.diff(a.indptr).reshape(3, third)
        cuts = a.indptr[::third]  # rows 0, N, 2N, 3N
        cols, data = ([x[cuts[c]:cuts[c + 1]] for c in range(3)] for x in (a.indices, a.data))
        if not ((lengths == lengths[0]).all() and np.all(cols[0] < third)
                and all(np.array_equal(cols[c] - c * third, cols[0])
                        and np.array_equal(data[c], data[0]) for c in (1, 2))):
            return None
        a_s = type(a)((data[0], cols[0], a.indptr[:third + 1]), shape=(third, third))
        return CheckedMatrix(a_s, self.basis and self.basis.component, f"{self.name}_s", a.shape[0])

    @functools.cached_property
    def is_diagonal(self):
        """:func:`is_diagonal` of the matrix."""
        return is_diagonal(self.matrix)


def _operand(m):
    """What a solver reads of ``m``: a checked matrix's matrix, else ``m``."""
    return m.matrix if isinstance(m, CheckedMatrix) else m


def _join(parts):
    """The block diagonal of 1-D or compressed blocks, joined array by array."""
    if all(map(_is_vector, parts)):
        return np.concatenate(parts)
    rows = np.cumsum([0] + [len(p.indptr) - 1 for p in parts])
    ends = np.cumsum([0] + [p.indptr[-1] for p in parts])
    arrays = [(p.data, p.indices + r, p.indptr[1:] + e) for p, r, e in zip(parts, rows, ends)]
    data, indices, indptr = map(np.concatenate, zip(*arrays))
    return type(parts[0])((data, indices, np.append(0, indptr)), shape=(rows[-1],) * 2)


def _fix_signs(vectors):
    """Make the largest-magnitude component of each eigenvector positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def cholesky(m):
    """Lower-triangular Cholesky factor of an SPD matrix, formed dense: a
    :class:`CheckedMatrix` is factored as it is, a sparse or dense array is
    checked for symmetry here first.

    Raises :class:`NotPositiveDefinite` (with the first failing pivot index,
    0-based) if the matrix is not SPD within the pivot tolerance of LAPACK.
    """
    return _cholesky_lower(m if isinstance(m, CheckedMatrix) else require_symmetric(m, "m"))


def _cholesky_lower(m):
    """:func:`cholesky` of ``m`` without the symmetry check: for a matrix
    checked already, or a part of :func:`block_pairs`. The factor overwrites
    its dense copy (:func:`_dense_part`), its upper triangle zeroed."""
    c, info = sla.lapack.dpotrf(_dense_part(m), lower=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefinite(info - 1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dpotrf")
    return c


def is_diagonal(a):
    """True when every entry of the square matrix ``a`` is finite and no
    off-diagonal one exceeds 1e-14 times its largest entry in magnitude.

    Both are read over the stored entries (:func:`_stored`), sparse or
    dense. A :class:`LowRankUpdate` is diagonal with a zero core on a
    diagonal base.
    """
    if isinstance(a, LowRankUpdate):
        return not a.core.any() and is_diagonal(a.base)
    rows, cols, values = _stored(a)
    on = rows == cols
    off, diagonal = values[~on], values[on]
    high, low = (off.max(), off.min()) if off.size else (0.0, 0.0)
    top = np.max([high, -low, np.abs(diagonal).max(initial=0.0)])  # NaN propagates
    return bool(np.isfinite(top)) and max(high, -low) <= _DIAGONAL_RTOL * (top or 1.0)


def factor_spd(b):
    """Factor an SPD matrix once for repeated solves.

    Returns ``(diag, solve)``, where ``solve(rhs)`` solves B x = rhs for a
    vector or a matrix of columns. A 1-D ``b`` is a diagonal, and a 2-D
    ``b`` that :func:`is_diagonal` accepts is reduced to its diagonal:
    ``diag`` is then that 1-D diagonal and ``solve`` divides. Any other
    ``b``, dense or sparse, is factored as a sparse LU (``diag`` is None)
    with a minimum-degree ordering applied symmetrically and diagonal
    pivots only. Without row interchanges the pivots of a symmetric matrix are
    all positive exactly when it is positive definite, so that is the SPD
    test.

    Raises :class:`NotPositiveDefinite` (with the first failing pivot in
    elimination order) when ``b`` is not SPD.
    """
    b = b if _is_sparse(b) else np.asarray(b, dtype=float)
    if b.ndim == 1 or is_diagonal(b):
        d = b if b.ndim == 1 else b.diagonal().copy()
        bad = np.flatnonzero(~(d > 0))
        if bad.size:
            raise NotPositiveDefinite(int(bad[0]))
        return d, lambda rhs: (rhs.T / d).T
    from scipy import sparse  # deferred: its import would add to every CLI start
    from scipy.sparse import linalg as spla

    lu = spla.splu(sparse.csc_array(require_symmetric(b, "b")), permc_spec="MMD_AT_PLUS_A",
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


def block_pairs(*members):
    """The :class:`Blocks` of a pencil's members, or of one matrix, that
    the eigensolvers solve and the integrator steps on one by one:
    ``parts[k]`` is the tuple of the members' k-th mirror blocks
    (:attr:`CheckedMatrix.split`) when every member is a checked matrix
    that splits, else the members as one block. No split is read after
    one that fails."""
    splits = []
    for m in members:
        split = m.split if isinstance(m, CheckedMatrix) else None
        if split is None:
            return Blocks([members])
        splits.append(split.parts)
    return Blocks(list(zip(*splits)), split.basis)


def block_operator(blocks, k):
    """B^{-1} A of part k (A, B) of ``blocks``, the :func:`block_pairs` of
    a pencil, dense, by a Cholesky factor of B, which is not checked again
    for symmetry. Only part k is formed dense.

    Raises :class:`NotPositiveDefinite` (with the first failing pivot
    index) when B is not SPD.
    """
    a, b = blocks.parts[k]
    return sla.cho_solve((_cholesky_lower(b), True), _dense_part(a))


def _standard_form(pair, split):
    """C = L^{-1} A L^{-T} for B = L L^T, formed dense from one part (A, B)
    of a :class:`Blocks` (:func:`_dense_part`), and the factor of the map
    y -> L^{-T} y back (:func:`_back`): L^T, or 1/sqrt(B) for a diagonal B.
    C overwrites A's copy, so only it, the factor and a strip are held.

    A diagonal B takes a scaling path instead of the Cholesky reduction.
    In the blocks of a ``split`` (a basis), B is diagonal exactly when it
    is 1-D; a member of the one-block path is tested here, or answers from
    its :attr:`CheckedMatrix.is_diagonal`.
    """
    a, b = pair
    if not split and (b.is_diagonal if isinstance(b, CheckedMatrix) else is_diagonal(b)):
        b = _operand(b).diagonal().copy()
    c = _dense_part(a)
    if _is_vector(b):
        bad = np.flatnonzero(b <= 0)
        if bad.size:
            raise NotPositiveDefinite(int(bad[0]))
        s = 1.0 / np.sqrt(b)
        c *= s[:, None]
        c *= s[None, :]
        _symmetrize_in_place(c)
        return c, s
    ell = _cholesky_lower(b)
    c, info = sla.lapack.dsygst(c, ell, itype=1, lower=1, overwrite_a=1)
    if info != 0:  # pragma: no cover - LAPACK reports illegal arguments only
        raise ValueError(f"illegal argument {-info} to dsygst")
    _symmetrize_in_place(c, average=False)
    return c, ell.T


def _back(factor, y):
    """L^{-T} y for the ``factor`` of :func:`_standard_form`: a 1-D one
    scales, a 2-D one is solved on its upper triangle, L^T, alone."""
    if factor.ndim == 1:
        return y * factor[:, None]
    return sla.solve_triangular(factor, y, lower=False)


def rigid_cutoff(values, order=None):
    """n * eps * lambda_max for ascending eigenvalues of a pencil of order
    n: the dense solve's error. ``values`` ends with lambda_max and holds
    all n values unless ``order`` gives n. A value at or below it is
    indistinguishable from zero, so it belongs to A's null space (a
    rigid-body mode of (K, M))."""
    return (order or len(values)) * _EPS * values[-1]


def low_tail(values):
    """Number of leading eigenvalues to recompute, or 0 to keep them all.

    The tail is every value below _LOW_CUT * lambda_max. It is kept as it
    is when it holds no value above :func:`rigid_cutoff` (a null space
    alone), and when the spectrum is not nonnegative (A indefinite).
    """
    count = _below_cut(values, values[-1], len(values))
    return count if count and values[count - 1] > rigid_cutoff(values) else 0


def _below_cut(values, top, order):
    """Number of the ascending ``values`` below _LOW_CUT * ``top``, for
    ``top`` up to lambda_max of a pencil of ``order`` n, or 0 where
    :func:`low_tail` keeps every value: when ``top`` is not positive or a
    value lies below -n * eps * ``top`` (A indefinite)."""
    if not top > 0 or values[0] < -order * _EPS * top:
        return 0
    return int(np.searchsorted(values, _LOW_CUT * top))


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
    Rump and Oishi, 2005). A is read through its CSR arrays (a dense ``a``
    is converted), so only its stored entries are split and multiplied.
    X is split once; A is split and multiplied in row strips of about
    _STRIP_ENTRIES stored entries (:func:`_strips`), each row's arithmetic
    the same in any strip, so that its transients are of a strip's size.
    """
    if isinstance(a, LowRankUpdate):  # the base in twice the precision
        return _accurate_matmul(a.base, x) + a.factors @ (a.core[:, None] * (a.factors.T @ x))
    a = _csr(a)
    lengths = np.diff(a.indptr)
    bits = (53 - int(np.ceil(np.log2(max(lengths.max(initial=1), 2))))) // 2
    col_exp = np.frexp(np.abs(x).max(axis=0))[1]
    x1, x2 = _split_on_grid(x, col_exp, bits)
    x2, x3 = _split_on_grid(x2, col_exp - bits, bits)
    product = np.empty(x.shape)
    for rows in _strips(lengths):
        product[rows] = _accurate_strip(a, rows, bits, (x, x1, x2, x3))
    return product


def _accurate_strip(a, rows, bits, xs):
    """The ``rows`` of :func:`_accurate_matmul`'s A @ X, from the CSR ``a``
    and X with its slices ``xs`` = (X, X1, X2, X3). The strip is read as
    slices of A's arrays: scipy copies them into a CSR array built once
    for the strip, which would hold them for the whole strip."""
    from scipy import sparse  # deferred: its import would add to every CLI start

    start, stop = a.indptr[rows.start], a.indptr[rows.stop]
    indptr, indices = a.indptr[rows.start:rows.stop + 1] - start, a.indices[start:stop]
    data, lengths = a.data[start:stop], np.diff(indptr)
    shape = (len(lengths), a.shape[1])
    row_top = np.zeros(shape[0])
    np.maximum.at(row_top, np.repeat(np.arange(shape[0]), lengths), np.abs(data))
    row_exp = np.repeat(np.frexp(row_top)[1], lengths)
    a1, a2 = _split_on_grid(data, row_exp, bits)
    a2, a3 = _split_on_grid(a2, row_exp - bits, bits)
    x, x1, x2, x3 = xs

    def times(values, rhs):
        return sparse.csr_array((values, indices, indptr), shape=shape) @ rhs

    total = times(a1, x1)
    comp = np.zeros_like(total)
    small = times(a1, x3) + times(a2, x3) + times(a3, x)
    for term in (times(a1, x2), times(a2, x1), times(a2, x2), small):
        s = total + term
        z = s - total
        comp += (total - (s - z)) + (term - z)
        total = s
    return total + comp


def _ritz(a, b, x):
    """Rayleigh-Ritz of the checked pencil (A, B) on span(x), with A x from
    :func:`_accurate_matmul`.

    A and B are raw or checked matrices, sparse or dense, and x holds
    B-orthonormal approximate eigenvectors. Returns the Ritz values
    ascending, each as the Rayleigh quotient of its Ritz vector (accurate
    relative to the value, where the small eigensolve is accurate only
    relative to the largest), and the coefficients q of the B-orthonormal
    Ritz vectors x q, which only a caller that wants them forms.
    """
    a, b = _operand(a), _operand(b)
    h = symmetrize(x.T @ _accurate_matmul(a, x))
    g = symmetrize(x.T @ (b @ x))
    _, q = sla.eigh(h, g)
    values = np.einsum("ij,ij->j", q, h @ q)
    order = np.argsort(values)
    return values[order], q[:, order]


def generalized_eig(pair, top=None):
    """Solve A u = lambda B u via Cholesky reduction to standard form.

    Eigenvalues are real and ascending; eigenvectors are B-orthonormal. A
    diagonal B takes a fast scaling path instead of the reduction. Each
    block pair (:func:`block_pairs`) is solved on its own, its vectors
    mapped back through L_k^{-T} and Q_k, which is orthonormal, so they
    stay B-orthonormal. With ``top``, only the ``top`` largest pairs are
    formed (:func:`_top_pairs`). Without it, each block is solved in full
    (scipy's ``eigh``, driver "evd"), and for a positive semidefinite A
    the values below 1e-4 * lambda_max and their vectors are recomputed by
    Rayleigh-Ritz on the full pencil (see the module docstring); pencils
    with nothing but a null space below that cut (mass pairs, most element
    pairs) or with A indefinite keep the dense result. ``pair`` is a
    :class:`MatrixPair`, or a tuple (A, B) that is checked here as one;
    its members are raw or checked matrices, sparse or dense, and each
    block is made dense once.
    """
    pair = pair if isinstance(pair, MatrixPair) else MatrixPair(*pair)
    blocks = block_pairs(pair.a, pair.b)
    if top is not None:
        return _top_pairs(blocks, top)
    values, vectors = [], []
    for k, part in enumerate(blocks.parts):
        c, factor = _standard_form(part, blocks.basis is not None)
        v, y = sla.eigh(c, driver="evd", overwrite_a=True, check_finite=False)
        values.append(v)
        vectors.append(blocks.expand(k, _back(factor, _fix_signs(y))))
    order = np.argsort(np.concatenate(values), kind="stable")
    values, vectors = np.concatenate(values)[order], np.take(np.hstack(vectors), order, axis=1)
    count = low_tail(values)
    if count:
        values[:count], q = _ritz(pair.a, pair.b, vectors[:, :count])
        vectors[:, :count] = vectors[:, :count] @ q
    return EigDecomposition(values, _fix_signs(vectors))


def _top_pairs(blocks, top):
    """The ``top`` largest eigenpairs of the pencil of ``blocks``, kept
    ascending, ties in block order. A block whose largest value reaches
    the ``top``-th largest kept so far forms the vectors of its own ``top``
    largest values (:func:`_block_solve`): inverse iteration's vectors
    depend at rounding level on the range they are formed in, so a count
    of the block's own keeps the pairs independent of the block order. The
    kept values only rise, so no block is reduced twice."""
    values, vectors = np.zeros(0), np.zeros((sum(blocks.orders), 0))

    def select(v):
        reaches = len(values) < top or v[-1] >= values[0]
        return range(max(len(v) - top, 0), len(v)) if reaches else range(0)

    for k in range(len(blocks.parts)):
        v, x = _block_solve(blocks, k, select)
        merged = np.concatenate((values, v[len(v) - x.shape[1]:]))
        order = np.argsort(merged, kind="stable")[-top:]
        values, vectors = merged[order], np.hstack((vectors, x))[:, order]
    return EigDecomposition(values, _fix_signs(vectors))


def mirror_split(a, basis, order=None):
    """The blocks Q_k^T A Q_k of a symmetric ``a`` in the mirror basis
    (:class:`masscale.fem.MirrorBasis`), as :class:`Blocks`, or None when
    ``a`` does not commute with the reflections to within the dense
    error. A :class:`CheckedMatrix` calls it once and keeps the result as
    its ``split``; ``a`` itself is not checked for symmetry here.

    The block entries use the commutation: the column of Q_k for
    representative d is sqrt(s) P_k e_d, so Q_k^T A Q_k is sqrt(s) times
    the representatives' rows of A Q_k, with Q_k sparse
    (``basis.columns``). The commutation is checked on the same rows: A
    commutes with every group element g exactly when D_g = R_g A R_g - A
    vanishes on them, and each of those rows of D_g is a representative's
    row of A subtracted from its image's row, permuted and signed. ``a``
    is read as CSR (a dense one is converted) through the stored entries
    of those rows (:func:`_coupling`), in strips of representatives whose
    rows, seven images each, hold about _STRIP_ENTRIES entries: each strip
    is one sparse difference for all seven D_g, and the check stops at the
    first strip that fails (a matrix of the kinds_small mesh, n = 360, is
    one strip; the benchmark plate's K five). Each row of
    any D_g is the difference of two such rows, and the coupling between
    blocks that the solve drops is E = -(1/8) sum_g D_g, so with rho the
    largest absolute row sum over the checked rows, ||E||_2 <= 2 rho; the
    blocks formed from the rows differ from the exact ones by at most
    sqrt(8) ||E||_2 more. Accepting rho <= n * eps * max|A| / 8 therefore
    keeps every ignored term within n * eps * ||A||_2, the backward error
    of the dense solve itself, which :func:`rigid_cutoff` carries over to
    the eigenvalues as n * eps * lambda_max. The hex8 meshes' matrices
    mirror to rounding of their sums: the benchmark plate's K, whose
    elements share one stiffness, to 5.4e-16 of max|A| in row sum,
    against 6.7e-14 allowed. The n of the limit is ``order``, by default
    ``a``'s: A_s of I_3 (x) A_s keeps its matrix's n, as the y and z rows'
    sums are its rows', and n/3 would refuse Hoffmann's Mbar on some meshes.

    Each block is formed on its own (:func:`_mirror_block`) and stored as
    CSC, or as its 1-D diagonal when ``a`` :func:`is_diagonal` (dropping
    off-diagonal entries below that test's tolerance).

    A :class:`LowRankUpdate` A = B + V S V^T adds W_k S_k W_k^T to B's
    blocks, W_k the columns of Q_k^T V that block k holds most of. With
    Q^T v_j = p_j + e_j, p_j in that block, this drops delta <= sum_j
    |s_j| ||e_j|| (2 ||p_j|| + ||e_j||) in 2-norm; accepting delta <= n *
    eps * max|A| / 8 (max|A| the largest diagonal entry of the SPD A)
    keeps all ignored terms within 1.1 n * eps * ||A||_2 for S >= 0. Global
    deflation's V = M U, U from the blocks, gives delta <= 1.4e-2 n * eps
    * max|A| on the benchmark meshes; LAPACK's vectors can mix blocks. An
    update whose B does not split is None before any Q_k^T V is formed. A
    block that W_k S_k W_k^T fills is stored dense; one that the update
    leaves at zero keeps B's block as it is.
    """
    if isinstance(a, LowRankUpdate):
        split = mirror_split(a.base, basis)
        if split is None:
            return None
        w = [split.restrict(k, a.factors) for k in range(len(split.parts))]  # (m_k, r)
        norms = np.array([np.einsum("ij,ij->j", x, x) for x in w])  # ||Q_k^T v_j||^2
        own = np.arange(len(w))[:, None] == norms.argmax(axis=0)
        leak = np.sqrt(np.where(own, 0.0, norms).sum(axis=0))
        delta = np.abs(a.core) @ (leak * (2.0 * np.sqrt(norms.max(axis=0)) + leak))
        if not delta <= a.shape[0] * _EPS * a.diagonal().max() / 8:
            return None
        # a block that the update leaves alone keeps the base's storage
        return Blocks([symmetrize(_dense_part(b) + (x[:, o] * a.core[o]) @ x[:, o].T)
                       if a.core[o].any() else b for b, x, o in zip(split.parts, w, own)], basis)
    a = _csr(a)
    reps = np.unique(np.concatenate(basis.reps))  # one dof of every orbit
    limit = (order or a.shape[0]) * _EPS * np.abs(a.data).max(initial=0.0) / 8
    if not all(_coupling(a, basis, reps[strip]) <= limit
               for strip in _strips(7 * np.diff(a.indptr)[reps])):
        return None
    diagonal = is_diagonal(a)
    return Blocks([_mirror_block(a, r, q, np.sqrt(basis.sizes[r]), diagonal)
                   for r, q in zip(basis.reps, basis.columns)], basis)


def _coupling(a, basis, reps):
    """The largest absolute row sum of D_g = R_g A R_g - A over the rows
    ``reps`` and g = 1..7, for the CSR ``a``: each row of D_g is the
    representative's row of A subtracted from its image's row, permuted
    and signed, all 7 * len(reps) of them formed as one sparse difference."""
    from scipy import sparse  # deferred: its import would add to every CLI start

    n, m = a.shape[0], len(reps)
    # row (g - 1) * m + i: row reps[i] of R_g A R_g - A, for g = 1..7
    images = a[basis.images[1:, reps].ravel()]
    lengths = np.diff(images.indptr)
    flat = np.repeat(np.repeat(np.arange(1, 8), m) * n, lengths) + images.indices
    signs = basis.signs.ravel()[flat] * np.repeat(basis.signs[1:, reps].ravel(), lengths)
    mirrored = sparse.csr_array((images.data * signs, basis.images.ravel()[flat],
                                 images.indptr), shape=(7 * m, n))
    mirrored.sort_indices()
    diff = mirrored - a[np.tile(reps, 7)]
    return np.bincount(_rows_of(diff), np.abs(diff.data), minlength=7 * m).max(initial=0.0)


def _mirror_block(a, reps, q, scale, diagonal):
    """One block Q_k^T A Q_k of the CSR ``a`` that mirrors, for the block's
    representatives ``reps``, its columns ``q``
    (:attr:`masscale.fem.MirrorBasis.columns`, one entry per row at most)
    and ``scale`` = sqrt(s) of each rep: the 1-D diagonal for a
    ``diagonal`` ``a``, else a CSC array.

    The block is symmetrize(dense(a[reps] @ q) * scale[:, None]), bit for
    bit, formed without a sparse product: the reps' stored entries a_ij
    are gathered once, and each (i, c) sums a_ij q_jc over j in ascending
    order, as scipy's product does (``np.bincount`` adds in input order).
    The one dense transient, of the block's order, is scaled, symmetrized
    in place and its entries != 0 kept; a diagonal takes only slots (i, i)."""
    m, n = len(reps), a.shape[0]
    col, coef = np.full(n, -1), np.zeros(n)  # the column and entry of q in each row
    col[_rows_of(q)], coef[_rows_of(q)] = q.indices, q.data
    starts = a.indptr[reps]
    lengths = a.indptr[reps + 1] - starts
    rows = np.repeat(np.arange(m), lengths)
    # the index in a.data of each stored entry of the reps' rows, row after row
    entries = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    cols = col[a.indices[entries]]
    keep = np.flatnonzero(cols == rows if diagonal else cols >= 0)
    rows, cols, entries = rows[keep], cols[keep], entries[keep]
    terms = a.data[entries] * coef[a.indices[entries]]
    if diagonal:
        return np.bincount(rows, terms, minlength=m) * scale
    block = np.bincount(rows * m + cols, terms, minlength=m * m).reshape(m, m)
    block *= scale[:, None]
    _symmetrize_in_place(block)
    from scipy import sparse  # deferred: its import would add to every CLI start

    rows, cols, values = _stored(block)  # the symmetric block's CSR arrays, read as CSC
    return sparse.csc_array((values, cols, np.searchsorted(rows, np.arange(m + 1))), shape=(m, m))


def _reduce(c):
    """All eigenvalues of the symmetric C, ascending, and its reduction
    C = Q T Q^T to tridiagonal T, formed in place in the Fortran-ordered
    ``c`` (as :func:`_standard_form` gives it) by LAPACK's blocked
    Householder reduction (dsytrd) of the lower triangle: the values are
    T's (dsterf), and the reduction is (reflectors, diagonal, off-diagonal,
    tau) for :func:`_vectors`. The reflectors lie below the first
    subdiagonal of the first array (H(i) acts on rows i+1 onward), and
    nothing reads its diagonal or upper triangle again."""
    lwork = int(sla.lapack.dsytrd_lwork(len(c), lower=1)[0])
    r, d, e, tau, info = sla.lapack.dsytrd(c, lower=1, lwork=lwork, overwrite_a=1)
    if info != 0:  # pragma: no cover - LAPACK reports illegal arguments only
        raise ValueError(f"illegal argument {-info} to dsytrd")
    # the wrapper rejects the empty e of a 1 x 1 block, which is its own value
    values, info = sla.lapack.dsterf(d, e) if len(d) > 1 else (d.copy(), 0)
    if info != 0:
        raise np.linalg.LinAlgError("tridiagonal eigenvalues did not converge")
    return values, (r, d, e, tau)


def _vectors(reduced, rows):
    """The eigenvectors of C for its values ``rows``, a nonempty range of
    indices, from the :func:`_reduce` reduction of C: those of T (bisection
    and inverse iteration), mapped back by Q = H(1) ... H(m-1)."""
    r, d, e, tau = reduced
    z = sla.eigh_tridiagonal(d, e, select="i", select_range=(rows.start, rows.stop - 1))[1]
    if len(z) > 1:
        v = np.asfortranarray(r[1:, :-1])
        lwork = int(sla.lapack.dormqr("L", "N", v, tau, z[1:], -1)[1][0])
        z[1:] = sla.lapack.dormqr("L", "N", v, tau, z[1:], lwork)[0]
    return z


def generalized_eigvalues(pair):
    """Eigenvalues only of A u = lambda B u, as accurate as :func:`generalized_eig`.

    ``pair`` is a :class:`MatrixPair` or a tuple (A, B), checked here as
    one; its members are raw or checked matrices, sparse or dense. Each
    block pair (:func:`block_pairs`) is solved once (:func:`_block_solve`)
    and forms the vectors of its values below _LOW_CUT times the largest
    value seen so far (:func:`_below_cut`): at most its share of the low
    tail that :func:`low_tail` marks on the merged values, as lambda_max
    only grows. A block whose share is larger is solved again for it, and
    the tail is recomputed by :func:`_ritz` on the full pencil, whose
    matrices are read only then, and not checked again. A pencil
    (I_3 (x) A_s, I_3 (x) B_s) is solved as (A_s, B_s)
    (:attr:`CheckedMatrix.component`), each value thrice.
    """
    pair = pair if isinstance(pair, MatrixPair) else MatrixPair(*pair)
    components = [getattr(m, "component", None) for m in (pair.a, pair.b)]
    members = components if all(components) else (pair.a, pair.b)
    blocks = block_pairs(*members)
    n, top, parts, tails = sum(blocks.orders), -np.inf, [], []
    for k in range(len(blocks.parts)):
        values, x = _block_solve(blocks, k, lambda v: range(_below_cut(v, max(top, v[-1]), n)),
                                 True)
        top = max(top, values[-1])
        parts.append(values)
        tails.append(x)
    owner = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    order = np.argsort(np.concatenate(parts), kind="stable")
    values = np.concatenate(parts)[order]
    count = low_tail(values)
    if count:
        shares = np.bincount(owner[order[:count]], minlength=len(parts))
        for k, share in enumerate(shares):
            if share != tails[k].shape[1]:  # lambda_max grew after block k
                tails[k] = _block_solve(blocks, k, lambda _: range(share))[1]
        x = np.hstack(tails)
        del blocks, tails  # joined blocks of a decoupled member are freed before the Ritz step
        values[:count] = _ritz(*members, x)[0]
    return np.repeat(values, 3) if all(components) else values


def _block_solve(blocks, k, select, early=False):
    """The ascending values of block pair k of ``blocks``, and the vectors
    of its values ``select(values)``, a range of indices, mapped back to
    order n: from the block's :func:`_reduce` reduction, freed on return,
    with L_k^T copied into its unread upper triangle, so that :func:`_back`
    reads it Fortran-ordered. An ``early`` block whose vectors LAPACK's
    bisection cannot form (near overflow) forms none: the tail step meets
    that failure after every block is reduced, or never."""
    c, factor = _standard_form(blocks.parts[k], blocks.basis is not None)
    values, reduction = _reduce(c)
    rows = select(values)
    if not rows:
        return values, np.zeros((sum(blocks.orders), 0))
    if factor.ndim == 2:  # L^T's own array is freed before the vectors are formed
        np.copyto(reduction[0], factor, where=~np.tri(len(c), k=-1, dtype=bool))
        factor = reduction[0]
    try:
        z = _vectors(reduction, rows)
    except np.linalg.LinAlgError:
        if not early:
            raise
        return values, np.zeros((sum(blocks.orders), 0))
    return values, blocks.expand(k, _back(factor, z))


def extreme_eigvalues(a):
    """(lambda_min, lambda_max) of a symmetric matrix: a
    :class:`CheckedMatrix`, or a sparse or dense array that is checked here
    as one, with no basis. A matrix I_3 (x) A_s is read as A_s
    (:attr:`CheckedMatrix.component`). A matrix that :func:`is_diagonal`
    accepts gives the ends of its diagonal, exactly; any other the ends of
    its blocks' values (:func:`block_pairs`, :func:`_reduce`).
    """
    a = a if isinstance(a, CheckedMatrix) else CheckedMatrix(a, name="a")
    a = a.component or a
    if a.is_diagonal:
        d = _operand(a).diagonal()
        return np.array([d.min(), d.max()])
    ends = np.array([_reduce(_dense_part(m))[0][[0, -1]] for m, in block_pairs(a).parts])
    return np.array([ends[:, 0].min(), ends[:, 1].max()])


def woodbury_factor(update):
    """Precompute solves with base + V S V^T through the Woodbury identity.

    Returns ``solve(rhs)`` for a vector or a matrix of columns. The SPD
    base is factored once with :func:`factor_spd` (a diagonal base
    divides). Zero core entries are dropped (they contribute
    nothing). The r x r inner system S^{-1} + V^T B^{-1} V is solved here
    once for all of V^T, so each later solve costs one base solve and two
    n x r products.
    """
    _, solve_base = factor_spd(update.base)
    keep = np.flatnonzero(update.core != 0.0)
    if keep.size == 0:
        return solve_base
    v = update.factors[:, keep]
    bv = solve_base(v)
    inner = np.diag(1.0 / update.core[keep]) + v.T @ bv
    try:
        coef = sla.solve(inner, v.T, assume_a="sym")
    except (sla.LinAlgError, ValueError) as exc:
        raise SingularCore(str(exc)) from exc
    if not np.all(np.isfinite(coef)):
        raise SingularCore("inner system produced non-finite solution")

    def solve(rhs):
        y = solve_base(rhs)
        return y - bv @ (coef @ y)

    return solve


def condition_number(values):
    """lambda_max / lambda_min of ascending eigenvalues, such as
    ``generalized_eig(pair).values``; raises :class:`NotPositiveDefinite`
    when lambda_min <= 0."""
    if values[0] <= 0:
        raise NotPositiveDefinite(0, "nonpositive smallest eigenvalue")
    return float(values[-1] / values[0])

"""Trilinear hexahedral elements, mass lumping, structured meshes, assembly.

Degree-of-freedom ordering is component-blocked everywhere: all x
displacements first, then all y, then all z. Element matrices use the
local counterpart (local dof = component * 8 + vertex), so Kronecker
structures of the form I_3 (x) A stay block-diagonal per component.

Elements are handled all at once. :func:`element_blocks` returns
:class:`ElementBlocks`, stacked arrays with element e in row e, from one
quadrature kernel over elements and Gauss points; ``blocks[e]`` is that
element's :class:`ElementBlock`. On a uniform mesh the kernel forms the
stiffness of element 0 alone and every element shares it through a
read-only view, so congruent elements carry the same bits; each
element's masses are its own. :func:`assemble_sparse` scatters stacked
element matrices into the global matrix as a CSR array, with one
``bincount`` into the slots of the blocks' sparsity pattern, which
:class:`ElementBlocks` computes once; :func:`assemble` returns the same
matrix as a dense array, or with ``sparse=True`` as that CSR array.

:func:`mirror_basis` finds the three mid-plane reflections of a mesh
whose nodes mirror (every box mesh) and returns a :class:`MirrorBasis`:
an orthonormal dof basis in eight blocks, one per character of the group
the reflections generate, each block's columns a sparse array (each dof
lies in one orbit, so each row of a block holds one entry at most). The
matrices assembled on such a mesh commute with the reflections and are
block diagonal in it. A reflection keeps the component-blocked order and
flips the sign of its own component. :func:`hex8_reflections` gives the
same three reflections on the 24 local dofs of a box element.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateJacobian,
    IndexOutOfRange,
    InvalidCounts,
    NegativeLumpedEntry,
)
from .linalg import symmetrize

__all__ = [
    "Material",
    "Mesh",
    "ElementBlock",
    "ElementBlocks",
    "lump_row_sum",
    "build_structured_mesh",
    "element_blocks",
    "assemble",
    "assemble_sparse",
    "MirrorBasis",
    "mirror_basis",
    "hex8_reflections",
    "rigid_body_modes",
]

# Vertex order: bottom ring counterclockwise (viewed from +z), then top ring.
_CORNER_SIGNS = np.array(
    [
        [-1, -1, -1],
        [+1, -1, -1],
        [+1, +1, -1],
        [-1, +1, -1],
        [-1, -1, +1],
        [+1, -1, +1],
        [+1, +1, +1],
        [-1, +1, +1],
    ],
    dtype=float,
)

# Strain-displacement entries (strain row, displacement component, gradient
# direction) in Voigt order xx, yy, zz, xy, yz, xz with engineering shear.
_B_ENTRIES = ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 0, 1), (3, 1, 0),
              (4, 1, 2), (4, 2, 1), (5, 0, 2), (5, 2, 0))


@dataclass(frozen=True)
class Material:
    """Isotropic linear elastic material in SI units."""

    young_modulus: float  # Pa
    poisson_ratio: float
    density: float  # kg/m^3

    def __post_init__(self):
        if self.young_modulus <= 0:
            raise ValueError("young_modulus must be positive")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError("poisson_ratio must lie in [0, 0.5)")
        if self.density <= 0:
            raise ValueError("density must be positive")

    def lame(self):
        e, nu = self.young_modulus, self.poisson_ratio
        lam = e * nu / ((1 + nu) * (1 - 2 * nu))
        mu = e / (2 * (1 + nu))
        return lam, mu

    def elasticity(self):
        """6x6 isotropic elasticity matrix (engineering shear strains)."""
        lam, mu = self.lame()
        d = np.zeros((6, 6))
        d[:3, :3] = lam
        d[np.arange(3), np.arange(3)] += 2 * mu
        d[np.arange(3, 6), np.arange(3, 6)] = mu
        return d


def shape_functions(xi):
    """Trilinear shape values (8,) at reference point xi in [-1, 1]^3."""
    t = 1.0 + _CORNER_SIGNS * np.asarray(xi, dtype=float)
    return 0.125 * t[:, 0] * t[:, 1] * t[:, 2]


def shape_gradients(xi):
    """Reference-coordinate gradients dN/dxi, shape (8, 3)."""
    xi = np.asarray(xi, dtype=float)
    t = 1.0 + _CORNER_SIGNS * xi
    g = np.empty((8, 3))
    g[:, 0] = 0.125 * _CORNER_SIGNS[:, 0] * t[:, 1] * t[:, 2]
    g[:, 1] = 0.125 * _CORNER_SIGNS[:, 1] * t[:, 0] * t[:, 2]
    g[:, 2] = 0.125 * _CORNER_SIGNS[:, 2] * t[:, 0] * t[:, 1]
    return g


def gauss_points(n):
    """Tensor-product Gauss rule on [-1, 1]^3: (points (n^3, 3), weights)."""
    x, w = np.polynomial.legendre.leggauss(n)
    pts = np.array([(a, b, c) for a in x for b in x for c in x])
    wts = np.array([wa * wb * wc for wa in w for wb in w for wc in w])
    return pts, wts


def _hex8_matrices(corners, material, shared=False):
    """Stiffness and consistent mass of every element, each (E, 24, 24).

    ``corners`` is (E, 8, 3). The loop runs over the 2x2x2 Gauss points;
    at each one the Jacobians, their determinants and the physical shape
    gradients of all elements are batched, and K_e += w det J B^T D B and
    M8_e += w det J rho N N^T add the point's terms, so each element gets
    the same arithmetic as a loop over its own points. With ``shared``
    the stiffness terms are formed for element 0 alone, on a leading axis
    of 1, and the stiffness returned is a read-only view that gives every
    element element 0's matrix. Raises :class:`DegenerateJacobian` naming
    the first element with det J <= 0.
    """
    d = material.elasticity()
    count = corners.shape[0]
    formed = 1 if shared else count  # elements whose stiffness is formed
    stiffness, m8 = np.zeros((formed, 24, 24)), np.zeros((count, 8, 8))
    pts, wts = gauss_points(2)
    for xi, w in zip(pts, wts):
        dn_dxi = shape_gradients(xi)
        jac = dn_dxi.T @ corners  # J[i, j] = d x_j / d xi_i
        det = np.linalg.det(jac)
        bad = np.flatnonzero(~(det > 0))
        if bad.size:
            raise DegenerateJacobian(
                f"element {bad[0]}: det J = {det[bad[0]]:g} at quadrature point {xi}")
        dn_dx = np.linalg.solve(jac[:formed], np.broadcast_to(dn_dxi.T, (formed, 3, 8)))
        b = np.zeros((formed, 6, 24))
        for row, comp, direction in _B_ENTRIES:
            b[:, row, comp * 8:(comp + 1) * 8] = dn_dx[:, direction]
        stiffness += (w * det[:formed])[:, None, None] * (b.transpose(0, 2, 1) @ d @ b)
        n = shape_functions(xi)
        m8 += (w * det * material.density)[:, None, None] * np.outer(n, n)
    m8, mass = symmetrize(m8), np.zeros((count, 24, 24))
    for c in range(3):
        mass[:, c * 8:(c + 1) * 8, c * 8:(c + 1) * 8] = m8
    return np.broadcast_to(symmetrize(stiffness), (count, 24, 24)), mass


def hex8_reflections():
    """The three mid-plane reflections of a box element, as signed
    permutations of its 24 local dofs, (3, 24, 24): reflection a sends
    each vertex to the one whose corner sign along axis a is flipped and
    flips the sign of displacement component a. Each is symmetric and its
    own inverse, and the matrices of a box element commute with them."""
    out = np.zeros((3, 24, 24))
    vertices = np.arange(8)
    for axis in range(3):
        flipped = _CORNER_SIGNS * np.where(np.arange(3) == axis, -1, 1)
        image = (flipped[:, None] == _CORNER_SIGNS).all(axis=2).argmax(axis=1)
        for c in range(3):
            out[axis, c * 8 + image, c * 8 + vertices] = -1.0 if c == axis else 1.0
    return out


def lump_row_sum(consistent):
    """Row-sum lumping of a (24, 24) or stacked (E, 24, 24) consistent mass;
    returns the diagonals, (24,) or (E, 24). A nonpositive entry raises
    :class:`NegativeLumpedEntry`, naming the element when stacked."""
    diag = np.asarray(consistent, dtype=float).sum(axis=-1)
    bad = np.argwhere(~(diag > 0))
    if bad.size:
        where = f" in element {bad[0][0]}" if diag.ndim == 2 else ""
        raise NegativeLumpedEntry(f"row-sum produced a nonpositive entry{where}")
    return diag


@dataclass(frozen=True)
class Mesh:
    """Hexahedral mesh: node coordinates plus element connectivity.

    ``coords`` must be (N, 3) and finite, ``connectivity`` (E, 8) and
    integral, or ``ValueError`` is raised; a node index outside the mesh
    raises :class:`IndexOutOfRange`.
    """

    coords: np.ndarray  # (node_count, 3)
    connectivity: np.ndarray  # (element_count, 8) node indices

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(f"coords must have shape (N, 3), got {coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError("coords contains non-finite entries")
        conn = np.asarray(self.connectivity)
        if not np.issubdtype(conn.dtype, np.integer):
            raise ValueError(f"connectivity must hold integers, got dtype {conn.dtype}")
        if conn.ndim != 2 or conn.shape[1] != 8:
            raise ValueError(f"connectivity must have shape (E, 8), got {conn.shape}")
        conn = conn.astype(int)
        if conn.min(initial=0) < 0 or conn.max(initial=-1) >= coords.shape[0]:
            raise IndexOutOfRange("connectivity references an invalid node")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "connectivity", conn)

    @property
    def node_count(self):
        return self.coords.shape[0]

    @property
    def element_count(self):
        return self.connectivity.shape[0]

    @property
    def dof_count(self):
        return 3 * self.node_count

    @property
    def p_max(self):
        """Maximum number of elements sharing a node."""
        counts = np.bincount(self.connectivity.ravel(), minlength=self.node_count)
        return int(counts.max())

    def dof_map(self, e):
        """Global dof indices, component-blocked: (24,) for element index
        ``e``, (E, 24) for a slice of elements."""
        nodes = self.connectivity[e]
        return np.concatenate([c * self.node_count + nodes for c in range(3)], axis=-1)

    def is_uniform(self, rtol=1e-12):
        """True when all elements are translates of one axis-aligned box:
        every corner offset from corner 0 matches, to rtol of the largest
        offset, that of the box spanned by corners 0 and 6 of the first
        element."""
        if self.element_count == 0:
            return False
        corners = self.coords[self.connectivity]
        local = corners - corners[:, :1]
        box = (_CORNER_SIGNS + 1) / 2 * local[0, 6]
        return bool(np.all(np.abs(local - box) <= rtol * np.abs(box).max()))


def build_structured_mesh(node_counts, extents):
    """Uniform structured grid of hex8 elements over a box.

    ``node_counts`` = (nx, ny, nz) nodes per direction (each >= 2),
    ``extents`` = (Lx, Ly, Lz) in meters.
    """
    nx, ny, nz = (int(c) for c in node_counts)
    if min(nx, ny, nz) < 2:
        raise InvalidCounts(f"node counts must be >= 2, got {node_counts}")
    lx, ly, lz = (float(v) for v in extents)
    if min(lx, ly, lz) <= 0:
        raise InvalidCounts(f"extents must be positive, got {extents}")
    # node (ix, iy, iz) has index ix + nx * (iy + ny * iz); elements run x fastest
    z, y, x = np.meshgrid(*(np.linspace(0.0, length, count) for length, count
                            in ((lz, nz), (ly, ny), (lx, nx))), indexing="ij")
    coords = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    first = np.arange(nx * ny * nz).reshape(nz, ny, nx)[:-1, :-1, :-1].ravel()
    corner = ((_CORNER_SIGNS + 1) / 2).astype(int) @ np.array([1, nx, nx * ny])
    return Mesh(coords, first[:, None] + corner)


@dataclass(frozen=True)
class ElementBlock:
    """One element's matrices plus the map into global dof indices, as
    ``ElementBlocks[e]`` gives them."""

    stiffness: np.ndarray  # (24, 24)
    consistent_mass: np.ndarray  # (24, 24)
    lumped_mass: np.ndarray  # (24,) diagonal
    element_mass: float  # kg
    dof_map: np.ndarray  # (24,) global indices


@dataclass(frozen=True)
class ElementBlocks:
    """The matrices of every element, stacked: element e is row e of each
    array. ``len(blocks)`` is the element count and ``blocks[e]`` the
    :class:`ElementBlock` of element e, so iteration yields those in
    order. The stiffness may be a read-only view that repeats element 0's
    matrix for every element (:attr:`shared`). A dof map that repeats an
    index raises :class:`IndexOutOfRange` naming the first such element.
    """

    stiffness: np.ndarray  # (E, 24, 24), possibly a broadcast view
    consistent_mass: np.ndarray  # (E, 24, 24)
    lumped_mass: np.ndarray  # (E, 24) diagonals
    element_mass: np.ndarray  # (E,) kg
    dof_map: np.ndarray  # (E, 24) global indices

    def __post_init__(self):
        dof = np.asarray(self.dof_map, dtype=int)
        ordered = np.sort(dof, axis=1)
        bad = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if bad.size:
            raise IndexOutOfRange(f"dof_map of element {bad[0]} is not injective")
        object.__setattr__(self, "dof_map", dof)

    def __len__(self):
        return self.dof_map.shape[0]

    def __getitem__(self, e):
        return ElementBlock(self.stiffness[e], self.consistent_mass[e], self.lumped_mass[e],
                            float(self.element_mass[e]), self.dof_map[e])

    @property
    def shared(self):
        """True when every element's stiffness is a view of element 0's, as
        :func:`element_blocks` gives it on a uniform mesh."""
        return self.stiffness.strides[0] == 0

    @functools.cached_property
    def pattern(self):
        """The sparsity pattern of an assembled matrix, computed once:
        ``(slots, rows, cols)``, where entry (i, j) of element e's matrix
        adds into slot ``slots[e, i, j]``, and slot s is entry
        (``rows[s]``, ``cols[s]``) of the global matrix. The slots run in
        CSR order, by row and then by column."""
        dof = self.dof_map
        size = int(dof.max(initial=-1)) + 1
        keys = dof[:, :, None] * size + dof[:, None, :]
        unique, slots = np.unique(keys, return_inverse=True)
        rows, cols = np.divmod(unique, size)
        index = _index_type(max(len(unique), size))
        return slots.reshape(keys.shape).astype(index), rows.astype(index), cols.astype(index)


def _index_type(size):
    """The integer type of sparse indices up to ``size``: 32-bit where they
    fit, which halves their memory and the bandwidth of each product."""
    return np.int32 if size < 2**31 else np.int64


def element_blocks(mesh, material):
    """Stiffness, consistent and row-sum lumped mass of every element of
    the mesh, stacked. On a uniform mesh (:meth:`Mesh.is_uniform`) the
    stiffness is formed once, for element 0, and shared as a read-only
    view (:attr:`ElementBlocks.shared`); the masses are each element's
    own."""
    stiffness, consistent = _hex8_matrices(mesh.coords[mesh.connectivity], material,
                                           shared=mesh.is_uniform())
    diag = lump_row_sum(consistent)
    masses = diag[:, :8].sum(axis=1)  # translational mass in one direction
    return ElementBlocks(stiffness, consistent, diag, masses, mesh.dof_map(slice(None)))


def assemble_sparse(blocks, which, ndof, element_matrices=None):
    """Global matrix A = sum_e L_e^T A_e L_e as a symmetric CSR array.

    ``which`` selects stiffness | consistent | lumped from the
    :class:`ElementBlocks`; pass ``which="custom"`` with explicit
    ``element_matrices`` ((E, 24, 24), one per element, e.g. scaled
    masses) to assemble arbitrary contributions. Each A_e is symmetrized,
    and one ``bincount`` adds the entries into the slots of
    ``blocks.pattern`` (the diagonal alone for the lumped mass) in element
    order, so that A_ij and A_ji receive the same terms in the same order:
    the result is exactly symmetric, and each entry is summed as an
    element-by-element loop would sum it. Entries that sum to zero are
    not stored.
    """
    from scipy import sparse  # deferred: its import would add to every CLI start

    dof = blocks.dof_map
    bad = np.flatnonzero((dof < 0).any(axis=1) | (dof >= ndof).any(axis=1))
    if bad.size:
        raise IndexOutOfRange(f"dof map of element {bad[0]} exceeds range {ndof}")
    if which == "lumped":
        data = np.bincount(dof.ravel(), weights=blocks.lumped_mass.ravel(), minlength=ndof)
        rows = cols = np.arange(ndof, dtype=_index_type(ndof))
    else:
        chosen = {"stiffness": blocks.stiffness, "consistent": blocks.consistent_mass,
                  "custom": element_matrices}
        if which not in chosen:
            raise ValueError(f"unknown matrix kind {which!r}")
        slots, rows, cols = blocks.pattern
        data = np.bincount(slots.ravel(), weights=symmetrize(chosen[which]).ravel(),
                           minlength=len(rows))
    keep = data != 0
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=ndof))))
    return sparse.csr_array((data[keep], cols[keep], indptr.astype(cols.dtype)),
                            shape=(ndof, ndof))


def assemble(blocks, which, ndof, element_matrices=None, sparse=False):
    """:func:`assemble_sparse` as a dense array, the same entries bit for
    bit, or with ``sparse`` the CSR array itself. Every assembly of the
    package passes through here, so one entry point sees them all."""
    a = assemble_sparse(blocks, which, ndof, element_matrices)
    return a if sparse else a.toarray()


@dataclass(frozen=True)
class MirrorBasis:
    """Orthonormal dof basis adapted to the three mid-plane reflections.

    The reflections generate a group of eight elements; element g, whose
    bits (x, y, z) name the reflections it composes, maps dof d to
    ``images[g, d]`` with sign ``signs[g, d]``. Block k is the image of
    P_k = (1/8) sum_g chi_k(g) R_g, where ``characters[k, g]`` = chi_k(g)
    is -1 on the reflections in k and +1 on the others. Its columns are
    sqrt(s) P_k e_d, one for each representative d in ``reps[k]`` (the
    smallest dof of an orbit of ``sizes[d]`` = s dofs that P_k does not
    annihilate): s entries of +-1/sqrt(s). A matrix that commutes with
    the reflections is block diagonal in this basis.
    """

    images: np.ndarray  # (8, n) dof index of g(d)
    signs: np.ndarray  # (8, n) sign of g(d)
    sizes: np.ndarray  # (n,) orbit size of each dof
    reps: tuple  # 8 arrays of representative dofs, one per block
    characters: np.ndarray  # (8, 8) chi_k(g), +-1

    @property
    def order(self):
        return self.images.shape[1]

    @functools.cached_property
    def columns(self):
        """Q_k of each block k, as eight CSR arrays of shape (n, m_k). Each
        row holds one entry at most: for d = g(r), with r the
        representative of d's orbit, chi_k(g) sign_g(r) / sqrt(s) in the
        column of r."""
        from scipy import sparse  # deferred: its import would add to every CLI start

        out = []
        for chi, reps in zip(self.characters, self.reps):
            # the images of an orbit's representative repeat with equal entries
            dofs, first = np.unique(self.images[:, reps], return_index=True)
            coef = chi[:, None] * self.signs[:, reps] / np.sqrt(self.sizes[reps])
            cols = np.broadcast_to(np.arange(len(reps)), coef.shape)
            out.append(sparse.csr_array((coef.ravel()[first], (dofs, cols.ravel()[first])),
                                        shape=(self.order, len(reps))))
        return out

    def expand(self, k, y):
        """Q_k @ y for the (m_k, t) coefficients ``y`` of block k; (n, t)."""
        return self.columns[k] @ y


def mirror_basis(mesh):
    """The :class:`MirrorBasis` of a mesh whose nodes mirror, else None.

    The reflection along an axis maps x to lo + hi - x, where lo and hi
    are the ends of the nodes' range on that axis. Nodes are matched on a
    grid of spacing 1e-9 of the largest extent: the reflected nodes must
    round to the same grid points as the nodes. The match is a candidate
    symmetry only: whether a matrix assembled on the mesh commutes with
    the reflections is for its user to check.
    """
    coords = mesh.coords
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    spacing = 1e-9 * (hi - lo).max()
    if not spacing > 0:
        return None
    key = np.round((coords - lo) / spacing)
    order = np.lexsort(key.T)
    nodes = []
    for axis in range(3):
        mirrored = key.copy()
        mirrored[:, axis] = np.round((hi[axis] - coords[:, axis]) / spacing)
        mirrored_order = np.lexsort(mirrored.T)
        if not np.array_equal(key[order], mirrored[mirrored_order]):
            return None
        image = np.empty(mesh.node_count, dtype=int)
        image[mirrored_order] = order  # the node where each reflected node lands
        nodes.append(image)
    count = mesh.node_count
    component = np.arange(3 * count) // count
    images = np.empty((8, 3 * count), dtype=int)
    images[0] = np.arange(3 * count)
    for g in range(1, 8):  # g is h followed by the reflection along its top bit
        axis = g.bit_length() - 1
        images[g] = component * count + nodes[axis][images[g - (1 << axis)] % count]
    # a reflection flips the sign of its own displacement component
    signs = 1.0 - 2.0 * ((np.arange(8)[:, None] >> component) & 1)
    bits = np.array([[bin(k & g).count("1") for g in range(8)] for k in range(8)])
    characters = (-1.0) ** bits
    fixed = images == images[0]
    sizes = 8 // fixed.sum(axis=0)
    # 8 ||P_k e_d||^2 = sum over the stabilizer of chi_k(g) sign_g(d): 8 / s or 0
    norms = characters @ (fixed * signs)
    first = images.min(axis=0) == images[0]
    reps = tuple(np.flatnonzero(first & (row > 0)) for row in norms)
    return MirrorBasis(images, signs, sizes, reps, characters)


def rigid_body_modes(coords):
    """Six rigid-body vectors (3 translations, 3 infinitesimal rotations).

    Returns an array of shape (3 * npts, 6) in component-blocked ordering.
    """
    coords = np.asarray(coords, dtype=float)
    npts = coords.shape[0]
    center = coords.mean(axis=0)
    rel = coords - center
    modes = np.zeros((3 * npts, 6))
    for c in range(3):
        modes[c * npts : (c + 1) * npts, c] = 1.0
    x, y, z = rel[:, 0], rel[:, 1], rel[:, 2]
    # rotation about x: u = (0, -z, y); about y: (z, 0, -x); about z: (-y, x, 0)
    modes[npts : 2 * npts, 3] = -z
    modes[2 * npts :, 3] = y
    modes[:npts, 4] = z
    modes[2 * npts :, 4] = -x
    modes[:npts, 5] = -y
    modes[npts : 2 * npts, 5] = x
    return modes

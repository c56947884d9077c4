"""Trilinear hexahedral elements, mass lumping, structured meshes, assembly.

Degree-of-freedom ordering is component-blocked everywhere: all x
displacements first, then all y, then all z. Element matrices use the
local counterpart (local dof = component * 8 + vertex), so Kronecker
structures of the form I_3 (x) A stay block-diagonal per component.
"""
from __future__ import annotations

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
    "Hex8Geometry",
    "Mesh",
    "ElementBlock",
    "hex8_stiffness",
    "hex8_consistent_mass",
    "lump_row_sum",
    "lump_hrz",
    "build_structured_mesh",
    "element_blocks",
    "assemble",
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


@dataclass(frozen=True)
class Hex8Geometry:
    """Eight corner coordinates (right-handed vertex ordering), meters."""

    corners: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=float)
        if c.shape != (8, 3):
            raise ValueError("corners must have shape (8, 3)")
        object.__setattr__(self, "corners", c)

    @classmethod
    def box(cls, lx, ly, lz, origin=(0.0, 0.0, 0.0)):
        half = 0.5 * np.array([lx, ly, lz])
        center = np.asarray(origin, dtype=float) + half
        return cls(center + _CORNER_SIGNS * half)


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


def hex8_stiffness(geometry, material, quadrature=2):
    """24x24 element stiffness, component-blocked, 2x2x2 Gauss by default."""
    d = material.elasticity()
    k = np.zeros((24, 24))
    pts, wts = gauss_points(quadrature)
    for xi, w in zip(pts, wts):
        dn_dxi = shape_gradients(xi)
        jac = dn_dxi.T @ geometry.corners  # J[i, j] = d x_j / d xi_i
        det = np.linalg.det(jac)
        if det <= 0:
            raise DegenerateJacobian(f"det J = {det:g} at quadrature point {xi}")
        dn_dx = np.linalg.solve(jac, dn_dxi.T).T  # (8, 3) physical gradients
        b = np.zeros((6, 24))
        b[0, 0:8] = dn_dx[:, 0]
        b[1, 8:16] = dn_dx[:, 1]
        b[2, 16:24] = dn_dx[:, 2]
        b[3, 0:8] = dn_dx[:, 1]
        b[3, 8:16] = dn_dx[:, 0]
        b[4, 8:16] = dn_dx[:, 2]
        b[4, 16:24] = dn_dx[:, 1]
        b[5, 0:8] = dn_dx[:, 2]
        b[5, 16:24] = dn_dx[:, 0]
        k += w * det * (b.T @ d @ b)
    return symmetrize(k)


def hex8_consistent_mass(geometry, material, quadrature=2):
    """24x24 consistent mass I_3 (x) M8 with M8[a,b] = int rho N_a N_b."""
    m8 = np.zeros((8, 8))
    pts, wts = gauss_points(quadrature)
    for xi, w in zip(pts, wts):
        dn_dxi = shape_gradients(xi)
        jac = dn_dxi.T @ geometry.corners
        det = np.linalg.det(jac)
        if det <= 0:
            raise DegenerateJacobian(f"det J = {det:g} at quadrature point {xi}")
        n = shape_functions(xi)
        m8 += w * det * material.density * np.outer(n, n)
    return np.kron(np.eye(3), symmetrize(m8))


def lump_row_sum(consistent):
    """Row-sum lumping; returns the diagonal as a vector of length 24."""
    diag = np.asarray(consistent, dtype=float).sum(axis=1)
    if np.any(diag <= 0):
        raise NegativeLumpedEntry("row-sum produced a nonpositive entry")
    return diag


def lump_hrz(consistent):
    """HRZ (diagonal scaling) lumping preserving total mass per component."""
    consistent = np.asarray(consistent, dtype=float)
    diag = np.diag(consistent).copy()
    out = np.empty_like(diag)
    m = diag.shape[0] // 3
    for c in range(3):
        sl = slice(c * m, (c + 1) * m)
        total = consistent[sl, sl].sum()
        out[sl] = diag[sl] * (total / diag[sl].sum())
    if np.any(out <= 0):
        raise NegativeLumpedEntry("HRZ produced a nonpositive entry")
    return out


@dataclass(frozen=True)
class Mesh:
    """Hexahedral mesh: node coordinates plus element connectivity."""

    coords: np.ndarray  # (node_count, 3)
    connectivity: np.ndarray  # (element_count, 8) node indices

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        conn = np.asarray(self.connectivity, dtype=int)
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

    def element_geometry(self, e):
        return Hex8Geometry(self.coords[self.connectivity[e]])

    def dof_map(self, e):
        """24 global dof indices of element e, component-blocked."""
        nodes = self.connectivity[e]
        return np.concatenate([c * self.node_count + nodes for c in range(3)])

    def is_uniform(self, rtol=1e-12):
        """True when all elements are congruent axis-aligned boxes."""
        ref = None
        for e in range(self.element_count):
            c = self.coords[self.connectivity[e]]
            local = c - c[0]
            if ref is None:
                ref = local
            elif not np.allclose(local, ref, rtol=0, atol=rtol * np.abs(ref).max()):
                return False
        return ref is not None


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
    xs = np.linspace(0.0, lx, nx)
    ys = np.linspace(0.0, ly, ny)
    zs = np.linspace(0.0, lz, nz)

    def nid(ix, iy, iz):
        return ix + nx * (iy + ny * iz)

    coords = np.empty((nx * ny * nz, 3))
    for iz in range(nz):
        for iy in range(ny):
            for ix in range(nx):
                coords[nid(ix, iy, iz)] = (xs[ix], ys[iy], zs[iz])

    conn = []
    for iz in range(nz - 1):
        for iy in range(ny - 1):
            for ix in range(nx - 1):
                conn.append(
                    [
                        nid(ix, iy, iz),
                        nid(ix + 1, iy, iz),
                        nid(ix + 1, iy + 1, iz),
                        nid(ix, iy + 1, iz),
                        nid(ix, iy, iz + 1),
                        nid(ix + 1, iy, iz + 1),
                        nid(ix + 1, iy + 1, iz + 1),
                        nid(ix, iy + 1, iz + 1),
                    ]
                )
    return Mesh(coords, np.array(conn, dtype=int))


@dataclass(frozen=True)
class ElementBlock:
    """Per-element matrices plus the map into global dof indices."""

    stiffness: np.ndarray  # (24, 24)
    consistent_mass: np.ndarray  # (24, 24)
    lumped_mass: np.ndarray  # (24,) diagonal
    element_mass: float  # kg
    dof_map: np.ndarray  # (24,) global indices

    def __post_init__(self):
        dof = np.asarray(self.dof_map, dtype=int)
        if len(np.unique(dof)) != dof.size:
            raise IndexOutOfRange("dof_map is not injective")
        object.__setattr__(self, "dof_map", dof)


def element_blocks(mesh, material, lumping="row_sum"):
    """Build stiffness/mass blocks for every element of the mesh."""
    lump = {"row_sum": lump_row_sum, "hrz": lump_hrz}[lumping]
    blocks = []
    for e in range(mesh.element_count):
        geo = mesh.element_geometry(e)
        k = hex8_stiffness(geo, material)
        mc = hex8_consistent_mass(geo, material)
        diag = lump(mc)
        me = float(diag[:8].sum())  # translational mass in one direction
        blocks.append(ElementBlock(k, mc, diag, me, mesh.dof_map(e)))
    return blocks


def _element_matrix(block, which):
    if which == "stiffness":
        return block.stiffness
    if which == "consistent":
        return block.consistent_mass
    if which == "lumped":
        return np.diag(block.lumped_mass)
    raise ValueError(f"unknown matrix kind {which!r}")


def assemble(blocks, which, ndof, element_matrices=None):
    """Global matrix A = sum_e L_e^T A_e L_e as a dense symmetric array.

    ``which`` selects stiffness | consistent | lumped from the blocks;
    pass ``which="custom"`` with explicit ``element_matrices`` (one 24x24
    per block, e.g. scaling matrices) to assemble arbitrary contributions.
    """
    out = np.zeros((ndof, ndof))
    for i, block in enumerate(blocks):
        ae = element_matrices[i] if which == "custom" else _element_matrix(block, which)
        dof = block.dof_map
        if dof.min() < 0 or dof.max() >= ndof:
            raise IndexOutOfRange(f"dof map of element {i} exceeds range {ndof}")
        out[np.ix_(dof, dof)] += ae
    return symmetrize(out)


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


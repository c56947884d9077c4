import dataclasses

import numpy as np
import pytest

from conftest import BENCH_RHO, PLATE_COUNTS, PLATE_EXTENTS
from masscale import fem, scaling
from masscale.errors import (
    DegenerateJacobian,
    IndexOutOfRange,
    InvalidCounts,
    NegativeLumpedEntry,
)
from masscale.linalg import MatrixPair, generalized_eigvalues, is_diagonal, sym_eig, symmetrize

DISTORTED_EXTENTS = (0.03, 0.02, 0.01)


def loop_element_matrices(corners, material):
    """One element's stiffness and consistent mass by a Gauss-point loop:
    the reference for the stacked kernel."""
    d = material.elasticity()
    k = np.zeros((24, 24))
    m8 = np.zeros((8, 8))
    pts, wts = fem.gauss_points(2)
    for xi, w in zip(pts, wts):
        dn_dxi = fem.shape_gradients(xi)
        jac = dn_dxi.T @ corners
        det = np.linalg.det(jac)
        dn_dx = np.linalg.solve(jac, dn_dxi.T).T
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
        n = fem.shape_functions(xi)
        m8 += w * det * material.density * np.outer(n, n)
    return 0.5 * (k + k.T), np.kron(np.eye(3), 0.5 * (m8 + m8.T))


def loop_assemble(blocks, mats, ndof):
    out = np.zeros((ndof, ndof))
    for block, ae in zip(blocks, mats):
        out[np.ix_(block.dof_map, block.dof_map)] += ae
    return out


@pytest.fixture(scope="module")
def distorted(material):
    """4 x 4 x 4 nodes with every interior node moved by up to 20 % of the
    spacing, so that each of the 27 elements has a moved corner."""
    mesh = fem.build_structured_mesh((4, 4, 4), DISTORTED_EXTENTS)
    extents = np.array(DISTORTED_EXTENTS)
    interior = np.flatnonzero(np.all((mesh.coords > 0) & (mesh.coords < extents), axis=1))
    coords = mesh.coords.copy()
    rng = np.random.default_rng(17)
    coords[interior] += rng.uniform(-0.2, 0.2, (interior.size, 3)) * extents / 3
    mesh = fem.Mesh(coords, mesh.connectivity)
    assert np.isin(mesh.connectivity, interior).any(axis=1).all()
    return mesh, fem.element_blocks(mesh, material)


class TestMaterial:
    def test_elasticity_structure(self, material):
        d = material.elasticity()
        lam, mu = material.lame()
        assert d[0, 0] == pytest.approx(lam + 2 * mu)
        assert d[0, 1] == pytest.approx(lam)
        assert d[3, 3] == pytest.approx(mu)
        assert np.allclose(d, d.T)

    def test_lame_identities(self, material):
        lam, mu = material.lame()
        e, nu = material.young_modulus, material.poisson_ratio
        assert mu == pytest.approx(e / (2 * (1 + nu)))
        assert lam == pytest.approx(e * nu / ((1 + nu) * (1 - 2 * nu)))

    def test_validation(self):
        with pytest.raises(ValueError):
            fem.Material(-1.0, 0.3, 7800.0)
        with pytest.raises(ValueError):
            fem.Material(1e9, 0.5, 7800.0)
        with pytest.raises(ValueError):
            fem.Material(1e9, 0.3, 0.0)


class TestShapeFunctions:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            xi = rng.uniform(-1, 1, 3)
            assert fem.shape_functions(xi).sum() == pytest.approx(1.0)

    def test_kronecker_property(self):
        for a in range(8):
            vals = fem.shape_functions(fem._CORNER_SIGNS[a])
            expect = np.zeros(8)
            expect[a] = 1.0
            assert np.allclose(vals, expect)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        xi = rng.uniform(-0.9, 0.9, 3)
        g = fem.shape_gradients(xi)
        h = 1e-6
        for j in range(3):
            dp = xi.copy()
            dm = xi.copy()
            dp[j] += h
            dm[j] -= h
            fd = (fem.shape_functions(dp) - fem.shape_functions(dm)) / (2 * h)
            assert np.allclose(g[:, j], fd, atol=1e-9)


def single_element(corners):
    """The one-element mesh on ``corners`` (8, 3), in the kernel's vertex order."""
    return fem.Mesh(corners, np.arange(8)[None])


def box_corners(lx, ly, lz):
    """Corners of the lx x ly x lz box at the origin, in the kernel's vertex order."""
    return 0.5 * (1.0 + fem._CORNER_SIGNS) * np.array([lx, ly, lz])


class TestElementMatrices:
    def test_stiffness_rigid_body_nullspace(self, material):
        corners = box_corners(1.0, 1.0, 1e-3)
        k = fem.element_blocks(single_element(corners), material).stiffness[0]
        modes = fem.rigid_body_modes(corners)
        resid = np.abs(k @ modes).max()
        assert resid <= 1e-8 * np.abs(k).max()

    def test_stiffness_six_zero_eigenvalues(self, material):
        mesh = single_element(box_corners(0.01, 0.01, 0.01))
        k = fem.element_blocks(mesh, material).stiffness[0]
        vals = sym_eig(k).values
        assert np.all(np.abs(vals[:6]) <= 1e-8 * vals[-1])
        assert vals[6] > 1e-6 * vals[-1]

    def test_consistent_mass_total(self, material):
        # each component block of the consistent mass integrates to rho * V
        mesh = single_element(box_corners(1.0, 1.0, 1e-3))
        mc = fem.element_blocks(mesh, material).consistent_mass[0]
        me = BENCH_RHO * 1.0 * 1.0 * 1e-3
        assert mc[:8, :8].sum() == pytest.approx(me, rel=1e-12)
        assert np.allclose(mc[:8, 8:16], 0.0)

    def test_consistent_mass_kron_structure(self, material):
        mesh = single_element(box_corners(0.3, 0.2, 0.1))
        mc = fem.element_blocks(mesh, material).consistent_mass[0]
        m8 = mc[:8, :8]
        assert np.allclose(mc, np.kron(np.eye(3), m8))

    def test_thin_element_lumped_entries(self, material):
        # 1 x 1 x 1e-3 m element at rho = 7800: me = 7.8 kg, entries me/8
        mesh = single_element(box_corners(1.0, 1.0, 1e-3))
        diag = fem.lump_row_sum(fem.element_blocks(mesh, material).consistent_mass[0])
        assert np.allclose(diag, 0.975, rtol=1e-12)

    def test_inverted_element_raises(self, material):
        corners = fem._CORNER_SIGNS.copy()
        corners[:, 2] *= -1.0  # flips orientation
        with pytest.raises(DegenerateJacobian):
            fem.element_blocks(single_element(corners), material)


class TestStructuredMesh:
    def test_counts(self):
        mesh = fem.build_structured_mesh((4, 3, 2), (0.3, 0.2, 0.1))
        assert mesh.node_count == 24
        assert mesh.element_count == 3 * 2 * 1
        assert mesh.dof_count == 72

    def test_plate_counts(self, plate_system):
        mesh, blocks, pair = plate_system
        assert mesh.node_count == 800
        assert mesh.element_count == 468
        assert mesh.dof_count == 2400
        assert pair.order == 2400

    def test_plate_p_max(self, plate_system):
        mesh, _, _ = plate_system
        assert mesh.p_max == 8

    def test_uniform(self, plate_system):
        mesh, _, _ = plate_system
        assert mesh.is_uniform()

    def test_total_mass(self, plate_system):
        mesh, blocks, _ = plate_system
        vol = PLATE_EXTENTS[0] * PLATE_EXTENTS[1] * PLATE_EXTENTS[2]
        total = sum(b.element_mass for b in blocks)
        assert total == pytest.approx(BENCH_RHO * vol, rel=1e-12)

    def test_dof_map_component_blocked(self):
        mesh = fem.build_structured_mesh((3, 2, 2), (0.2, 0.1, 0.1))
        dof = mesh.dof_map(0)
        nodes = mesh.connectivity[0]
        assert np.array_equal(dof[:8], nodes)
        assert np.array_equal(dof[8:16], nodes + mesh.node_count)
        assert np.array_equal(dof[16:], nodes + 2 * mesh.node_count)

    def test_invalid_counts(self):
        with pytest.raises(InvalidCounts):
            fem.build_structured_mesh((1, 2, 2), (1.0, 1.0, 1.0))
        with pytest.raises(InvalidCounts):
            fem.build_structured_mesh((2, 2, 2), (1.0, 0.0, 1.0))


class TestAssembly:
    def test_lumped_diag_matches_dense(self, small_system):
        _, blocks, pair = small_system
        assert is_diagonal(pair.b)
        assert np.trace(pair.b) == pytest.approx(3 * sum(b.element_mass for b in blocks))

    def test_global_stiffness_nullspace(self, small_system):
        mesh, _, pair = small_system
        modes = fem.rigid_body_modes(mesh.coords)
        resid = np.abs(pair.a @ modes).max()
        assert resid <= 1e-8 * np.abs(pair.a).max()

    def test_free_free_spectrum_has_six_zeros(self, small_system):
        _, _, pair = small_system
        vals = generalized_eigvalues(pair)
        assert np.all(np.abs(vals[:6]) <= 1e-8 * vals[-1])
        assert vals[6] > 1e-6 * vals[-1]

    def test_custom_assembly_matches_builtin(self, small_system):
        mesh, blocks, pair = small_system
        mats = [b.stiffness for b in blocks]
        k = fem.assemble(blocks, "custom", mesh.dof_count, element_matrices=mats)
        assert np.allclose(k, pair.a)

    def test_out_of_range_dof_map(self, small_system):
        _, blocks, _ = small_system
        with pytest.raises(IndexOutOfRange):
            fem.assemble(blocks, "stiffness", 10)

    @pytest.mark.parametrize("which", ["stiffness", "lumped", "custom"])
    def test_names_the_benchmark_model_build_reads(self, small_system, which):
        # perfbench's model_build reads fem.assemble, MatrixPair.a and .b and
        # ScaledSystem.mbar_dense() as dense arrays, and tier-1 does not
        # collect perfbench/: the dense assembly is the CSR one, entry for
        # entry, and both sum each entry in element order
        mesh, blocks, _ = small_system
        n, dof = mesh.dof_count, blocks.dof_map
        spec = scaling.ScalingSpec("olovsson", beta=10.0)
        mats = scaling.KINDS["olovsson"].element_term(blocks, spec) if which == "custom" else None
        a = fem.assemble(blocks, which, n, element_matrices=mats)
        assert isinstance(a, np.ndarray) and a.ndim == 2
        assert np.array_equal(a, fem.assemble_sparse(blocks, which, n, mats).toarray())
        assert np.array_equal(a, fem.assemble(blocks, which, n, mats, sparse=True).toarray())
        reference = np.zeros((n, n))
        if which == "lumped":
            np.add.at(reference, (dof, dof), blocks.lumped_mass)
        else:
            local = blocks.stiffness if which == "stiffness" else mats
            np.add.at(reference, (dof[:, :, None], dof[:, None, :]), symmetrize(local))
        assert np.array_equal(a, reference)
        pair = MatrixPair(a, fem.assemble(blocks, "lumped", n))
        assert pair.a is a
        mbar = scaling.apply_spec(spec, blocks, n, pair=pair, k_global=pair.a).mbar_dense()
        assert isinstance(mbar, np.ndarray) and mbar.ndim == 2



class TestStackedKernel:
    def test_matches_per_element_loop(self, distorted, material):
        mesh, blocks = distorted
        assert len(blocks) == mesh.element_count == 27
        for e in range(mesh.element_count):
            k, mc = loop_element_matrices(mesh.coords[mesh.connectivity[e]], material)
            assert np.abs(blocks.stiffness[e] - k).max() <= 1e-13 * np.abs(k).max()
            assert np.abs(blocks.consistent_mass[e] - mc).max() <= 1e-13 * np.abs(mc).max()
            assert np.array_equal(blocks[e].lumped_mass, fem.lump_row_sum(blocks.consistent_mass[e]))
            assert np.array_equal(blocks[e].dof_map, mesh.dof_map(e))

    def test_rigid_body_null_spaces(self, distorted):
        mesh, blocks = distorted
        for block in blocks:
            modes = fem.rigid_body_modes(mesh.coords[block.dof_map[:8]])
            assert np.abs(block.stiffness @ modes).max() <= 1e-8 * np.abs(block.stiffness).max()
        k = fem.assemble(blocks, "stiffness", mesh.dof_count)
        modes = fem.rigid_body_modes(mesh.coords)
        assert np.abs(k @ modes).max() <= 1e-8 * np.abs(k).max()

    def test_total_mass(self, distorted):
        mesh, blocks = distorted
        expect = BENCH_RHO * np.prod(DISTORTED_EXTENTS)
        assert blocks.element_mass.sum() == pytest.approx(expect, rel=1e-12)
        m = fem.assemble(blocks, "lumped", mesh.dof_count)
        assert np.trace(m) / 3 == pytest.approx(expect, rel=1e-12)

    def test_assembly_matches_loop_and_is_exactly_symmetric(self, distorted):
        mesh, blocks = distorted
        n = mesh.dof_count
        for which, mats in (("stiffness", blocks.stiffness),
                            ("consistent", blocks.consistent_mass),
                            ("lumped", [np.diag(d) for d in blocks.lumped_mass])):
            a = fem.assemble(blocks, which, n)
            assert np.array_equal(a, a.T)
            ref = loop_assemble(blocks, mats, n)
            assert np.abs(a - ref).max() <= 1e-15 * np.abs(ref).max()
        pair = MatrixPair(fem.assemble(blocks, "stiffness", n), fem.assemble(blocks, "lumped", n))
        for spec in (scaling.ScalingSpec("olovsson", beta=10.0),
                     scaling.ScalingSpec("local_deflation_s2", rank=3)):
            mbar = scaling.apply_spec(spec, blocks, n, pair=pair, k_global=pair.a).mbar_dense()
            assert np.array_equal(mbar, mbar.T)

    def test_uniform_mesh_shares_element_zero_stiffness(self, material):
        # the stiffness is element 0's of the batched kernel, bit for bit,
        # as one read-only view; the masses are every element's own
        mesh = fem.build_structured_mesh((10, 4, 3), (0.05, 0.015, 0.002))
        blocks = fem.element_blocks(mesh, material)
        stiffness, consistent = fem._hex8_matrices(mesh.coords[mesh.connectivity], material)
        assert blocks.shared and not blocks.stiffness.flags.writeable
        assert all(np.array_equal(k, stiffness[0]) for k in blocks.stiffness)
        assert np.array_equal(blocks.consistent_mass, consistent)
        assert np.array_equal(blocks.lumped_mass, fem.lump_row_sum(consistent))

    def test_moved_node_keeps_the_batched_kernel(self, material):
        mesh = fem.build_structured_mesh((4, 3, 3), (0.04, 0.02, 0.01))
        coords = mesh.coords.copy()
        coords[mesh.node_count // 2] += 1e-6 * 0.04
        moved = fem.Mesh(coords, mesh.connectivity)
        assert not moved.is_uniform()
        blocks = fem.element_blocks(moved, material)
        stiffness, consistent = fem._hex8_matrices(moved.coords[moved.connectivity], material)
        assert not blocks.shared
        assert np.array_equal(blocks.stiffness, stiffness)
        assert np.array_equal(blocks.consistent_mass, consistent)

    def test_box_element_commutes_with_its_reflections(self, material, distorted):
        reflections = fem.hex8_reflections()
        for r in reflections:
            assert np.array_equal(r, r.T) and np.array_equal(r @ r, np.eye(24))
        box = fem.element_blocks(single_element(box_corners(0.3, 0.2, 0.1)), material)[0]
        for a in (box.stiffness, box.consistent_mass):
            for r in reflections:
                assert np.abs(r @ a @ r - a).max() <= 1e-14 * np.abs(a).max()
        k = distorted[1].stiffness[0]
        assert max(np.abs(r @ k @ r - k).max() for r in reflections) > 1e-3 * np.abs(k).max()

    def test_degenerate_jacobian_names_element(self, material):
        mesh = fem.build_structured_mesh((4, 2, 2), (0.3, 0.1, 0.1))
        conn = mesh.connectivity.copy()
        conn[1] = conn[1][[4, 5, 6, 7, 0, 1, 2, 3]]  # element 1 turned inside out
        with pytest.raises(DegenerateJacobian, match="element 1:"):
            fem.element_blocks(fem.Mesh(mesh.coords, conn), material)

    def test_non_injective_dof_map_names_element(self, distorted):
        _, blocks = distorted
        dof = blocks.dof_map.copy()
        dof[2, 5] = dof[2, 0]
        with pytest.raises(IndexOutOfRange, match="element 2 "):
            dataclasses.replace(blocks, dof_map=dof)

    def test_out_of_range_names_first_element(self, distorted):
        mesh, blocks = distorted
        ndof = mesh.dof_count - 1
        first = int(np.flatnonzero(blocks.dof_map.max(axis=1) >= ndof)[0])
        assert first > 0
        with pytest.raises(IndexOutOfRange, match=f"element {first} "):
            fem.assemble(blocks, "stiffness", ndof)

    def test_nonpositive_lumped_entry_names_element(self, distorted):
        _, blocks = distorted
        consistent = blocks.consistent_mass.copy()
        consistent[4] *= -1.0
        with pytest.raises(NegativeLumpedEntry, match="element 4"):
            fem.lump_row_sum(consistent)


class TestMeshShapes:
    COORDS = fem.build_structured_mesh((3, 2, 2), (0.2, 0.1, 0.1)).coords
    CONN = fem.build_structured_mesh((3, 2, 2), (0.2, 0.1, 0.1)).connectivity

    @pytest.mark.parametrize(
        "coords, conn",
        [
            (COORDS[:, :2], CONN),
            (COORDS.ravel(), CONN),
            (np.where(np.arange(COORDS.size).reshape(COORDS.shape) == 4, np.nan, COORDS), CONN),
            (np.where(np.arange(COORDS.size).reshape(COORDS.shape) == 7, np.inf, COORDS), CONN),
            (COORDS, CONN[:, :7]),
            (COORDS, CONN.ravel()),
            (COORDS, CONN.astype(float)),
            (COORDS, CONN.astype(bool)),
        ],
        ids=["coords_2d", "coords_flat", "coords_nan", "coords_inf", "conn_7", "conn_flat",
             "conn_float", "conn_bool"],
    )
    def test_malformed_shapes_raise(self, coords, conn):
        with pytest.raises(ValueError):
            fem.Mesh(coords, conn)

    def test_node_index_out_of_range(self):
        conn = self.CONN.copy()
        conn[1, 3] = self.COORDS.shape[0]
        with pytest.raises(IndexOutOfRange):
            fem.Mesh(self.COORDS, conn)
        conn[1, 3] = -1
        with pytest.raises(IndexOutOfRange):
            fem.Mesh(self.COORDS, conn)

    def test_distorted_mesh_is_not_uniform(self, distorted):
        mesh, _ = distorted
        assert not mesh.is_uniform()
        assert fem.build_structured_mesh((5, 3, 2), (0.4, 0.2, 0.1)).is_uniform()


def dense_blocks(basis):
    """Q_1 ... Q_8 of a mirror basis as dense (n, m_k) arrays."""
    return [basis.expand(k, np.eye(len(reps))) for k, reps in enumerate(basis.reps)]


class TestMirrorBasis:
    # odd node counts put a mirror plane through a layer of nodes, even
    # ones between two layers; both occur on every axis across the cases
    @pytest.mark.parametrize("counts", [(4, 3, 3), (3, 4, 2), (5, 5, 3), (2, 2, 2)])
    def test_orthonormal_blocks(self, counts):
        mesh = fem.build_structured_mesh(counts, (0.04, 0.02, 0.01))
        basis = fem.mirror_basis(mesh)
        n = mesh.dof_count
        q = np.hstack(dense_blocks(basis))
        assert sum(len(r) for r in basis.reps) == q.shape[1] == n
        assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-15
        assert np.count_nonzero(q, axis=0).max() <= 8
        orbit_sizes = np.abs(q[q != 0]) ** -2  # entries are +-1/sqrt(s)
        assert np.allclose(orbit_sizes, np.round(orbit_sizes), rtol=1e-14)
        assert set(np.round(orbit_sizes)) <= {1, 2, 4, 8}

    def test_block_k_has_its_character(self):
        # R_g Q_k = chi_k(g) Q_k: each block is an eigenspace of every reflection
        mesh = fem.build_structured_mesh((4, 3, 3), (0.04, 0.02, 0.01))
        basis = fem.mirror_basis(mesh)
        for k, q in enumerate(dense_blocks(basis)):
            for g in range(8):
                moved = np.zeros_like(q)
                moved[basis.images[g]] = basis.signs[g][:, None] * q
                assert np.array_equal(moved, basis.characters[k, g] * q)

    def test_symmetric_matrices_are_block_diagonal(self, small_system):
        mesh, _, pair = small_system
        basis = fem.mirror_basis(mesh)
        q = np.hstack(dense_blocks(basis))
        edges = np.cumsum([0] + [len(r) for r in basis.reps])
        for a in (pair.a, pair.b):
            t = q.T @ a @ q
            for k in range(8):
                t[edges[k]:edges[k + 1], edges[k]:edges[k + 1]] = 0.0
            assert np.abs(t).max() <= 1e-14 * np.abs(a).max()

    def test_perturbed_nodes_get_no_basis(self, distorted):
        mesh, _ = distorted
        assert fem.mirror_basis(mesh) is None
        box = fem.build_structured_mesh((4, 3, 3), (0.04, 0.02, 0.01))
        coords = box.coords.copy()
        coords[5, 1] += 1e-6 * 0.04
        assert fem.mirror_basis(fem.Mesh(coords, box.connectivity)) is None
        assert fem.mirror_basis(box) is not None

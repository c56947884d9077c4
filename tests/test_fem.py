import numpy as np
import pytest

from conftest import BENCH_RHO, PLATE_COUNTS, PLATE_EXTENTS
from masscale import fem
from masscale.errors import DegenerateJacobian, IndexOutOfRange, InvalidCounts
from masscale.linalg import MatrixPair, generalized_eigvalues, is_diagonal, sym_eig


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


class TestElementMatrices:
    def test_stiffness_rigid_body_nullspace(self, material):
        geo = fem.Hex8Geometry.box(1.0, 1.0, 1e-3)
        k = fem.hex8_stiffness(geo, material)
        modes = fem.rigid_body_modes(geo.corners)
        resid = np.abs(k @ modes).max()
        assert resid <= 1e-8 * np.abs(k).max()

    def test_stiffness_six_zero_eigenvalues(self, material):
        geo = fem.Hex8Geometry.box(0.01, 0.01, 0.01)
        k = fem.hex8_stiffness(geo, material)
        vals = sym_eig(k).values
        assert np.all(np.abs(vals[:6]) <= 1e-8 * vals[-1])
        assert vals[6] > 1e-6 * vals[-1]

    def test_consistent_mass_total(self, material):
        # each component block of the consistent mass integrates to rho * V
        geo = fem.Hex8Geometry.box(1.0, 1.0, 1e-3)
        mc = fem.hex8_consistent_mass(geo, material)
        me = BENCH_RHO * 1.0 * 1.0 * 1e-3
        assert mc[:8, :8].sum() == pytest.approx(me, rel=1e-12)
        assert np.allclose(mc[:8, 8:16], 0.0)

    def test_consistent_mass_kron_structure(self, material):
        geo = fem.Hex8Geometry.box(0.3, 0.2, 0.1)
        mc = fem.hex8_consistent_mass(geo, material)
        m8 = mc[:8, :8]
        assert np.allclose(mc, np.kron(np.eye(3), m8))

    def test_thin_element_lumped_entries(self, material):
        # 1 x 1 x 1e-3 m element at rho = 7800: me = 7.8 kg, entries me/8
        geo = fem.Hex8Geometry.box(1.0, 1.0, 1e-3)
        diag = fem.lump_row_sum(fem.hex8_consistent_mass(geo, material))
        assert np.allclose(diag, 0.975, rtol=1e-12)

    def test_hrz_matches_row_sum_on_box(self, material):
        # for an undistorted box both lumpings agree
        geo = fem.Hex8Geometry.box(0.5, 0.25, 0.1)
        mc = fem.hex8_consistent_mass(geo, material)
        assert np.allclose(fem.lump_hrz(mc), fem.lump_row_sum(mc), rtol=1e-12)

    def test_inverted_element_raises(self, material):
        corners = fem._CORNER_SIGNS.copy()
        corners[:, 2] *= -1.0  # flips orientation
        with pytest.raises(DegenerateJacobian):
            fem.hex8_stiffness(fem.Hex8Geometry(corners), material)


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


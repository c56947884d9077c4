from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import sparse

from conftest import KIND_DOCS, PLATE_COUNTS, PLATE_EXTENTS, random_spd, random_spsd
from masscale import analysis, fem, integrator, linalg, scaling
from masscale.errors import NotPositiveDefinite, SingularCore
from masscale.linalg import (
    CheckedMatrix,
    EigDecomposition,
    LowRankUpdate,
    MatrixPair,
    cholesky,
    condition_number,
    extreme_eigvalues,
    generalized_eig,
    generalized_eigvalues,
    symmetrize,
    woodbury_factor,
)
from masscale.system import MeshSystem

HOFFMANN_G = np.array(
    [
        [4.0, 2.0, 1.0, 2.0],
        [2.0, 4.0, 2.0, 1.0],
        [1.0, 2.0, 4.0, 2.0],
        [2.0, 1.0, 2.0, 4.0],
    ]
)


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky(np.eye(3)), np.eye(3))

    def test_diagonal_square_roots(self):
        assert np.allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        m = random_spd(6, rng)
        ell = cholesky(m)
        assert np.linalg.norm(ell @ ell.T - m) <= 1e-12 * np.linalg.norm(m)

    def test_not_spd_reports_pivot(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky(m)
        assert err.value.pivot == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))


def two_pass_is_symmetric(a, rtol=1e-10):
    """The n x n test that :func:`linalg.require_symmetric` makes over the
    stored entries, as an oracle for finite ``a``."""
    return np.abs(a - a.T).max(initial=0.0) <= rtol * (np.abs(a).max(initial=0.0) or 1.0)


def accepts(a):
    """True when :func:`linalg.require_symmetric` accepts ``a``."""
    try:
        linalg.require_symmetric(a)
    except ValueError:
        return False
    return True


def layouts(a):
    """``a`` in C order, in Fortran order and as a strided view."""
    strided = np.zeros((2 * a.shape[0], 3 * a.shape[1]))
    strided[::2, ::3] = a
    return [np.ascontiguousarray(a), np.asfortranarray(a), strided[::2, ::3]]


class TestRequireSymmetric:
    # order 600 spans strips of 256, 256 and a partial one of 88 rows
    @pytest.fixture
    def sym(self):
        return symmetrize(np.random.default_rng(3).standard_normal((600, 600)))

    def test_accepts_symmetric(self, sym):
        assert linalg.require_symmetric(sym) is not None

    def test_asymmetry_in_an_off_diagonal_tile(self, sym):
        scale = np.abs(sym).max()
        sym[300, 10] += 0.9e-10 * scale
        linalg.require_symmetric(sym)
        sym[300, 10] += 0.2e-10 * scale
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.require_symmetric(sym)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_in_the_last_partial_tile(self, sym, value):
        sym[599, 598] = sym[598, 599] = value
        with pytest.raises(ValueError, match="non-finite"):
            linalg.require_symmetric(sym)

    def test_non_square(self, sym):
        with pytest.raises(ValueError, match="square"):
            linalg.require_symmetric(sym[:, :599])

    @pytest.mark.parametrize("n", [1, 2, 7, 600])
    def test_agrees_with_the_two_pass_test(self, n):
        # a sparse symmetric matrix, then a few entries moved on one side of
        # the diagonal, by amounts on both sides of the tolerance
        rng = np.random.default_rng(n)
        base = symmetrize(rng.standard_normal((n, n)) * (rng.uniform(size=(n, n)) < 0.1))
        base[np.diag_indices(n)] = rng.uniform(1.0, 2.0, n)
        seen = set()
        for rel in (0.0, 1e-12, 0.9e-10, 1.1e-10, 1e-6):
            a = base.copy()
            i, j = rng.integers(0, n, (2, 3))
            a[i, j] += rel * np.abs(base).max()
            for view in layouts(a) + [a.T, -a]:
                assert accepts(view) == two_pass_is_symmetric(view)
            seen.add(two_pass_is_symmetric(a))
        assert seen == {True, False} or n == 1

    @pytest.mark.parametrize("lower", [True, False])
    def test_entry_whose_mirror_is_zero(self, lower):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        at = (3, 1) if lower else (1, 3)
        a[at] = 0.9e-10 * 4.0
        assert accepts(a) and accepts(a.T)
        a[at] = 1.1e-10 * 4.0
        assert not accepts(a) and not accepts(a.T)
        a[at] = -1.0
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.require_symmetric(a)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lower", [True, False])
    def test_non_finite_whose_mirror_is_zero(self, value, lower):
        a = np.diag([1.0, 2.0, 3.0])
        a[(2, 0) if lower else (0, 2)] = value
        for view in (a, a.T):
            with pytest.raises(ValueError, match="non-finite"):
                linalg.require_symmetric(view)

    def test_non_finite_is_reported_before_asymmetry(self, sym):
        sym[0, 1] += 1.0
        sym[599, 599] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            linalg.require_symmetric(sym)

    def test_negative_zero_and_all_zero(self):
        a = np.diag([1.0, 2.0, 3.0])
        a[0, 2] = -0.0
        assert accepts(a)
        for zero in (np.zeros((5, 5)), np.full((5, 5), -0.0), np.zeros((0, 0))):
            assert accepts(zero) and two_pass_is_symmetric(zero)

    @pytest.mark.parametrize("at", [(255, 256), (256, 255), (10, 590), (599, 0)])
    def test_asymmetry_across_a_strip_boundary(self, sym, at):
        scale = np.abs(sym).max()
        sym[at] += 0.9e-10 * scale
        assert accepts(sym)
        sym[at] += 0.2e-10 * scale
        assert not accepts(sym) and not two_pass_is_symmetric(sym)

    def test_returns_a_dense_array_as_it_is(self, sym):
        assert linalg.require_symmetric(sym) is sym


class TestCsr:
    @pytest.mark.parametrize("n", [1, 7, 600])
    def test_dense_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) * (rng.uniform(size=(n, n)) < 0.1)
        a[0, -1], a[-1, 0] = np.nan, -0.0
        for view in layouts(a):
            got, want = linalg._csr(view), sparse.csr_array(view)
            assert got.has_canonical_format
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data, equal_nan=True)

    def test_all_zero(self):
        got = linalg._csr(np.zeros((4, 4)))
        assert got.nnz == 0 and got.shape == (4, 4) and got.has_canonical_format


class TestSymEig:
    """The standard problem as the pencil (M, I): generalized_eig keeps the sign convention."""

    def test_diagonal(self):
        dec = generalized_eig((np.diag([3.0, 1.0, 2.0]), np.eye(3)))
        assert np.allclose(dec.values, [1.0, 2.0, 3.0])

    def test_identity(self):
        dec = generalized_eig((np.eye(5), np.eye(5)))
        assert np.allclose(dec.values, 1.0)

    def test_hoffmann_ring_matrix(self):
        # circulant in-plane coupling matrix has spectrum {1, 3, 3, 9}
        dec = generalized_eig((HOFFMANN_G, np.eye(4)))
        assert np.allclose(dec.values, [1.0, 3.0, 3.0, 9.0], atol=1e-12)

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(11)
        m = symmetrize(rng.standard_normal((40, 40)))
        dec = generalized_eig((m, np.eye(40)))
        res = m @ dec.vectors - dec.vectors * dec.values
        assert np.abs(res).max() <= 1e-12 * np.linalg.norm(m, 2) * 40
        assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(40), atol=1e-12)

    def test_sign_convention(self):
        dec = generalized_eig((np.diag([2.0, 1.0]), np.eye(2)))
        for k in range(2):
            v = dec.vectors[:, k]
            assert v[np.argmax(np.abs(v))] > 0


class TestGeneralizedEig:
    def test_identity_pair(self):
        dec = generalized_eig(MatrixPair(np.eye(4), np.eye(4)))
        assert np.allclose(dec.values, 1.0)

    def test_decoupled_ratios(self):
        dec = generalized_eig(MatrixPair(np.diag([2.0, 8.0]), np.diag([1.0, 2.0])))
        assert np.allclose(dec.values, [2.0, 4.0])

    @pytest.mark.parametrize("order", [8, 50, 200])
    def test_residual_oracle(self, order):
        rng = np.random.default_rng(order)
        a, b = random_spd(order, rng), random_spd(order, rng)
        dec = generalized_eig(MatrixPair(a, b))
        res = a @ dec.vectors - (b @ dec.vectors) * dec.values
        norm_a = np.linalg.norm(a, 2)
        assert np.linalg.norm(res, axis=0).max() <= 1e-10 * norm_a

    def test_b_orthonormal(self):
        rng = np.random.default_rng(3)
        a, b = random_spd(8, rng), random_spd(8, rng)
        dec = generalized_eig(MatrixPair(a, b))
        assert np.allclose(dec.vectors.T @ b @ dec.vectors, np.eye(8), atol=1e-10)

    def test_diagonal_fast_path_matches_dense(self):
        rng = np.random.default_rng(9)
        a = random_spd(10, rng)
        d = rng.uniform(0.5, 2.0, 10)
        fast = generalized_eig(MatrixPair(a, np.diag(d)))
        dense = generalized_eig(MatrixPair(a, symmetrize(np.diag(d) + 0.0)))
        assert np.allclose(fast.values, dense.values, rtol=1e-12)

    def test_values_only_agrees(self):
        rng = np.random.default_rng(21)
        a, b = random_spd(12, rng), random_spd(12, rng)
        full = generalized_eig(MatrixPair(a, b))
        vals = generalized_eigvalues(MatrixPair(a, b))
        assert np.allclose(vals, full.values, rtol=1e-11)

    def test_b_not_spd(self):
        with pytest.raises(NotPositiveDefinite):
            generalized_eig(MatrixPair(np.eye(2), np.diag([1.0, -1.0])))

    @pytest.mark.parametrize("form", [np.asarray, sparse.csr_array])
    @pytest.mark.parametrize("solver", [generalized_eig, generalized_eigvalues])
    @pytest.mark.parametrize("bad, match", [
        (np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]), "not symmetric"),
        (np.diag([2.0, np.inf, 2.0]), "non-finite"),
    ])
    def test_checks_a_tuple(self, solver, form, bad, match):
        # LAPACK reads one triangle, so an unchecked member would give wrong values
        good = np.diag([1.0, 2.0, 3.0])
        for pencil in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match=match):
                solver(tuple(form(m) for m in pencil))

    def test_monotonicity_under_spsd_perturbation(self):
        # SPSD E added to B can only decrease every generalized eigenvalue
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = rng.integers(4, 20)
            a = random_spsd(n, rng)
            b = random_spd(n, rng)
            e = random_spsd(n, rng, rank=max(1, n // 2))
            lam = generalized_eigvalues(MatrixPair(symmetrize(a), b))
            lam_pert = generalized_eigvalues(MatrixPair(symmetrize(a), symmetrize(b + e)))
            assert np.all(lam_pert <= lam + 1e-10 * np.abs(lam) + 1e-12)


@pytest.fixture(scope="module")
def slender_beam(material):
    """Free-free 20 x 2 x 2-node beam over 200 x 10 x 0.5 mm (n = 240).

    Its first flexible eigenvalue is 1.6e-8 of the largest, where a dense
    solve alone keeps only eight or nine correct digits.
    """
    mesh = fem.build_structured_mesh((20, 2, 2), (0.2, 0.01, 0.0005))
    blocks = fem.element_blocks(mesh, material)
    n = mesh.dof_count
    pair = MatrixPair(
        fem.assemble(blocks, "stiffness", n), fem.assemble(blocks, "lumped", n)
    )
    return blocks, pair


@pytest.fixture(scope="module")
def long_beam(material):
    """A 30 cm beam of the slender beam's cross-section, 83 elements long (n = 1008).

    Its first flexible eigenvalue is 1.3e-9 of the largest. Its pencils
    are passed unchecked, so every solve of it is dense.
    """
    mesh = fem.build_structured_mesh((84, 2, 2), (0.3, 0.01, 0.0005))
    blocks = fem.element_blocks(mesh, material)
    n = mesh.dof_count
    pair = MatrixPair(
        fem.assemble(blocks, "stiffness", n), fem.assemble(blocks, "lumped", n)
    )
    return blocks, pair


LOW_SPECTRUM_SOLVERS = {
    "values_only": generalized_eigvalues,
    "full": lambda pair: generalized_eig(pair).values,
}


class TestLowSpectrumAccuracy:
    @pytest.fixture
    def beam(self, slender_beam):
        return slender_beam

    @pytest.mark.parametrize("solver", sorted(LOW_SPECTRUM_SOLVERS))
    def test_first_flexible_values_survive_dof_permutation(self, beam, solver):
        # a symmetric permutation leaves the spectrum exactly as it is, so
        # any spread is the solver's own error on the low modes
        solve = LOW_SPECTRUM_SOLVERS[solver]
        _, pair = beam
        lam = solve(pair)
        assert lam[6] < 2e-8 * lam[-1]
        rng = np.random.default_rng(2)
        for _ in range(3):
            p = rng.permutation(pair.order)
            lam_p = solve(MatrixPair(pair.a[np.ix_(p, p)], pair.b[np.ix_(p, p)]))
            assert np.allclose(lam_p[6:9], lam[6:9], rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_spsd_mass_term_never_raises_a_frequency(self, beam, rank):
        # Courant-Fischer: Mbar = M + E with E SPSD gives omega_i >= omegabar_i
        blocks, pair = beam
        spec = scaling.ScalingSpec("local_deflation_s2", rank=rank)
        scaled = scaling.apply_spec(spec, blocks, pair.order, pair=pair, k_global=pair.a)
        lam = generalized_eig(pair).values
        lam_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar_dense()))
        ratios = analysis.frequency_ratio_curve(lam, lam_bar)
        assert ratios.min() >= 1.0 - 1e-12

    def test_recomputed_tail_keeps_pairs_consistent(self, beam):
        _, pair = beam
        dec = generalized_eig(pair)
        u = dec.vectors
        assert np.allclose(u.T @ pair.b @ u, np.eye(pair.order), atol=1e-12)
        res = pair.a @ u - (pair.b @ u) * dec.values
        assert np.abs(res).max() <= 1e-12 * dec.values[-1] * np.abs(pair.b).max()
        assert np.all(np.diff(dec.values) >= 0)


class TestLongBeam(TestLowSpectrumAccuracy):
    """The same checks on the long beam, whose first flexible value is
    1.3e-9 of the largest."""

    @pytest.fixture
    def beam(self, long_beam):
        return long_beam


@pytest.fixture(scope="module")
def wide_system(material):
    """A 15 x 4 x 6-node mesh (n = 1080): its mirror planes pass through
    the nodes along x and between them along y and z."""
    mesh = fem.build_structured_mesh((15, 4, 6), (0.075, 0.015, 0.005))
    blocks = fem.element_blocks(mesh, material)
    n = mesh.dof_count
    pair = MatrixPair(
        fem.assemble(blocks, "stiffness", n), fem.assemble(blocks, "lumped", n)
    )
    return mesh, blocks, pair


def scaled_mass(system, kind):
    mesh, blocks, pair = system
    spec = scaling.ScalingSpec(**KIND_DOCS[kind][0])
    return scaling.apply_spec(spec, blocks, mesh.dof_count, pair=pair, k_global=pair.a)


def two_pass_is_diagonal(a, rtol=1e-14):
    """The n x n test that :func:`linalg.is_diagonal` replaces, as an oracle."""
    off = a - np.diag(np.diag(a))
    return np.abs(off).max() <= rtol * (np.abs(a).max() or 1.0)


class TestIsDiagonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 600])
    def test_agrees_with_the_two_pass_test(self, n):
        rng = np.random.default_rng(n)
        for scale in (0.0, 1e-16, 1e-14, 1e-13, 1.0):
            a = np.diag(rng.uniform(0.5, 2.0, n)) + scale * rng.standard_normal((n, n))
            for view in layouts(a) + [a.T, -a]:
                assert linalg.is_diagonal(view) == two_pass_is_diagonal(view)

    def test_one_and_two(self):
        assert linalg.is_diagonal(np.array([[3.0]]))
        assert linalg.is_diagonal(np.array([[0.0]]))
        assert linalg.is_diagonal(np.diag([1.0, 2.0]))
        assert not linalg.is_diagonal(np.array([[1.0, 0.0], [1e-3, 2.0]]))
        assert not linalg.is_diagonal(np.array([[1.0, -1e-3], [0.0, 2.0]]))

    def test_transposed_view(self):
        a = np.diag([1.0, 2.0, 3.0])
        a[2, 0] = 0.5
        assert not a.T.flags.c_contiguous
        assert not linalg.is_diagonal(a.T)
        assert linalg.is_diagonal(np.diag([1.0, 2.0, 3.0]).T)
        strided = np.diag(np.arange(1.0, 7.0))[::2, ::2]  # neither it nor its transpose contiguous
        assert linalg.is_diagonal(strided)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_off_diagonal_is_not_diagonal(self, bad):
        a = np.diag([1.0, 2.0, 3.0])
        a[0, 2] = bad
        assert not linalg.is_diagonal(a)
        assert not linalg.is_diagonal(a.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_diagonal_is_not_diagonal(self, bad):
        assert not linalg.is_diagonal(np.array([[bad]]))
        assert not linalg.is_diagonal(np.diag([1.0, bad]))

    def test_tolerance_edge(self):
        a = np.diag([2.0, 1.0])
        a[1, 0] = 2e-14  # exactly rtol * max|a|
        assert linalg.is_diagonal(a) and two_pass_is_diagonal(a)
        a[1, 0] = np.nextafter(2e-14, 1.0)
        assert not linalg.is_diagonal(a) and not two_pass_is_diagonal(a)
        a[1, 0] = -np.nextafter(2e-14, 1.0)
        assert not linalg.is_diagonal(a)


class TestExtremeEigvalues:
    @pytest.mark.parametrize("kind", sorted(KIND_DOCS))
    @pytest.mark.parametrize("system", ["small_system", "wide_system"])
    def test_matches_dense_values(self, request, system, kind):
        # with the mirror split, where the matrix has one, and without it
        system = request.getfixturevalue(system)
        mbar = scaled_mass(system, kind).mbar_dense()
        dense = np.linalg.eigvalsh(mbar)[[0, -1]]
        checked = CheckedMatrix(mbar, fem.mirror_basis(system[0]))
        for ends in (extreme_eigvalues(mbar), extreme_eigvalues(checked)):
            assert np.allclose(ends, dense, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("system", ["small_system", "wide_system"])
    def test_diagonal_path_is_exact(self, request, system):
        m = request.getfixturevalue(system)[2].b
        assert np.array_equal(extreme_eigvalues(m), np.linalg.eigh(m).eigenvalues[[0, -1]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            extreme_eigvalues(np.array([[2.0, 1.0], [0.0, 2.0]]))


@pytest.fixture(scope="module")
def kinds_mesh(material):
    """The 10 x 4 x 3-node mesh of the kinds_small benchmark (n = 360): its
    mirror planes fall between nodes along x and y and through them along z."""
    mesh = fem.build_structured_mesh((10, 4, 3), (0.05, 0.015, 0.002))
    blocks = fem.element_blocks(mesh, material)
    n = mesh.dof_count
    pair = MatrixPair(fem.assemble(blocks, "stiffness", n), fem.assemble(blocks, "lumped", n))
    return mesh, blocks, pair


def perturbed(mesh):
    """The mesh with one interior node moved by 1e-6 of the largest extent."""
    coords = mesh.coords.copy()
    node = mesh.node_count // 2
    coords[node] += 1e-6 * np.ptp(coords, axis=0).max()
    return fem.Mesh(coords, mesh.connectivity)


def three_pencils(system, kind):
    """(K, M), (Kbar, Mbar) and (Mbar, M) of one kind in KIND_DOCS."""
    _, _, pair = system
    scaled = scaled_mass(system, kind)
    mbar = scaled.mbar_dense()
    return [pair, MatrixPair(scaled.kbar, mbar), MatrixPair(mbar, pair.b)]


def checked_pencil(pencil, basis):
    """The pencil with its two members checked in the mirror basis."""
    return MatrixPair(CheckedMatrix(pencil.a, basis), CheckedMatrix(pencil.b, basis))


class TestMirrorBlocks:
    """Block solves in the mirror basis against the solves without it."""

    @pytest.mark.parametrize("kind", ["olovsson", "local_deflation_s2", "global_deflation"])
    @pytest.mark.parametrize("system", ["kinds_mesh", "small_system"])
    def test_values_and_tails_match(self, request, system, kind):
        with_tails = system == "kinds_mesh"
        system = request.getfixturevalue(system)
        basis = fem.mirror_basis(system[0])
        for index, pencil in enumerate(three_pencils(system, kind)):
            assert linalg.mirror_split(pencil.a, basis) is not None
            assert linalg.mirror_split(pencil.b, basis) is not None
            full = generalized_eigvalues(pencil)
            blocked = generalized_eigvalues(checked_pencil(pencil, basis))
            assert np.abs(blocked - full).max() <= linalg.rigid_cutoff(full)
            start, count = analysis.flexible_slice(full), linalg.low_tail(full)
            if with_tails and index < 2:  # the stiffness pencils have a low tail
                assert count > start == 6
            assert np.allclose(blocked[start:count], full[start:count], rtol=1e-12, atol=0.0)

    def test_all_pairs_from_the_blocks_match_one_block(self, kinds_mesh):
        # generalized_eig without top solves the eight block pairs and
        # recomputes the low tail on the full pencil from their vectors
        mesh, _, pair = kinds_mesh
        checked = checked_pencil(pair, fem.mirror_basis(mesh))
        assert linalg.block_pairs(checked.a, checked.b).basis is not None
        full, dec = generalized_eig(pair), generalized_eig(checked)
        assert linalg.low_tail(full.values) > 6
        assert np.abs(dec.values - full.values).max() <= linalg.rigid_cutoff(full.values)
        above = full.values > linalg.rigid_cutoff(full.values)
        assert np.allclose(dec.values[above], full.values[above], rtol=1e-12, atol=0.0)
        u = dec.vectors
        assert np.allclose(u.T @ pair.b @ u, np.eye(pair.order), atol=1e-12)
        res = pair.a @ u - (pair.b @ u) * dec.values
        assert np.abs(res).max() <= 1e-12 * dec.values[-1] * np.abs(pair.b).max()
        assert np.all(np.diff(dec.values) >= 0)

    def test_blocks_map_to_order_n_and_back(self, kinds_mesh):
        # restrict(k, .) undoes expand(k, .) on block k, and the eight
        # blocks together give back a vector of order n
        mesh, _, pair = kinds_mesh
        checked = checked_pencil(pair, fem.mirror_basis(mesh))
        blocks = linalg.block_pairs(checked.a, checked.b)
        assert blocks.basis is not None and len(blocks.parts) == 8
        rng = np.random.default_rng(28)
        for k, (a, b) in enumerate(blocks.parts):
            a, b = linalg._dense_part(a), linalg._dense_part(b)
            assert a.shape == b.shape
            y = rng.standard_normal((len(a), 3))
            error = np.abs(blocks.restrict(k, blocks.expand(k, y)) - y).max()
            assert error <= 1e-15 * np.abs(y).max()
        u = rng.standard_normal(pair.order)
        back = sum(blocks.expand(k, blocks.restrict(k, u)) for k in range(8))
        assert np.abs(back - u).max() <= 1e-15 * np.abs(u).max()
        # a member that does not split: the members as one block, identity maps
        one = linalg.block_pairs(checked.a, pair.b)
        assert one.basis is None and len(one.parts) == 1
        assert one.parts[0][0] is checked.a and one.parts[0][1] is pair.b
        assert one.expand(0, u) is u and one.restrict(0, u) is u

    @pytest.mark.parametrize("system", ["kinds_mesh", "small_system"])
    def test_update_splits_as_its_dense_form(self, request, system):
        # global deflation scaled through a checked pair takes its top pairs
        # from the blocks; its Mbar splits without being formed
        mesh, blocks, pair = request.getfixturevalue(system)
        basis = fem.mirror_basis(mesh)
        checked = checked_pencil(pair, basis)
        spec = scaling.ScalingSpec(**KIND_DOCS["global_deflation"][0])
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count, pair=checked)
        mbar = CheckedMatrix(scaled.mbar, basis)
        dense = scaled.mbar_dense()
        assert isinstance(mbar.matrix, LowRankUpdate) and not mbar.is_diagonal
        for x, y in zip(mbar.split.parts, linalg.mirror_split(dense, basis).parts):
            x, y = linalg._dense_part(x), linalg._dense_part(y)
            assert np.abs(x - y).max() <= 1e-15 * np.abs(dense).max()
        for pencil, blocked in ((MatrixPair(pair.a, dense), MatrixPair(checked.a, mbar)),
                                (MatrixPair(dense, pair.b), MatrixPair(mbar, checked.b))):
            full, values = generalized_eigvalues(pencil), generalized_eigvalues(blocked)
            assert np.abs(values - full).max() <= linalg.rigid_cutoff(full)
            start, count = analysis.flexible_slice(full), linalg.low_tail(full)
            assert np.allclose(values[start:count], full[start:count], rtol=1e-12, atol=0.0)
        assert np.allclose(extreme_eigvalues(mbar), np.linalg.eigvalsh(dense)[[0, -1]],
                           rtol=1e-12, atol=0.0)

    def test_update_mixing_two_blocks_takes_the_dense_path(self, kinds_mesh):
        mesh, _, pair = kinds_mesh
        basis = fem.mirror_basis(mesh)
        q = sum(basis.columns[k][:, [0]].toarray() for k in (0, 1))  # q_0 + q_1
        update = LowRankUpdate(sparse.csr_array(pair.b), q * np.sqrt(pair.b.max()), np.ones(1))
        mbar, k = CheckedMatrix(update, basis), CheckedMatrix(pair.a, basis)
        m = CheckedMatrix(pair.b, basis)
        assert k.split is not None and m.split is not None and mbar.split is None
        dense = update.dense()
        assert np.array_equal(extreme_eigvalues(mbar), extreme_eigvalues(dense))
        assert np.array_equal(generalized_eigvalues(MatrixPair(mbar, m)),
                              generalized_eigvalues(MatrixPair(dense, pair.b)))
        full = generalized_eigvalues(MatrixPair(pair.a, dense))
        values = generalized_eigvalues(MatrixPair(k, mbar))
        start = analysis.flexible_slice(full)
        assert linalg.low_tail(full) > start == 6
        assert np.allclose(values[start:], full[start:], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("params", [{"rank": 0}, {"rank": 3, "mode": "cutoff", "alpha": 0.0}])
    def test_zero_update_keeps_the_exact_extremes(self, small_system, params):
        mesh, blocks, pair = small_system
        basis = fem.mirror_basis(mesh)
        spec = scaling.ScalingSpec("global_deflation", **params)
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count, pair=checked_pencil(pair, basis))
        mbar = CheckedMatrix(scaled.mbar, basis)
        assert mbar.is_diagonal
        assert np.array_equal(extreme_eigvalues(mbar), extreme_eigvalues(pair.b))

    def test_update_of_a_vector_base_raises(self):
        # a 1-D base would broadcast in base @ x and fail in diagonal()
        with pytest.raises(ValueError, match="square"):
            LowRankUpdate(np.ones(3), np.ones((3, 1)), np.ones(1))

    @pytest.mark.parametrize("kind", sorted(KIND_DOCS))
    def test_extremes_match_dense_values(self, kinds_mesh, kind):
        basis = fem.mirror_basis(kinds_mesh[0])
        mbar = scaled_mass(kinds_mesh, kind).mbar_dense()
        dense = np.linalg.eigvalsh(mbar)[[0, -1]]
        checked = CheckedMatrix(mbar, basis)
        assert np.allclose(extreme_eigvalues(checked), dense, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", sorted(KIND_DOCS))
    def test_sparse_and_dense_input_split_alike(self, kinds_mesh, kind):
        # a CSR matrix is read through the stored entries of its rows, a
        # dense one through its rows gathered: one verdict and one set of
        # blocks, up to the order of the sums
        basis = fem.mirror_basis(kinds_mesh[0])
        for a in (kinds_mesh[2].a, scaled_mass(kinds_mesh, kind).mbar_dense()):
            dense, csr = (linalg.mirror_split(m, basis) for m in (a, sparse.csr_array(a)))
            assert (dense is None) == (csr is None)
            for x, y in zip(*(split.parts if split else [] for split in (dense, csr))):
                x, y = linalg._dense_part(x), linalg._dense_part(y)
                assert np.abs(x - y).max() <= 1e-15 * np.abs(a).max()

    @pytest.mark.parametrize("counts, extents", [((10, 4, 3), (0.05, 0.015, 0.002)),
                                                 ((84, 2, 2), (0.3, 0.01, 0.0005))],
                             ids=["kinds", "long_beam"])
    def test_local_deflation_masses_split(self, material, counts, extents):
        # one stiffness for every element of a uniform mesh, and element
        # terms averaged over the element's reflections: K and every S1
        # and S2 mass mirror to within the check
        mesh_system = MeshSystem(fem.build_structured_mesh(counts, extents), material)
        assert mesh_system.pair.a.split is not None
        specs = [scaling.ScalingSpec("local_deflation_s1", alpha=alpha, rank=rank)
                 for alpha in (1.0, 10.0, 100.0) for rank in (3, 7)]
        specs += [scaling.ScalingSpec("local_deflation_s2", rank=rank) for rank in (2, 6, 10, 12)]
        for spec in specs:
            assert mesh_system.mass(mesh_system.scale(spec)).split is not None, spec.label

    def test_cms_on_some_dofs_fails_the_coupling_check(self, kinds_mesh):
        mesh, blocks, pair = kinds_mesh
        basis = fem.mirror_basis(mesh)
        spec = scaling.ScalingSpec("cms", alpha=4.0, selector=[0, 1, 2])
        mbar = scaling.apply_spec(spec, blocks, mesh.dof_count, pair=pair).mbar_dense()
        assert linalg.mirror_split(mbar, basis) is None
        for pencil in (MatrixPair(pair.a, mbar), MatrixPair(mbar, pair.b)):
            assert np.array_equal(generalized_eigvalues(checked_pencil(pencil, basis)),
                                  generalized_eigvalues(pencil))

    def test_perturbed_mesh_gets_the_full_path(self, kinds_mesh, material):
        mesh = perturbed(kinds_mesh[0])
        assert fem.mirror_basis(mesh) is None
        blocks = fem.element_blocks(mesh, material)
        n = mesh.dof_count
        pair = MatrixPair(fem.assemble(blocks, "stiffness", n), fem.assemble(blocks, "lumped", n))
        # the unperturbed mesh's reflections do not commute with this K
        basis = fem.mirror_basis(kinds_mesh[0])
        assert linalg.mirror_split(pair.a, basis) is None
        assert np.array_equal(generalized_eigvalues(checked_pencil(pair, basis)),
                              generalized_eigvalues(pair))


def _stored_bytes(x):
    """The bytes of a dense or 1-D array, or of a CSR array's three arrays."""
    return x.nbytes if isinstance(x, np.ndarray) else x.data.nbytes + x.indices.nbytes + x.indptr.nbytes


class TestSparseSplits:
    """Mirror blocks stored in proportion to their entries, and made dense
    one at a time as the dense blocks were formed."""

    def test_parts_take_at_most_twice_the_matrix(self, material):
        # dense blocks took 3.8 times the CSR bytes of the plate's K, 10
        # times its Olovsson Mbar's and 200 times its lumped M's
        system = MeshSystem(fem.build_structured_mesh(PLATE_COUNTS, PLATE_EXTENTS), material)
        for checked in (system.pair.a, system.pair.b, system.mass(system.scale(OLOVSSON))):
            parts = checked.split.parts
            assert len(parts) == 8
            assert all(p.ndim == 1 for p in parts) == checked.is_diagonal, checked.name
            assert sum(map(_stored_bytes, parts)) <= 2 * _stored_bytes(checked.matrix), checked.name

    @pytest.mark.parametrize("kind", sorted(KIND_DOCS))
    def test_dense_parts_are_the_dense_products_bit_for_bit(self, kinds_mesh, kind):
        # each part, made dense, is symmetrize(dense(a[r] @ q) * sqrt(s)), the
        # block the dense split stored, to the last bit: the same blocks
        # reach the same LAPACK calls
        mesh, _, pair = kinds_mesh
        basis = fem.mirror_basis(mesh)
        for a in (pair.a, pair.b, scaled_mass(kinds_mesh, kind).mbar):
            split = linalg.mirror_split(a, basis)
            if isinstance(a, LowRankUpdate) or split is None:
                continue
            a = linalg._csr(a)
            for part, r, q in zip(split.parts, basis.reps, basis.columns):
                block = linalg.symmetrize(linalg.dense(a[r] @ q) * np.sqrt(basis.sizes[r])[:, None])
                assert np.array_equal(linalg._dense_part(part), block)
                assert (part.ndim == 1) == linalg.is_diagonal(a)

    def test_update_keeps_the_base_blocks_it_leaves_alone(self, kinds_mesh):
        # global deflation: the blocks that own a column of V are dense, the
        # others stay the lumped mass's 1-D diagonals
        mesh, blocks, pair = kinds_mesh
        basis = fem.mirror_basis(mesh)
        spec = scaling.ScalingSpec(**KIND_DOCS["global_deflation"][0])
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count, pair=checked_pencil(pair, basis))
        parts = CheckedMatrix(scaled.mbar, basis).split.parts
        base = linalg.mirror_split(pair.b, basis).parts
        kept = [x.ndim == 1 for x in parts]
        assert any(kept) and not all(kept)
        for x, b in zip(parts, base):
            assert np.array_equal(x, b) if x.ndim == 1 else x.shape == (len(b), len(b))

    def test_solves_leave_the_parts_and_inputs_as_they_are(self, kinds_mesh):
        # LAPACK overwrites one dense copy of each part: the dense blocks of
        # global deflation's split, and a caller's dense array, stay as they are
        mesh, blocks, pair = kinds_mesh
        basis = fem.mirror_basis(mesh)
        checked = checked_pencil(pair, basis)
        spec = scaling.ScalingSpec(**KIND_DOCS["global_deflation"][0])
        mbar = CheckedMatrix(scaling.apply_spec(spec, blocks, mesh.dof_count, pair=checked).mbar,
                             basis)
        before = [x.copy() for x in mbar.split.parts]
        values = generalized_eigvalues(MatrixPair(checked.a, mbar))
        generalized_eig(MatrixPair(checked.a, mbar), top=3), extreme_eigvalues(mbar)
        integrator._MirrorBlocks(linalg.block_pairs(checked.a, mbar))
        assert all(np.array_equal(x, y) for x, y in zip(mbar.split.parts, before))
        assert np.array_equal(generalized_eigvalues(MatrixPair(checked.a, mbar)), values)
        a = random_spd(40, np.random.default_rng(33))
        kept = a.copy()
        linalg.cholesky(a), generalized_eigvalues((kept, a)), extreme_eigvalues(a)
        assert np.array_equal(a, kept)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("m", [1, 45, 256, 300, 513])
    def test_symmetrize_in_place_is_bit_for_bit(self, m, order):
        # strip by strip, across the strips' edges, with a -0.0 below the diagonal
        a = np.random.default_rng(m).standard_normal((m, m))
        a[-1, 0] = -0.0
        fill = np.tril(a) + np.tril(a, -1).T
        for average, expected in ((True, linalg.symmetrize(a)), (False, fill)):
            c = np.array(a, order=order)
            linalg._symmetrize_in_place(c, average)
            assert np.array_equal(c, expected) and np.array_equal(np.signbit(c), np.signbit(expected))


# The kinds whose Mbar is I_3 (x) Mbar_s: one mass term per node, or
# element terms of the form I_3 (x) G.
DECOUPLED_KINDS = {"none", "cms", "uniform_lft", "olovsson", "hoffmann"}
OLOVSSON = scaling.ScalingSpec("olovsson", beta=10.0)


@pytest.fixture(scope="module")
def kinds_system(material):
    """The kinds_small mesh as a MeshSystem: K, M and every Mbar checked in
    its mirror basis."""
    return MeshSystem(fem.build_structured_mesh((10, 4, 3), (0.05, 0.015, 0.002)), material)


class TestComponentSplit:
    """Pencils of matrices I_3 (x) A_s, solved on the x component alone."""

    def test_the_masses_that_decouple(self, kinds_system):
        # K couples the components; of the masses, exactly the decoupled kinds' Mbar
        assert kinds_system.pair.a.component is None and kinds_system.pair.b.component is not None
        found = {kind for kind, (doc, _) in KIND_DOCS.items()
                 if kinds_system.mass(kinds_system.scale(scaling.ScalingSpec(**doc))).component}
        assert found == DECOUPLED_KINDS

    def test_near_misses_do_not_decouple(self, kinds_system):
        mbar = kinds_system.mass(kinds_system.scale(OLOVSSON)).matrix
        third = mbar.shape[0] // 3
        assert CheckedMatrix(mbar).component is not None
        coupled = mbar.tolil()  # one entry, and its mirror, between x dof 0 and y dof 0
        coupled[0, third] = coupled[third, 0] = 1e-3 * mbar.max()
        ulp = mbar.tolil()  # the z block one ulp off the x block in one entry
        ulp[2 * third, 2 * third] = np.nextafter(ulp[2 * third, 2 * third], np.inf)
        update = LowRankUpdate(mbar, np.zeros((mbar.shape[0], 1)), np.zeros(1))
        for a in (sparse.csr_array(coupled), sparse.csr_array(ulp), update):
            assert CheckedMatrix(a).component is None

    @pytest.mark.parametrize("counts, extents", [
        (PLATE_COUNTS, PLATE_EXTENTS), ((20, 4, 3), (0.1, 0.015, 0.002)),
        ((10, 4, 3), (0.05, 0.015, 0.002)), ((10, 4, 3), (0.1, 0.015, 0.002)),
        ((84, 2, 2), (0.3, 0.01, 0.0005))],
        ids=["plate", "beam", "kinds", "kinds_100mm", "long_beam"])
    def test_component_split_is_the_full_split(self, material, counts, extents):
        # a decoupled mass splits on its x rows alone, and the blocks joined
        # from that split are the full split's to the last bit, 1-D where it
        # is diagonal; the limit of order n accepts what the full check
        # accepts (one of order n/3 refused Hoffmann's Mbar on the last two)
        system = MeshSystem(fem.build_structured_mesh(counts, extents), material)
        masses = [system.pair.b] + [system.mass(system.scale(scaling.ScalingSpec(**doc)))
                                    for kind, (doc, _) in sorted(KIND_DOCS.items())
                                    if kind in DECOUPLED_KINDS - {"none"}]
        for checked in masses:
            assert checked.component.shape[0] == checked.shape[0] // 3
            full = linalg.mirror_split(checked.matrix, system.basis)
            assert (checked.split is None) == (full is None), checked.name
            assert checked.split is not None, checked.name
            for x, y in zip(checked.split.parts, full.parts):
                assert x.ndim == y.ndim == (1 if checked.is_diagonal else 2)
                assert np.array_equal(linalg._dense_part(x), linalg._dense_part(y))

    def test_mass_solves_split_no_order_n_matrix(self, material, monkeypatch):
        # values_mbar and values_mbarm read the components alone
        system = MeshSystem(fem.build_structured_mesh(PLATE_COUNTS, PLATE_EXTENTS), material)
        orders, original = [], linalg.mirror_split

        def recording(a, *args, **kwargs):
            orders.append(a.shape[0])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "mirror_split", recording)
        scaled = system.scale(OLOVSSON)
        system.values_mbar(scaled), system.values_mbarm(scaled)
        assert orders == [system.mesh.dof_count // 3] * 2

    def test_plate_mass_pencils_match_the_mirror_blocks(self, material):
        system = MeshSystem(fem.build_structured_mesh(PLATE_COUNTS, PLATE_EXTENTS), material)
        scaled = system.scale(OLOVSSON)
        mbar, m = system.mass(scaled), system.pair.b
        blocks = linalg.block_pairs(mbar.component, m.component)
        assert blocks.basis is system.basis.component and len(blocks.parts) == 8
        assert sum(blocks.orders) == system.mesh.dof_count // 3
        # the mirror-block solve: all eight block pairs, every component
        mirror = [tuple(map(linalg._dense_part, part))
                  for part in zip(mbar.split.parts, m.split.parts)]
        reference = np.sort(np.concatenate([sla.eigh(a, b, eigvals_only=True) for a, b in mirror]))
        values = system.values_mbarm(scaled)
        assert np.abs(values / reference - 1.0).max() <= 1e-13
        triples = values.reshape(-1, 3)
        assert np.array_equal(triples, np.repeat(triples[:, :1], 3, axis=1))
        ends = np.array([np.linalg.eigvalsh(a)[[0, -1]] for a, _ in mirror])
        expected = [ends[:, 0].min(), ends[:, 1].max()]
        assert np.abs(system.values_mbar(scaled) / expected - 1.0).max() <= 1e-13

    def test_a_low_tail_is_recomputed_from_the_component_blocks(self, material):
        # I_3 (x) K_zz of a slender beam, against its lumped M: a tail in
        # whole triples, three of them rigid
        system = MeshSystem(fem.build_structured_mesh((20, 2, 2), (0.2, 0.01, 0.0005)), material)
        k, m = system.pair.a.matrix, system.pair.b
        third = k.shape[0] // 3
        a = sparse.block_diag([k[2 * third:, 2 * third:]] * 3, format="csr")
        pencil = MatrixPair(CheckedMatrix(a, system.basis), m)
        a_s, m_s = pencil.a.component, pencil.b.component
        assert a_s.shape == m_s.shape == (third, third) and a_s.split is not None
        full = generalized_eigvalues(MatrixPair(a.toarray(), m.matrix.toarray()))
        start, count = analysis.flexible_slice(full), linalg.low_tail(full)
        assert count > start == 3 and count % 3 == 0
        for values in (generalized_eigvalues(pencil), generalized_eig(pencil).values):
            assert np.abs(values - full).max() <= linalg.rigid_cutoff(full)
            assert np.allclose(values[start:count], full[start:count], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mirrored", [True, False])
    def test_pairs_are_b_orthonormal(self, kinds_system, mirrored):
        # the eight x-component blocks, or with no basis A_s as one block,
        # for the values alone; generalized_eig solves the joined blocks
        basis = kinds_system.basis if mirrored else None
        a, b = kinds_system.mass(kinds_system.scale(OLOVSSON)).matrix, kinds_system.pair.b.matrix
        pencil = MatrixPair(CheckedMatrix(a, basis), CheckedMatrix(b, basis))
        blocks = linalg.block_pairs(pencil.a.component, pencil.b.component)
        assert sum(blocks.orders) == a.shape[0] // 3 and (blocks.basis is None) == (not mirrored)
        dec = generalized_eig(pencil)
        a, b = a.toarray(), b.toarray()
        u, n = dec.vectors, len(a)
        assert u.shape == (n, n)
        assert np.allclose(u.T @ b @ u, np.eye(n), atol=1e-12)
        res = a @ u - (b @ u) * dec.values
        assert np.abs(res).max() <= 1e-12 * dec.values[-1] * np.abs(b).max()
        # the component pencil's values, each three times; generalized_eig
        # solves the joined blocks, which hold the three components together
        triples = generalized_eigvalues(pencil).reshape(-1, 3)
        assert np.array_equal(triples, np.repeat(triples[:, :1], 3, axis=1))
        for values in (generalized_eigvalues(pencil), generalized_eigvalues(MatrixPair(a, b))):
            assert np.allclose(dec.values, values, rtol=1e-13, atol=0.0)
        top = generalized_eig(pencil, top=1)
        assert abs(top.values[0] / dec.values[-1] - 1.0) <= 1e-13
        assert np.abs(a @ top.vectors - (b @ top.vectors) * top.values).max() <= 1e-12 * (
            top.values[0] * np.abs(b).max())


class TestVectorsOnlyForATail:
    def test_counts_dense_vector_solves(self, kinds_mesh, material, monkeypatch):
        # a non-mirrored mesh, so each pencil is one block, reduced once to
        # tridiagonal form for all its values: the mass pencil of global
        # deflation (a full Mbar) has no low tail and forms no vectors, and
        # (K, M)'s tail takes exactly its columns from the same reduction
        mesh = perturbed(kinds_mesh[0])
        blocks = fem.element_blocks(mesh, material)
        n = mesh.dof_count
        pair = MatrixPair(fem.assemble(blocks, "stiffness", n), fem.assemble(blocks, "lumped", n))
        spec = scaling.ScalingSpec("global_deflation", rank=10)
        mbar = scaling.apply_spec(spec, blocks, n, pair=pair, k_global=pair.a).mbar_dense()
        calls = []

        def counting(module, label, read):
            name = label.split(".")[-1]
            original = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls.append((label, *read(*args, **kwargs)))
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        lapack = linalg.sla.lapack
        counting(linalg, "generalized_eig", lambda pair, **_: (pair.order,))
        counting(linalg.np.linalg, "np.eigh", lambda a, *_, **__: (len(a),))
        counting(linalg.np.linalg, "np.eigvalsh", lambda a, *_, **__: (len(a),))
        counting(linalg.sla, "sla.eigh",
                 lambda a, *_, subset_by_index=None, **__: (len(a), subset_by_index))
        counting(lapack, "dsytrd", lambda a, **_: (len(a),))
        counting(lapack, "dsterf", lambda d, e, **_: (len(d),))
        counting(linalg.sla, "eigh_tridiagonal", lambda d, e, **kw: (len(d), kw["select_range"]))
        # c's shape, and whether the call is the workspace query
        counting(lapack, "dormqr", lambda side, trans, v, tau, c, lwork: (c.shape, lwork == -1))
        reduced_once = [("dsytrd", n), ("dsterf", n)]
        mass = generalized_eigvalues(MatrixPair(mbar, pair.b))
        assert linalg.low_tail(mass) == 0 and calls == reduced_once
        calls.clear()
        values = generalized_eigvalues(pair)
        count = linalg.low_tail(values)
        assert count > 6
        assert [call for call in calls if call[0] == "dsytrd"] == [("dsytrd", n)]
        # count vectors of the tridiagonal, mapped back by its reflectors,
        # then the Ritz step's count x count solve
        assert calls == reduced_once + [
            ("eigh_tridiagonal", n, (0, count - 1)),
            ("dormqr", (n - 1, count), True),
            ("dormqr", (n - 1, count), False),
            ("sla.eigh", count, None),
        ]


class TestStreamedSolves:
    """Solver layers that hold one block, or one strip, at a time, with the
    values of the solves that held everything at once."""

    @pytest.fixture(scope="class")
    def beam_system(self, material):
        """The beam_dynamics mesh (n = 720): with its blocks ordered by their
        largest value, two blocks hold a value that only the final
        lambda_max puts below the tail cut."""
        return MeshSystem(fem.build_structured_mesh((20, 4, 3), (0.1, 0.015, 0.002)), material)

    @pytest.mark.parametrize("order", ["natural", "ascending", "descending"])
    def test_values_do_not_depend_on_where_lambda_max_lies(self, beam_system, monkeypatch, order):
        # the blocks reordered so that lambda_max comes first, last or where
        # the basis puts it; each block's early share is taken below the cut
        # of the largest value seen so far, and a block whose final share is
        # larger is reduced again. The values equal, bit for bit, those of the
        # same blocks solved with every share read from the final lambda_max,
        # as when all reductions were kept until the merge
        pencil, original = beam_system.pair, linalg.block_pairs
        blocks = original(pencil.a, pencil.b)
        tops = [extreme_eigvalues(linalg._dense_part(a))[1] for a, _ in blocks.parts]
        perm = {"natural": np.arange(8), "ascending": np.argsort(tops),
                "descending": np.argsort(tops)[::-1]}[order]
        reordered = linalg.Blocks([blocks.parts[k] for k in perm],
                                  SimpleNamespace(columns=[blocks.basis.columns[k] for k in perm]))
        monkeypatch.setattr(linalg, "block_pairs", lambda *members: reordered)
        reduced, reduce = [], linalg._reduce
        monkeypatch.setattr(linalg, "_reduce", lambda c: reduced.append(len(c)) or reduce(c))
        streamed = generalized_eigvalues(pencil)
        again = len(reduced) - 8
        below_cut, top = linalg._below_cut, streamed[-1]
        monkeypatch.setattr(linalg, "_below_cut",
                            lambda values, _, order: below_cut(values, top, order))
        reduced.clear()
        assert np.array_equal(generalized_eigvalues(pencil), streamed) and len(reduced) == 8
        if order == "ascending":
            assert again > 0  # the blocks before lambda_max's are reduced again
        elif order == "descending":
            assert again == 0  # lambda_max comes first: every early share is final
        assert linalg.low_tail(streamed) > 6

    def test_accurate_product_in_strips_is_correctly_rounded(self, monkeypatch):
        # a banded Laplacian-like A of 1500 rows and 45 entries per row spans
        # three strips; on near-null columns its product cancels to 1e-6 of
        # the terms. The strips give the one-strip product bit for bit, and
        # that is the exact product, correctly rounded
        from fractions import Fraction

        n, half = 1500, 22
        rng = np.random.default_rng(34)
        offsets = np.arange(1, half + 1)
        bands = [rng.uniform(0.5, 2.0, n - d) for d in offsets]
        a = sparse.diags_array([*(-b for b in bands), *(-b for b in bands)],
                               offsets=[*offsets, *(-offsets)], shape=(n, n), format="csr")
        a = (a - sparse.diags_array(a.sum(axis=1))).tocsr()  # rows sum to zero
        a.sum_duplicates(), a.sort_indices()
        assert len(linalg._strips(np.diff(a.indptr))) == 3
        x = 1.0 + 1e-6 * rng.standard_normal((n, 2))
        strips = linalg._accurate_matmul(a, x)
        monkeypatch.setattr(linalg, "_STRIP_ENTRIES", a.nnz + 1)
        assert len(linalg._strips(np.diff(a.indptr))) == 1
        assert np.array_equal(linalg._accurate_matmul(a, x), strips)
        cancel = np.abs(strips) / (np.abs(a) @ np.abs(x))
        assert cancel.max() < 1e-5
        data = [Fraction(v) for v in a.data]
        columns = [[Fraction(v) for v in col] for col in x.T]
        exact = np.array([[float(sum(data[p] * col[a.indices[p]]
                                     for p in range(a.indptr[i], a.indptr[i + 1])))
                           for col in columns] for i in range(n)])
        assert np.array_equal(strips, exact)

    @pytest.mark.parametrize("strip", ["first", "last"])
    def test_split_checks_every_strip_until_one_fails(self, material, monkeypatch, strip):
        # the plate's K spans several strips of representatives; a relative
        # 1e-9 change of one representative's diagonal entry, a mirror
        # asymmetry within one strip alone, is refused, after every strip when
        # it lies in the last one and after one strip when it lies in the first
        system = MeshSystem(fem.build_structured_mesh(PLATE_COUNTS, PLATE_EXTENTS), material)
        k, basis = system.pair.a.matrix, system.basis
        reps = np.unique(np.concatenate(basis.reps))
        strips = linalg._strips(7 * np.diff(k.indptr)[reps])
        assert len(strips) >= 3
        rep = reps[strips[-1]][-1] if strip == "last" else reps[0]
        changed = k.copy()
        changed.data[k.indptr[rep] + np.flatnonzero(k.indices[k.indptr[rep]:k.indptr[rep + 1]]
                                                    == rep)] *= 1.0 + 1e-9
        calls, coupling = [], linalg._coupling
        monkeypatch.setattr(linalg, "_coupling", lambda *args: calls.append(1) or coupling(*args))
        assert linalg.mirror_split(k, basis) is not None and len(calls) == len(strips)
        calls.clear()
        assert linalg.mirror_split(changed, basis) is None
        assert len(calls) == (len(strips) if strip == "last" else 1)


class TestWoodbury:
    @pytest.mark.parametrize("shape", [(6,), (6, 2)], ids=["vector", "columns"])
    def test_product_matches_dense(self, shape):
        rng = np.random.default_rng(6)
        upd = LowRankUpdate(random_spd(6, rng), rng.standard_normal((6, 2)), np.array([2.0, 0.5]))
        x = rng.standard_normal(shape)
        y = upd @ x
        assert y.shape == shape
        assert np.allclose(y, upd.dense() @ x, rtol=1e-14, atol=1e-14 * np.abs(y).max())

    def test_rank_zero_is_plain_solve(self):
        base = np.diag([2.0, 4.0])
        upd = LowRankUpdate(base, np.zeros((2, 0)), np.zeros(0))
        x = woodbury_factor(upd)(np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_rank_one_identity(self):
        # (I + e1 e1^T)^{-1} e1 = e1 / 2
        e1 = np.eye(3)[:, :1]
        upd = LowRankUpdate(np.eye(3), e1, np.array([1.0]))
        x = woodbury_factor(upd)(e1[:, 0])
        assert np.allclose(x, [0.5, 0.0, 0.0])

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(10)
        d = rng.uniform(1.0, 3.0, 10)
        v = rng.standard_normal((10, 2))
        s = np.array([2.0, 0.5])
        rhs = rng.standard_normal(10)
        upd = LowRankUpdate(np.diag(d), v, s)
        x = woodbury_factor(upd)(rhs)
        dense = np.diag(d) + (v * s) @ v.T
        x_ref = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_matches_dense_up_to_half_rank(self, rank):
        rng = np.random.default_rng(rank)
        n = 12
        base = random_spd(n, rng)
        v = rng.standard_normal((n, rank))
        s = rng.uniform(0.5, 2.0, rank)
        rhs = rng.standard_normal(n)
        upd = LowRankUpdate(base, v, s)
        x = woodbury_factor(upd)(rhs)
        x_ref = np.linalg.solve(upd.dense(), rhs)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    def test_singular_core(self):
        # S = -1 with V = e1 makes base + VSV^T singular on e1
        e1 = np.eye(2)[:, :1]
        upd = LowRankUpdate(np.eye(2), e1, np.array([-1.0]))
        with pytest.raises(SingularCore):
            woodbury_factor(upd)(np.array([1.0, 0.0]))


class TestConditionNumbers:
    def test_identity(self):
        assert condition_number(np.linalg.eigh(np.eye(4)).eigenvalues) == pytest.approx(1.0)

    def test_diagonal(self):
        values = np.linalg.eigh(np.diag([1.0, 10.0])).eigenvalues
        assert condition_number(values) == pytest.approx(10.0)

    def test_pair_identity(self):
        values = generalized_eig(MatrixPair(np.eye(3), np.eye(3))).values
        assert condition_number(values) == pytest.approx(1.0)

    def test_not_spd(self):
        with pytest.raises(NotPositiveDefinite):
            condition_number(np.linalg.eigh(np.diag([1.0, 0.0])).eigenvalues)

    def test_conditioning_bound(self):
        # kappa(A)/kappa(B) <= kappa(A, B) for SPD pairs
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = rng.integers(3, 15)
            a, b = random_spd(n, rng), random_spd(n, rng)
            lhs = (condition_number(np.linalg.eigh(a).eigenvalues)
                   / condition_number(np.linalg.eigh(b).eigenvalues))
            rhs = condition_number(generalized_eig(MatrixPair(a, b)).values)
            assert lhs <= rhs * (1 + 1e-10)

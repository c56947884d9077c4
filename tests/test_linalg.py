import numpy as np
import pytest

from conftest import random_spd, random_spsd
from masscale import analysis, fem, linalg, scaling
from masscale.errors import NotPositiveDefinite, SingularCore
from masscale.linalg import (
    EigDecomposition,
    LowRankUpdate,
    MatrixPair,
    cholesky,
    condition_number,
    generalized_eig,
    generalized_eigvalues,
    sym_eig,
    symmetrize,
    woodbury_solve,
)

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


class TestSymEig:
    def test_diagonal(self):
        dec = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.values, [1.0, 2.0, 3.0])

    def test_identity(self):
        dec = sym_eig(np.eye(5))
        assert np.allclose(dec.values, 1.0)

    def test_hoffmann_ring_matrix(self):
        # circulant in-plane coupling matrix has spectrum {1, 3, 3, 9}
        dec = sym_eig(HOFFMANN_G)
        assert np.allclose(dec.values, [1.0, 3.0, 3.0, 9.0], atol=1e-12)

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(11)
        m = symmetrize(rng.standard_normal((40, 40)))
        dec = sym_eig(m)
        res = m @ dec.vectors - dec.vectors * dec.values
        assert np.abs(res).max() <= 1e-12 * np.linalg.norm(m, 2) * 40
        assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(40), atol=1e-12)

    def test_sign_convention(self):
        dec = sym_eig(np.diag([2.0, 1.0]))
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
        assert dec.normalization == "b-orthonormal"
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


LOW_SPECTRUM_SOLVERS = {
    "values_only": generalized_eigvalues,
    "full": lambda pair: generalized_eig(pair).values,
}


class TestLowSpectrumAccuracy:
    @pytest.mark.parametrize("solver", sorted(LOW_SPECTRUM_SOLVERS))
    def test_first_flexible_values_survive_dof_permutation(self, slender_beam, solver):
        # a symmetric permutation leaves the spectrum exactly as it is, so
        # any spread is the solver's own error on the low modes
        solve = LOW_SPECTRUM_SOLVERS[solver]
        _, pair = slender_beam
        lam = solve(pair)
        assert lam[6] < 2e-8 * lam[-1]
        rng = np.random.default_rng(2)
        for _ in range(3):
            p = rng.permutation(pair.order)
            lam_p = solve(MatrixPair(pair.a[np.ix_(p, p)], pair.b[np.ix_(p, p)]))
            assert np.allclose(lam_p[6:9], lam[6:9], rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_spsd_mass_term_never_raises_a_frequency(self, slender_beam, rank):
        # Courant-Fischer: Mbar = M + E with E SPSD gives omega_i >= omegabar_i
        blocks, pair = slender_beam
        spec = scaling.ScalingSpec("local_deflation_s2", rank=rank)
        scaled = scaling.apply_spec(spec, blocks, pair.order, pair=pair, k_global=pair.a)
        lam = generalized_eig(pair).values
        lam_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar_dense()))
        ratios = analysis.frequency_ratio_curve(lam, lam_bar)
        assert ratios.min() >= 1.0 - 1e-12

    def test_recomputed_tail_keeps_pairs_consistent(self, slender_beam):
        _, pair = slender_beam
        dec = generalized_eig(pair)
        u = dec.vectors
        assert np.allclose(u.T @ pair.b @ u, np.eye(pair.order), atol=1e-12)
        res = pair.a @ u - (pair.b @ u) * dec.values
        assert np.abs(res).max() <= 1e-12 * dec.values[-1] * np.abs(pair.b).max()
        assert np.all(np.diff(dec.values) >= 0)


class TestWoodbury:
    def test_rank_zero_is_plain_solve(self):
        base = np.diag([2.0, 4.0])
        upd = LowRankUpdate(base, np.zeros((2, 0)), np.zeros(0))
        x = woodbury_solve(upd, np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_rank_one_identity(self):
        # (I + e1 e1^T)^{-1} e1 = e1 / 2
        e1 = np.eye(3)[:, :1]
        upd = LowRankUpdate(np.eye(3), e1, np.array([1.0]))
        x = woodbury_solve(upd, e1[:, 0])
        assert np.allclose(x, [0.5, 0.0, 0.0])

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(10)
        d = rng.uniform(1.0, 3.0, 10)
        v = rng.standard_normal((10, 2))
        s = np.array([2.0, 0.5])
        rhs = rng.standard_normal(10)
        upd = LowRankUpdate(d, v, s)
        x = woodbury_solve(upd, rhs)
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
        x = woodbury_solve(upd, rhs)
        x_ref = np.linalg.solve(upd.dense(), rhs)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    def test_singular_core(self):
        # S = -1 with V = e1 makes base + VSV^T singular on e1
        e1 = np.eye(2)[:, :1]
        upd = LowRankUpdate(np.eye(2), e1, np.array([-1.0]))
        with pytest.raises(SingularCore):
            woodbury_solve(upd, np.array([1.0, 0.0]))


class TestConditionNumbers:
    def test_identity(self):
        assert condition_number(sym_eig(np.eye(4)).values) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(sym_eig(np.diag([1.0, 10.0])).values) == pytest.approx(10.0)

    def test_pair_identity(self):
        values = generalized_eig(MatrixPair(np.eye(3), np.eye(3))).values
        assert condition_number(values) == pytest.approx(1.0)

    def test_not_spd(self):
        with pytest.raises(NotPositiveDefinite):
            condition_number(sym_eig(np.diag([1.0, 0.0])).values)

    def test_conditioning_bound(self):
        # kappa(A)/kappa(B) <= kappa(A, B) for SPD pairs
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = rng.integers(3, 15)
            a, b = random_spd(n, rng), random_spd(n, rng)
            lhs = condition_number(sym_eig(a).values) / condition_number(sym_eig(b).values)
            rhs = condition_number(generalized_eig(MatrixPair(a, b)).values)
            assert lhs <= rhs * (1 + 1e-10)

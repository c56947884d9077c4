import numpy as np
import pytest

from masscale import analysis, fem, scaling
from masscale.errors import NonPositiveEigenvalue, NonUniformMesh
from masscale.linalg import (
    CheckedMatrix,
    MatrixPair,
    generalized_eig,
    generalized_eigvalues,
)
from masscale.scaling import ScalingSpec


def sandwich_spectra(pair, mbar):
    """Eigenvalues of (K, M), (K, Mbar) and (Mbar, M)."""
    return [
        generalized_eig(MatrixPair(a, b)).values
        for a, b in ((pair.a, pair.b), (pair.a, mbar), (mbar, pair.b))
    ]


def mass_spectra(m, mbar):
    """Eigenvalues of M, Mbar and (Mbar, M)."""
    return (np.linalg.eigh(m).eigenvalues, np.linalg.eigh(mbar).eigenvalues,
            generalized_eig(MatrixPair(mbar, m)).values)


class TestCriticalDt:
    def test_formula(self):
        assert analysis.critical_dt(4.0) == pytest.approx(1.0)
        assert analysis.critical_dt(1e12) == pytest.approx(2e-6)

    def test_nonpositive(self):
        with pytest.raises(NonPositiveEigenvalue):
            analysis.critical_dt(0.0)

    def test_uniform_scaling_gains_sqrt_mu(self, small_system):
        _, _, pair = small_system
        mu = 9.0
        lam = generalized_eigvalues(pair)
        scaled = scaling.apply_spec(ScalingSpec("uniform_lft", mu=mu), None, None, pair)
        lam_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar))
        gain = analysis.critical_dt(lam_bar[-1]) / analysis.critical_dt(lam[-1])
        assert gain == pytest.approx(np.sqrt(mu), rel=1e-10)


class TestFrequencies:
    def test_sqrt_with_clamp(self):
        vals = np.array([-1e-20, 0.0, 4.0, 9.0])
        assert np.allclose(analysis.frequencies(vals), [0.0, 0.0, 2.0, 3.0])

    def test_flexible_slice(self, small_system):
        _, _, pair = small_system
        vals = generalized_eigvalues(pair)
        assert analysis.flexible_slice(vals) == 6

    def test_slender_beam_keeps_its_first_bending_mode(self, material):
        # a 30 cm free-free beam of 10 x 0.5 mm section (n = 1008): its
        # first bending value lies far below 1e-8 of the largest, where a
        # cutoff relative to lambda_max alone would count it as rigid
        mesh = fem.build_structured_mesh((84, 2, 2), (0.3, 0.01, 0.0005))
        blocks = fem.element_blocks(mesh, material)
        n = mesh.dof_count
        pair = MatrixPair(fem.assemble(blocks, "stiffness", n), fem.assemble(blocks, "lumped", n))
        basis = fem.mirror_basis(mesh)
        vals = generalized_eigvalues(
            MatrixPair(CheckedMatrix(pair.a, basis), CheckedMatrix(pair.b, basis)))
        assert vals[6] < 1e-8 * vals[-1]
        assert analysis.flexible_slice(vals) == 6
        scaled = scaling.apply_spec(ScalingSpec("olovsson", beta=10.0), blocks, n, pair=pair)
        vals_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar_dense()))
        assert len(analysis.frequency_ratio_curve(vals, vals_bar)) == n - 6

    def test_ratio_curve_uniform(self, small_system):
        _, _, pair = small_system
        mu = 4.0
        vals = generalized_eigvalues(pair)
        scaled = scaling.apply_spec(ScalingSpec("uniform_lft", mu=mu), None, None, pair)
        vals_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar))
        curve = analysis.frequency_ratio_curve(vals, vals_bar)
        assert curve.shape == (pair.order - 6,)
        assert np.allclose(curve, 2.0, rtol=1e-8)


class TestSandwichBounds:
    @pytest.mark.parametrize(
        "spec",
        [
            ScalingSpec("olovsson", beta=10.0),
            ScalingSpec("hoffmann", beta=10.0),
            ScalingSpec("cms", alpha=4.0),
            ScalingSpec("local_deflation_s2", rank=4),
        ],
        ids=lambda s: s.kind,
    )
    def test_ratio_sandwiched_by_pair_extremes(self, small_system, spec):
        mesh, blocks, pair = small_system
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count, pair, k_global=pair.a)
        bounds = analysis.sandwich_bounds(*sandwich_spectra(pair, scaled.mbar_dense()))
        assert all(r.holds(1e-9) for r in bounds.records.values())

    def test_identity_scaling_gives_unit_ratios(self, small_system):
        _, _, pair = small_system
        bounds = analysis.sandwich_bounds(*sandwich_spectra(pair, pair.b.copy()))
        rec = bounds["eig_pert_bounds_mass:min_ratio"]
        assert rec.value == pytest.approx(1.0, rel=1e-9)


class TestCorollaryBounds:
    def test_closed_forms(self):
        assert analysis.corollary_bound(ScalingSpec("cms", alpha=4.0)) == pytest.approx(2.0)
        assert analysis.corollary_bound(
            ScalingSpec("local_deflation_s1", rank=2, alpha=3.0)
        ) == pytest.approx(2.0)
        assert analysis.corollary_bound(
            ScalingSpec("olovsson", beta=7.0)
        ) == pytest.approx(3.0)
        assert analysis.corollary_bound(
            ScalingSpec("hoffmann", beta=2.0)
        ) == pytest.approx(np.sqrt(10.0))

    def test_s2_uses_element_spectra(self, small_system):
        _, blocks, _ = small_system
        spec = ScalingSpec("local_deflation_s2", rank=3)
        bound = analysis.corollary_bound(spec, blocks)
        block = blocks[0]
        lam = generalized_eigvalues(
            MatrixPair(block.stiffness, np.diag(block.lumped_mass))
        )
        assert bound >= np.sqrt(lam[-1] / lam[-4]) - 1e-12

    def test_no_bound(self):
        # None, not an exception: S2 has no bound without the element blocks
        assert analysis.corollary_bound(ScalingSpec("polynomial_sms", c=1.0)) is None
        assert analysis.kappa_ratio_bound(ScalingSpec("polynomial_sms", c=1.0)) is None
        assert analysis.corollary_bound(ScalingSpec("local_deflation_s2", rank=3)) is None
        report = analysis.condition_report(np.ones(2), np.ones(2), np.ones(2), 8, [1.0],
                                           spec=ScalingSpec("polynomial_sms", c=1.0))
        assert "kappa_ratio" not in report.records

    @pytest.mark.parametrize(
        "spec",
        [
            ScalingSpec("cms", alpha=4.0),
            ScalingSpec("olovsson", beta=10.0),
            ScalingSpec("hoffmann", beta=10.0),
            ScalingSpec("local_deflation_s1", rank=3, alpha=4.0),
            ScalingSpec("local_deflation_s2", rank=3),
        ],
        ids=lambda s: s.kind,
    )
    def test_bound_dominates_observed_ratios(self, small_system, spec):
        mesh, blocks, pair = small_system
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count, pair, k_global=pair.a)
        vals = generalized_eigvalues(pair)
        vals_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar_dense()))
        curve = analysis.frequency_ratio_curve(vals, vals_bar)
        bound = analysis.corollary_bound(spec, blocks)
        assert curve.max() <= bound * (1 + 1e-9)


class TestConditionReport:
    def test_identity_mass(self, small_system):
        mesh, blocks, pair = small_system
        masses = [b.element_mass for b in blocks]
        report = analysis.condition_report(
            *mass_spectra(pair.b, pair.b.copy()), mesh.p_max, masses
        )
        assert report["kappa_M"].value == pytest.approx(report["kappa_Mbar"].value)
        assert report["kappa_pair"].value == pytest.approx(1.0, rel=1e-9)
        assert all(r.holds() for r in report.records.values())

    def test_uniform_mesh_kappa_equals_p_max(self, plate_system):
        # row-sum lumping on a uniform mesh: kappa(M) = p_max = 8
        mesh, blocks, pair = plate_system
        diag = np.diag(pair.b)
        assert diag.max() / diag.min() == pytest.approx(mesh.p_max, rel=1e-12)

    @pytest.mark.parametrize("beta", [1.0, 10.0, 100.0])
    def test_olovsson_bounds_hold(self, small_system, beta):
        mesh, blocks, pair = small_system
        spec = ScalingSpec("olovsson", beta=beta)
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count, pair, k_global=pair.a)
        masses = [b.element_mass for b in blocks]
        report = analysis.condition_report(
            *mass_spectra(pair.b, scaled.mbar_dense()), mesh.p_max, masses,
            spec=spec, element_mbar=scaled.element_mbar,
        )
        assert all(r.holds(1e-9) for r in report.records.values())

    def test_hoffmann_bounds_hold(self, small_system):
        mesh, blocks, pair = small_system
        spec = ScalingSpec("hoffmann", beta=10.0)
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count, pair, k_global=pair.a)
        masses = [b.element_mass for b in blocks]
        report = analysis.condition_report(
            *mass_spectra(pair.b, scaled.mbar_dense()), mesh.p_max, masses,
            spec=spec, element_mbar=scaled.element_mbar,
        )
        assert all(r.holds(1e-9) for r in report.records.values())


class TestAsymptoticRate:
    def test_plate_value(self, plate_system):
        # 8 n / (7 m N) with n = 2400, m = 24, N = 468
        mesh, _, _ = plate_system
        rate = analysis.asymptotic_cond_rate(mesh)
        assert rate == pytest.approx(8 * 2400 / (7 * 24 * 468), rel=1e-14)
        assert rate == pytest.approx(0.2442, abs=5e-5)

    def test_nonuniform_rejected(self):
        mesh = fem.build_structured_mesh((3, 2, 2), (0.1, 0.1, 0.1))
        coords = mesh.coords.copy()
        coords[0] += 0.01
        bent = fem.Mesh(coords, mesh.connectivity)
        with pytest.raises(NonUniformMesh):
            analysis.asymptotic_cond_rate(bent)

    def test_sheared_plate_rejected(self, plate_system):
        # every element is a translate of the first, but none is a box
        mesh, _, _ = plate_system
        coords = mesh.coords.copy()
        coords[:, 0] += 3.0 * coords[:, 2]
        with pytest.raises(NonUniformMesh):
            analysis.asymptotic_cond_rate(fem.Mesh(coords, mesh.connectivity))

    @pytest.mark.parametrize("counts", [(40, 5, 4), (60, 7, 4)])
    def test_box_meshes_stay_uniform(self, counts):
        mesh = fem.build_structured_mesh(counts, (0.2, 0.02, 0.002))
        assert analysis.asymptotic_cond_rate(mesh) == pytest.approx(
            8 * mesh.dof_count / (7 * 24 * mesh.element_count), rel=1e-14)


class TestSlopeFit:
    def test_recovers_linear_relation(self):
        betas = np.array([10.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0])
        ratios = 3.0 + 0.25 * betas
        assert analysis.fit_cond_slope(betas, ratios) == pytest.approx(0.25, rel=1e-12)

    def test_uses_largest_samples(self):
        betas = np.array([1.0, 2.0, 100.0, 200.0, 300.0, 400.0, 500.0])
        ratios = 0.5 * betas
        ratios[:2] += 100.0  # pollute the small-beta samples only
        assert analysis.fit_cond_slope(betas, ratios) == pytest.approx(0.5)


class TestElementRayleigh:
    def test_shared_eigenvectors_give_exact_map(self, thin_element):
        # Olovsson scaling keeps element eigenvectors, so lambda_k / Q_e(u_k)
        # reproduces the scaled element spectrum exactly
        _, blocks = thin_element
        block = blocks[0]
        beta = 10.0
        mbar_e = np.diag(block.lumped_mass) + scaling.olovsson_block(
            block.element_mass, beta
        )
        rows, _ = analysis.element_rayleigh_report(block, mbar_e)
        scaled_direct = generalized_eigvalues(MatrixPair(block.stiffness, mbar_e))
        transformed = np.sort([row.scaled for row in rows])
        flex = scaled_direct[len(scaled_direct) - len(rows):]
        assert np.allclose(transformed, flex, rtol=1e-8)

    def test_identity_scaling_q_is_one(self, thin_element):
        _, blocks = thin_element
        block = blocks[0]
        rows, preserved = analysis.element_rayleigh_report(
            block, np.diag(block.lumped_mass)
        )
        assert preserved
        assert all(row.rayleigh == pytest.approx(1.0, rel=1e-10) for row in rows)


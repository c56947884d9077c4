import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import KIND_DOCS
from masscale import analysis, cli, fem, scaling
from masscale.errors import (
    ConfigError,
    DefectiveElementPair,
    EmptySelection,
    NonDiagonalMass,
    RankTooLarge,
)
from masscale.linalg import (
    LowRankUpdate,
    MatrixPair,
    generalized_eig,
    generalized_eigvalues,
    symmetrize,
)
from masscale.scaling import ScalingSpec
from masscale.system import MeshSystem


def flexible(values, count=6):
    return values[count:]


class TestScalingSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ScalingSpec("bogus")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="olovsson", beta=-1.0),
            dict(kind="hoffmann"),
            dict(kind="cms", alpha=0.5),
            dict(kind="local_deflation_s1", alpha=1.0),
            dict(kind="local_deflation_s2"),
            dict(kind="global_deflation"),
            dict(kind="polynomial_sms"),
            dict(kind="uniform_lft", mu=0.0),
            dict(kind="eig_stabilization", rank=1),
            dict(kind="olovsson", beta=float("nan")),
            dict(kind="hoffmann", beta=float("inf")),
            dict(kind="local_deflation_s2", rank=24),
            dict(kind="eig_stabilization", rank=0, epsilon=1e-3),
            dict(kind="cms", alpha=2.0, selector=(99,)),
            dict(kind="global_deflation", rank=2, mode="bogus"),
            dict(kind="global_deflation", rank=2, mode="cutoff"),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScalingSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="local_deflation_s2", rank=7.5),
            dict(kind="local_deflation_s2", rank=True),
            dict(kind="olovsson", beta="10"),
        ],
    )
    def test_parameter_types(self, kwargs):
        with pytest.raises(TypeError):
            ScalingSpec(**kwargs)


class TestKindsTable:
    def test_every_kind_has_a_document(self):
        assert set(KIND_DOCS) == set(scaling.KINDS)

    @pytest.mark.parametrize("kind", list(scaling.KINDS))
    def test_label(self, kind):
        doc, label = KIND_DOCS[kind]
        assert cli.parse_scaling(doc).label == label

    def test_unequal_specs_get_unequal_labels(self):
        specs = [
            ScalingSpec("cms", alpha=4.0),
            ScalingSpec("cms", alpha=4.0, selector=range(8)),
            ScalingSpec("cms", alpha=4.0, selector=(0, 7)),
            ScalingSpec("olovsson", beta=10.0),
            ScalingSpec("olovsson", beta=10.0, projector_variant=True),
            ScalingSpec("olovsson", beta=10.0000001),
            ScalingSpec("global_deflation", rank=5),
            ScalingSpec("global_deflation", rank=5, mode="shave"),
            ScalingSpec("global_deflation", rank=5, mode="cutoff", alpha=2.0),
        ]
        assert len({spec.label for spec in specs}) == len(specs)
        assert specs[1].label == "cms_alpha4_selector0-1-2-3-4-5-6-7"
        assert specs[4].label == "olovsson_beta10_projector_variant"
        assert specs[8].label == "global_deflation_alpha2_rank5_cutoff"

    def test_int_becomes_float(self):
        spec = ScalingSpec("olovsson", beta=10)
        assert type(spec.beta) is float and spec.label == "olovsson_beta10"

    def test_corollary_is_sqrt_of_kappa_ratio(self, small_system):
        _, blocks, _ = small_system
        both = []
        for kind in scaling.KINDS:
            spec = cli.parse_scaling(KIND_DOCS[kind][0])
            ratio = analysis.kappa_ratio_bound(spec)
            bound = analysis.corollary_bound(spec, blocks)
            if ratio is None:  # no growth factor: only a kind's own corollary is a bound
                assert (bound is None) == (scaling.KINDS[kind].corollary is None)
                continue
            assert bound == np.sqrt(ratio)
            both.append(kind)
        assert both == ["cms", "local_deflation_s1", "olovsson", "hoffmann"]

    @pytest.mark.parametrize("kind", list(scaling.KINDS))
    def test_rejects_a_parameter_the_kind_does_not_take(self, kind):
        entry = scaling.KINDS[kind]
        extra = next(
            name for name in ("beta", "alpha", "mu", "c", "rank", "epsilon")
            if name not in entry.params and name not in entry.optional
        )
        doc = {**KIND_DOCS[kind][0], extra: 1}
        with pytest.raises(ConfigError, match=f"takes no parameter {extra}"):
            cli.parse_scaling(doc)


class TestLFT:
    def test_uniform_divides_eigenvalues(self, small_system):
        _, _, pair = small_system
        mu = 4.0
        scaled = scaling.apply_spec(ScalingSpec("uniform_lft", mu=mu), None, None, pair)
        lam = generalized_eigvalues(pair)
        lam_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar))
        assert np.allclose(lam_bar, lam / mu, rtol=1e-9, atol=1e-9 * lam[-1] / mu)

    def test_stiffness_proportional_map(self, small_system):
        _, _, pair = small_system
        mu = 1e-9
        scaled = scaling.apply_spec(ScalingSpec("stiffness_proportional_lft", mu=mu), None, None,
                                    pair)
        lam = generalized_eigvalues(pair)
        lam_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar))
        expect = lam / (mu * lam + 1.0)
        assert np.allclose(lam_bar, expect, rtol=1e-8, atol=1e-9 * expect[-1])

    def test_eigenvectors_preserved(self, small_system):
        _, _, pair = small_system
        scaled = scaling.apply_spec(ScalingSpec("stiffness_proportional_lft", mu=1e-9), None,
                                    None, pair)
        dec = generalized_eig(pair)
        # flexible eigenvectors stay eigenvectors of the transformed pair
        u = dec.vectors[:, 20]
        lam_bar = (u @ scaled.kbar @ u) / (u @ scaled.mbar @ u)
        resid = scaled.kbar @ u - lam_bar * (scaled.mbar @ u)
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(scaled.kbar @ u)


class TestPolynomialSMS:
    def test_eigenvalue_map(self, small_system):
        _, _, pair = small_system
        lam = generalized_eigvalues(pair)
        c = 1.0 / lam[-1] ** 2
        scaled = scaling.apply_spec(ScalingSpec("polynomial_sms", c=c), None, None, pair)
        lam_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar))
        expect = np.sort(lam / (1.0 + c * lam**2))
        assert np.allclose(lam_bar, expect, rtol=1e-9, atol=1e-9 * lam[-1])

    def test_c_zero_identity(self, small_system):
        _, _, pair = small_system
        scaled = scaling.apply_spec(ScalingSpec("polynomial_sms", c=0.0), None, None, pair)
        assert np.allclose(scaled.mbar_dense(), pair.b)

    def test_requires_diagonal_mass(self, small_system):
        _, _, pair = small_system
        mc = pair.b + 0.001 * pair.a / np.abs(pair.a).max()
        with pytest.raises(NonDiagonalMass):
            scaling.apply_spec(ScalingSpec("polynomial_sms", c=1.0), None, None,
                               MatrixPair(pair.a, mc))


class TestGlobalDeflation:
    def test_shave_flattens_top(self, small_system):
        _, _, pair = small_system
        r = 5
        lam = generalized_eigvalues(pair)
        scaled = scaling.apply_spec(ScalingSpec("global_deflation", rank=r, mode="shave"), None,
                                    None, pair)
        assert isinstance(scaled.mbar, LowRankUpdate)
        lam_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar.dense()))
        n = pair.order
        assert np.allclose(lam_bar[n - r :], lam[n - r - 1], rtol=1e-9)
        assert np.allclose(lam_bar[: n - r], lam[: n - r], rtol=1e-8, atol=1e-9 * lam[-1])

    def test_shave_into_the_rigid_modes_raises(self, material):
        # n = 48 with six rigid-body modes: rank 42 would shave to a zero lambda_{n-r}
        system = MeshSystem(fem.build_structured_mesh((4, 2, 2), (0.04, 0.02, 0.01)), material)
        with pytest.raises(RankTooLarge, match="rank 42"):
            system.scale(ScalingSpec("global_deflation", rank=42))
        lam = system.values_km()
        lam_bar = system.values_kmbar(system.scale(ScalingSpec("global_deflation", rank=41)))
        assert np.allclose(lam_bar[6:], lam[6], rtol=1e-9)

    def test_cutoff_divides_top(self, small_system):
        _, _, pair = small_system
        r, alpha = 3, 4.0
        lam = generalized_eigvalues(pair)
        spec = ScalingSpec("global_deflation", rank=r, mode="cutoff", alpha=alpha)
        scaled = scaling.apply_spec(spec, None, None, pair)
        lam_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar.dense()))
        n = pair.order
        expect = np.sort(np.concatenate([lam[: n - r], lam[n - r :] / (1 + alpha)]))
        assert np.allclose(lam_bar, expect, rtol=1e-8, atol=1e-9 * lam[-1])

    def test_dt_gain_matches_anchor(self, small_system):
        _, _, pair = small_system
        r = 8
        lam = generalized_eigvalues(pair)
        scaled = scaling.apply_spec(ScalingSpec("global_deflation", rank=r, mode="shave"), None,
                                    None, pair)
        lam_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar.dense()))
        gain = np.sqrt(lam[-1] / lam_bar[-1])
        assert gain == pytest.approx(np.sqrt(lam[-1] / lam[-1 - r]), rel=1e-8)

    def test_rank_zero_is_identity(self, small_system):
        _, _, pair = small_system
        scaled = scaling.apply_spec(ScalingSpec("global_deflation", rank=0, mode="shave"), None,
                                    None, pair)
        assert np.allclose(scaled.mbar.dense(), pair.b)

    def test_rank_too_large(self, small_system):
        _, _, pair = small_system
        with pytest.raises(RankTooLarge):
            scaling.apply_spec(ScalingSpec("global_deflation", rank=pair.order, mode="shave"),
                               None, None, pair)


class TestCMS:
    def test_all_dofs_scales_everything(self, small_system):
        mesh, blocks, pair = small_system
        alpha = 4.0
        spec = ScalingSpec("cms", alpha=alpha, selector=range(24))
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count)
        assert np.allclose(scaled.mbar_dense(), alpha * pair.b, rtol=1e-12)
        lam = generalized_eigvalues(pair)
        lam_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar))
        assert np.allclose(lam_bar, lam / alpha, rtol=1e-9, atol=1e-9 * lam[-1])

    def test_partial_selection_preserves_other_entries(self, small_system):
        mesh, blocks, pair = small_system
        spec = ScalingSpec("cms", alpha=10.0, selector=range(8))
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count)
        diag = np.diag(scaled.mbar_dense())
        base = np.diag(pair.b)
        n = mesh.node_count
        # only x-component entries were touched
        assert np.allclose(diag[n:], base[n:])
        assert np.all(diag[:n] > base[:n])

    def test_empty_selector(self):
        with pytest.raises(EmptySelection):
            ScalingSpec("cms", alpha=2.0, selector=[])


class TestLocalDeflation:
    def test_s1_element_eigenvalue_map(self, small_system):
        mesh, blocks, _ = small_system
        r, alpha = 3, 4.0
        spec = ScalingSpec("local_deflation_s1", rank=r, alpha=alpha)
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count)
        block = blocks[0]
        pair_e = MatrixPair(block.stiffness, np.diag(block.lumped_mass))
        lam_e = generalized_eigvalues(pair_e)
        lam_bar = generalized_eigvalues(
            MatrixPair(block.stiffness, scaled.element_terms()[0])
        )
        # ties at the cut expand the deflated group, so compare sorted unions
        re = scaling._deflation_rank(lam_e, r, expand_ties=True)
        expect = np.sort(
            np.concatenate([lam_e[: 24 - re], lam_e[24 - re :] / (1 + alpha)])
        )
        assert np.allclose(lam_bar, expect, rtol=1e-8, atol=1e-9 * lam_e[-1])

    def test_s2_element_shave(self, small_system):
        mesh, blocks, _ = small_system
        r = 4
        scaled = scaling.apply_spec(ScalingSpec("local_deflation_s2", rank=r), blocks,
                                    mesh.dof_count)
        block = blocks[0]
        lam_e = generalized_eigvalues(
            MatrixPair(block.stiffness, np.diag(block.lumped_mass))
        )
        lam_bar = generalized_eigvalues(
            MatrixPair(block.stiffness, scaled.element_terms()[0])
        )
        assert np.allclose(lam_bar[24 - r :], lam_e[24 - r - 1], rtol=1e-8)
        assert np.allclose(lam_bar[: 24 - r], lam_e[: 24 - r], rtol=1e-8,
                           atol=1e-9 * lam_e[-1])

    def test_global_eigenvalues_never_increase(self, small_system):
        mesh, blocks, pair = small_system
        lam = generalized_eigvalues(pair)
        for strategy, alpha in (("s1", 10.0), ("s2", None)):
            spec = ScalingSpec(f"local_deflation_{strategy}", rank=5, alpha=alpha)
            scaled = scaling.apply_spec(spec, blocks, mesh.dof_count)
            lam_bar = generalized_eigvalues(MatrixPair(scaled.kbar, scaled.mbar))
            assert np.all(lam_bar <= lam * (1 + 1e-9) + 1e-9 * lam[-1])

    def test_rank_zero_unchanged(self, small_system):
        mesh, blocks, pair = small_system
        scaled = scaling.apply_spec(ScalingSpec("local_deflation_s2", rank=0), blocks,
                                    mesh.dof_count)
        assert np.allclose(scaled.mbar_dense(), pair.b)

    def test_s1_rank_zero_unchanged(self, small_system):
        mesh, blocks, pair = small_system
        scaled = scaling.apply_spec(ScalingSpec("local_deflation_s1", rank=0, alpha=4.0), blocks,
                                    mesh.dof_count)
        assert np.array_equal(scaled.mbar_dense(), pair.b)

    @pytest.mark.parametrize(
        "counts, extents, strategy, rank",
        [
            # cube elements tie, so S1 widens each of these cuts
            ((3, 3, 3), (0.02, 0.02, 0.02), "s1", 2),
            ((3, 3, 3), (0.02, 0.02, 0.02), "s1", 11),
            ((3, 3, 3), (0.02, 0.02, 0.02), "s2", 3),
            ((3, 3, 3), (0.02, 0.02, 0.02), "s2", 9),
            # thin elements: the cut lies in the recomputed low tail
            ((3, 2, 2), (1.0, 1.0, 1e-3), "s2", 15),
            ((3, 2, 2), (1.0, 1.0, 1e-3), "s1", 15),
        ],
        ids=["cube-s1-2", "cube-s1-11", "cube-s2-3", "cube-s2-9", "thin-s2-15", "thin-s1-15"],
    )
    def test_matches_per_element_loop(self, material, counts, extents, strategy, rank):
        # the reference: each element's own generalized eigensolve and cut
        mesh = fem.build_structured_mesh(counts, extents)
        blocks = fem.element_blocks(mesh, material)
        pair = MatrixPair(fem.assemble(blocks, "stiffness", mesh.dof_count),
                          fem.assemble(blocks, "lumped", mesh.dof_count))
        cutoff, alpha = strategy == "s1", 4.0
        expected, widened = [], 0
        for block in blocks:
            diag = block.lumped_mass
            dec = generalized_eig(MatrixPair(block.stiffness, np.diag(diag)))
            re = scaling._deflation_rank(dec.values, rank, expand_ties=cutoff)
            widened += re > rank
            u2, d2 = dec.vectors[:, 24 - re:], dec.values[24 - re:]
            g = np.full(re, alpha) if cutoff else d2 / dec.values[24 - re - 1] - 1.0
            v = diag[:, None] * u2
            expected.append(symmetrize(np.diag(diag) + (v * g) @ v.T))
        if cutoff and counts == (3, 3, 3):
            assert widened == len(blocks)
        spec = ScalingSpec(f"local_deflation_{strategy}", rank=rank, alpha=alpha if cutoff else None)
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count)
        scale = np.abs(scaled.element_terms()).max()
        assert np.abs(scaled.element_terms() - np.array(expected)).max() <= 1e-13 * scale
        loop = np.zeros_like(pair.b)
        for block, mbar_e in zip(blocks, expected):
            loop[np.ix_(block.dof_map, block.dof_map)] += mbar_e
        assert np.abs(scaled.mbar - loop).max() <= 1e-13 * np.abs(loop).max()
        if not cutoff:
            bound = max(1.0, max(np.sqrt(v[-1] / v[23 - rank]) for v in (
                generalized_eigvalues(MatrixPair(b.stiffness, np.diag(b.lumped_mass)))
                for b in blocks)))
            assert analysis.corollary_bound(scaled.spec, blocks) == pytest.approx(bound, rel=1e-13)

    @pytest.mark.parametrize("rank", [18, 20, 23])
    def test_s2_anchor_on_a_rigid_value_raises(self, material, rank):
        # lambda_{24 - r} is one of the element's six rigid-body values for r >= 18
        mesh = fem.build_structured_mesh((3, 2, 2), (0.04, 0.02, 0.01))
        blocks = fem.element_blocks(mesh, material)
        spec = ScalingSpec("local_deflation_s2", rank=rank)
        with pytest.raises(RankTooLarge, match=f"rank {rank} shaves to lambda_{24 - rank} "):
            scaling.apply_spec(spec, blocks, mesh.dof_count)
        with pytest.raises(RankTooLarge):
            analysis.corollary_bound(spec, blocks)
        spec = ScalingSpec("local_deflation_s2", rank=17)
        scaling.apply_spec(spec, blocks, mesh.dof_count)
        assert np.isfinite(analysis.corollary_bound(spec, blocks))

    @pytest.mark.parametrize("params", [{"rank": 7, "alpha": 10.0}, {"rank": 10}])
    def test_box_element_terms_mirror_exactly(self, material, params):
        # each box element's term is averaged over its reflections; the
        # elements around a moved node keep their asymmetric terms
        box = fem.build_structured_mesh((10, 4, 3), (0.05, 0.015, 0.002))
        coords = box.coords.copy()
        node = box.node_count // 2
        coords[node] += 1e-6 * 0.05
        spec = ScalingSpec("local_deflation_s1" if "alpha" in params else "local_deflation_s2",
                           **params)
        off = ~np.eye(24, dtype=bool)  # the lumped masses add to the diagonal only
        for mesh in (box, fem.Mesh(coords, box.connectivity)):
            blocks = fem.element_blocks(mesh, material)
            mbar = scaling.KINDS[spec.kind].element_term(blocks, spec)
            broken = np.array([max(np.abs((r @ m @ r - m)[off]).max()
                                   for r in fem.hex8_reflections()) for m in mbar])
            moved = (mesh.connectivity == node).any(axis=1) & (mesh is not box)
            assert np.all(broken[~moved] == 0.0)
            assert np.all(broken[moved] > 1e-9 * np.abs(mbar).max())

    def test_defective_pair_names_element(self, small_system):
        mesh, blocks, pair = small_system
        lumped = blocks.lumped_mass.copy()
        lumped[3, 5] = 0.0
        broken = dataclasses.replace(blocks, lumped_mass=lumped)
        for spec in (ScalingSpec("local_deflation_s1", rank=3, alpha=4.0),
                     ScalingSpec("local_deflation_s2", rank=3)):
            with pytest.raises(DefectiveElementPair, match="element 3:"):
                scaling.apply_spec(spec, broken, mesh.dof_count, k_global=pair.a)


class TestOlovsson:
    def test_block_pair_spectrum(self, thin_element):
        # element pair (Mbar_e, M_e) has eigenvalues {1 x3, 1 + 8 beta/7 x21}
        _, blocks = thin_element
        block = blocks[0]
        beta = 1.0
        mbar_e = np.diag(block.lumped_mass) + scaling.olovsson_block(
            block.element_mass, beta
        )
        lam = generalized_eigvalues(
            MatrixPair(mbar_e, np.diag(block.lumped_mass))
        )
        assert np.allclose(lam[:3], 1.0, rtol=1e-12)
        assert np.allclose(lam[3:], 1.0 + 8.0 * beta / 7.0, rtol=1e-12)

    def test_mass_increase(self, thin_element):
        # added mass per component block is beta me (8 - 1)/56 * ... trace check
        _, blocks = thin_element
        block = blocks[0]
        beta = 10.0
        e = scaling.olovsson_block(block.element_mass, beta)
        expected_trace = 3 * beta * block.element_mass * (8 * 8 - 8) / 56.0
        assert np.trace(e) == pytest.approx(expected_trace, rel=1e-12)

    def test_spsd(self, thin_element):
        _, blocks = thin_element
        e = scaling.olovsson_block(blocks[0].element_mass, 5.0)
        vals = np.linalg.eigh(e).eigenvalues
        assert vals[0] >= -1e-12 * vals[-1]

    def test_projector_variant_scale(self, thin_element):
        _, blocks = thin_element
        me = blocks[0].element_mass
        std = scaling.olovsson_block(me, 1.0)
        var = scaling.olovsson_block(me, 1.0, projector_variant=True)
        assert np.allclose(var, std * 56.0 / 64.0)

    def test_beta_zero_identity(self, small_system):
        mesh, blocks, pair = small_system
        scaled = scaling.apply_spec(ScalingSpec("olovsson", beta=0.0), blocks, mesh.dof_count)
        assert np.allclose(scaled.mbar_dense(), pair.b)


class TestHoffmann:
    def test_block_pair_spectrum(self, thin_element):
        # {1 x12, 1 + beta/2 x3, 1 + 3 beta/2 x6, 1 + 9 beta/2 x3}
        _, blocks = thin_element
        block = blocks[0]
        beta = 1.0
        mbar_e = np.diag(block.lumped_mass) + scaling.hoffmann_block(
            block.element_mass, beta
        )
        lam = generalized_eigvalues(
            MatrixPair(mbar_e, np.diag(block.lumped_mass))
        )
        expect = np.sort(np.concatenate([
            np.full(12, 1.0),
            np.full(3, 1.0 + beta / 2.0),
            np.full(6, 1.0 + 3.0 * beta / 2.0),
            np.full(3, 1.0 + 9.0 * beta / 2.0),
        ]))
        assert np.allclose(lam, expect, rtol=1e-12)

    def test_spsd(self, thin_element):
        _, blocks = thin_element
        e = scaling.hoffmann_block(blocks[0].element_mass, 3.0)
        vals = np.linalg.eigh(e).eigenvalues
        assert vals[0] >= -1e-12 * vals[-1]

    def test_beta_zero_identity(self, small_system):
        mesh, blocks, pair = small_system
        scaled = scaling.apply_spec(ScalingSpec("hoffmann", beta=0.0), blocks, mesh.dof_count)
        assert np.allclose(scaled.mbar_dense(), pair.b)


class TestEigStabilization:
    def test_adds_epsilon_floor(self, small_system):
        mesh, blocks, _ = small_system
        eps = 1e-3
        spec = ScalingSpec("eig_stabilization", rank=2, epsilon=eps)
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count)
        block = blocks[0]
        vals = np.linalg.eigh(scaled.element_terms()[0]).eigenvalues
        base = np.sort(block.lumped_mass)
        expect = np.sort(np.concatenate([base[:2] + eps, base[2:]]))
        assert np.allclose(vals, expect, rtol=1e-10)


class TestApplySpec:
    def test_none_passthrough(self, small_system):
        mesh, blocks, pair = small_system
        scaled = scaling.apply_spec(ScalingSpec("none"), blocks, mesh.dof_count, pair)
        assert np.allclose(scaled.kbar, pair.a)
        assert np.allclose(scaled.mbar_dense(), pair.b)

    @pytest.mark.parametrize(
        "spec",
        [
            ScalingSpec("cms", alpha=4.0),
            ScalingSpec("uniform_lft", mu=2.0),
            ScalingSpec("stiffness_proportional_lft", mu=1e-9),
            ScalingSpec("global_deflation", rank=5, mode="shave"),
            ScalingSpec("local_deflation_s1", rank=3, alpha=4.0),
            ScalingSpec("local_deflation_s2", rank=3),
            ScalingSpec("olovsson", beta=10.0),
            ScalingSpec("hoffmann", beta=10.0),
            ScalingSpec("eig_stabilization", rank=2, epsilon=1e-4),
        ],
        ids=lambda s: s.kind,
    )
    def test_all_kinds_never_raise_frequencies(self, small_system, spec):
        # every strategy yields an SPD scaled mass with no eigenvalue above
        # the unscaled maximum (SPSD perturbations only lower the spectrum)
        mesh, blocks, pair = small_system
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count, pair, k_global=pair.a)
        mbar = scaled.mbar_dense()
        lam = generalized_eigvalues(pair)
        lam_bar = generalized_eigvalues(MatrixPair(scaled.kbar, mbar))
        if spec.kind in ("uniform_lft",):
            return  # uniform scaling changes all eigenvalues, bound trivial
        assert lam_bar[-1] <= lam[-1] * (1 + 1e-9)

    def test_missing_pair(self, small_system):
        mesh, blocks, _ = small_system
        with pytest.raises(ValueError):
            scaling.apply_spec(
                ScalingSpec("uniform_lft", mu=2.0), blocks, mesh.dof_count, None
            )

    @pytest.mark.parametrize("kind", list(KIND_DOCS))
    def test_element_terms_are_the_assembled_ones(self, small_system, kind):
        # a local kind's terms, formed again on request, assemble to its
        # Mbar bit for bit; a global kind has none
        mesh, blocks, pair = small_system
        spec = ScalingSpec(**KIND_DOCS[kind][0])
        scaled = scaling.apply_spec(spec, blocks, mesh.dof_count, pair, k_global=pair.a)
        terms = scaled.element_terms()
        if scaling.KINDS[kind].element_term is None:
            assert terms is None
            return
        assert terms.shape == (len(blocks), 24, 24)
        again = fem.assemble(blocks, "custom", mesh.dof_count, element_matrices=terms,
                             sparse=True)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(again, name), getattr(scaled.mbar, name))

    def test_systems_keep_no_element_terms(self, material):
        # the 12 specs of kinds_small's S2 sweep through one MeshSystem keep
        # their assembled Mbar, less than one (E, 24, 24) array each
        system = MeshSystem(fem.build_structured_mesh((10, 4, 3), (0.05, 0.015, 0.002)),
                            material)
        system.pair
        terms = len(system.blocks) * 24 * 24 * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for rank in range(1, 13):
                system.scale(ScalingSpec("local_deflation_s2", rank=rank))
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert kept < 12 * terms, f"{kept / terms / 12:.2f} element-term arrays per spec"

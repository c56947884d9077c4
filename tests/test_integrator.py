import warnings

import numpy as np
import pytest

from conftest import random_spd
from masscale import analysis, fem, integrator, linalg, scaling
from masscale.errors import SolveFailure
from masscale.linalg import (
    CheckedMatrix,
    LowRankUpdate,
    MatrixPair,
    generalized_eig,
    generalized_eigvalues,
    woodbury_factor,
)
from masscale.integrator import MassSolver, central_difference_run, stability_bracket
from masscale.system import MeshSystem


class TestMassSolver:
    def test_diagonal_mode(self):
        solver = MassSolver(np.array([2.0, 4.0]))
        assert solver.mode == "diagonal"
        assert np.allclose(solver.solve(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_dense_diagonal_is_detected(self):
        solver = MassSolver(np.diag([3.0, 5.0]))
        assert solver.mode == "diagonal"

    def test_dense_mode(self):
        rng = np.random.default_rng(2)
        m = random_spd(6, rng)
        solver = MassSolver(m)
        assert solver.mode == "dense"
        rhs = rng.standard_normal(6)
        assert np.allclose(solver.solve(rhs), np.linalg.solve(m, rhs))

    def test_woodbury_mode(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(1.0, 2.0, 8)
        v = rng.standard_normal((8, 2))
        s = np.array([0.5, 1.5])
        upd = LowRankUpdate(np.diag(d), v, s)
        solver = MassSolver(upd)
        assert solver.mode == "woodbury"
        dense = upd.dense()
        rhs = rng.standard_normal(8)
        assert np.allclose(solver.solve(rhs), np.linalg.solve(dense, rhs))

    def test_rejects_indefinite(self):
        with pytest.raises(SolveFailure):
            MassSolver(np.array([1.0, -1.0]))

    def test_rejects_symmetric_indefinite_matrix(self):
        with pytest.raises(SolveFailure):
            MassSolver(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("base", [np.diag([1.0, -1.0, 2.0]),
                                      np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                                                [0.0, 0.0, 1.0]])])
    def test_rejects_indefinite_woodbury_base(self, base):
        upd = LowRankUpdate(base, np.ones((3, 1)), np.array([1.0]))
        with pytest.raises(SolveFailure):
            MassSolver(upd)

    def test_woodbury_diagonal_2d_base_divides(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(1.0, 2.0, 8)
        v = rng.standard_normal((8, 2))
        s = np.array([0.5, 1.5])
        solver = MassSolver(LowRankUpdate(np.diag(d), v, s))
        assert solver.mode == "woodbury"
        diag, _ = linalg.factor_spd(np.diag(d))  # the base is solved by division
        assert np.array_equal(diag, d)
        rhs = rng.standard_normal(8)
        assert np.allclose(solver.solve(rhs), np.linalg.solve(np.diag(d) + (v * s) @ v.T, rhs))

    @pytest.mark.parametrize("dense_base", [False, True])
    def test_woodbury_solve_agrees(self, dense_base):
        rng = np.random.default_rng(6)
        base = random_spd(10, rng) if dense_base else np.diag(rng.uniform(1.0, 2.0, 10))
        upd = LowRankUpdate(base, rng.standard_normal((10, 3)), np.array([2.0, 0.0, 0.5]))
        solver = MassSolver(upd)
        rhs = rng.standard_normal(10)
        np.testing.assert_array_equal(solver.solve(rhs), woodbury_factor(upd)(rhs))
        assert np.allclose(solver.solve(rhs), np.linalg.solve(upd.dense(), rhs))


class TestCentralDifference:
    def test_single_oscillator_phase(self):
        # m = 1, k = 4: omega = 2; the discrete frequency matches to O(dt^2)
        k = np.array([[4.0]])
        m = np.array([1.0])
        dt = 1e-3
        steps = int(round(2 * np.pi / 2.0 / dt))  # one period
        res = central_difference_run(k, m, np.array([1.0]), dt, steps)
        assert not res.diverged
        assert res.final.step == steps
        assert res.final.displacement[0] == pytest.approx(1.0, abs=1e-4)

    def test_stop_growth_aborts(self):
        k = np.array([[4.0]])
        m = np.array([1.0])
        dt = 1.5 * analysis.critical_dt(4.0)
        res = central_difference_run(k, m, np.array([1.0]), dt, 10_000)
        assert res.diverged
        assert res.final.step < 10_000
        assert res.response_norms[-1] > integrator.UNSTABLE_FACTOR
        assert np.all(res.response_norms[:-1] <= integrator.UNSTABLE_FACTOR)


def _dense_reference(k, mbar, u0, dt, steps):
    """Central difference from rest with M^{-1} K formed explicitly: the
    response norms and the final displacement."""
    amat = np.linalg.solve(mbar, k)
    u_old = u0 - 0.5 * dt * dt * (amat @ u0)
    u = u0
    norms = [np.linalg.norm(u0)]
    for _ in range(steps):
        u_new = 2.0 * u - u_old - dt * dt * (amat @ u)
        norms.append(np.linalg.norm(u_new))
        u_old, u = u, u_new
    return np.array(norms), u


class TestOperatorLoop:
    """The operator step loop against a dense M^{-1} K reference."""

    @pytest.mark.parametrize(
        "kind, path",
        [("none", "diagonal"), ("olovsson", "dense"),
         ("global_deflation", "woodbury"), ("polynomial_sms", "dense")],
    )
    def test_matches_dense_reference(self, small_system, kind, path):
        mesh, blocks, pair = small_system
        if kind == "none":
            scaled = scaling.apply_spec(scaling.ScalingSpec("none"), blocks, mesh.dof_count, pair)
        elif kind == "olovsson":
            spec = scaling.ScalingSpec("olovsson", beta=10.0)
            scaled = scaling.apply_spec(spec, blocks, mesh.dof_count, k_global=pair.a)
        elif kind == "global_deflation":
            spec = scaling.ScalingSpec("global_deflation", rank=8, mode="shave")
            scaled = scaling.apply_spec(spec, None, None, pair)
        else:
            lam_max = generalized_eigvalues(pair)[-1]
            spec = scaling.ScalingSpec("polynomial_sms", c=1.0 / lam_max**2)
            scaled = scaling.apply_spec(spec, None, None, pair)
        kbar, mbar, mbar_dense = scaled.kbar, scaled.mbar, scaled.mbar_dense()
        solver = MassSolver(mbar)
        assert solver.mode == path
        lam = generalized_eigvalues(MatrixPair(kbar, mbar_dense))
        dt = 0.9 * analysis.critical_dt(lam[-1])
        u0 = np.random.default_rng(11).standard_normal(mesh.dof_count)
        res = central_difference_run(kbar, solver, u0, dt, 500)
        norms, final = _dense_reference(kbar, mbar_dense, u0, dt, 500)
        assert not res.diverged
        assert np.all(np.abs(res.response_norms - norms) <= 1e-10 * norms)
        assert res.final.step == 500
        error = np.linalg.norm(res.final.displacement - final)
        assert error <= 1e-10 * np.linalg.norm(final)

    def test_sparse_stiffness_accepted(self):
        from scipy import sparse

        k = np.array([[2.0, -1.0], [-1.0, 2.0]])
        m = np.array([1.0, 1.0])
        u0 = np.array([1.0, 0.0])
        dense = central_difference_run(k, m, u0, 0.1, 50)
        csr = central_difference_run(sparse.csr_array(k), m, u0, 0.1, 50)
        np.testing.assert_array_equal(dense.response_norms, csr.response_norms)
        np.testing.assert_array_equal(dense.final.displacement, csr.final.displacement)


class TestStabilityBracket:
    def test_oscillator_brackets_critical_step(self):
        k = np.array([[4.0]])
        m = np.array([1.0])
        dt_c = analysis.critical_dt(4.0)
        below, above = stability_bracket(k, m, dt_c)
        assert below.classification == "stable"
        assert above.classification == "unstable"
        assert below.dt == pytest.approx(0.99 * dt_c)
        assert above.dt == pytest.approx(1.05 * dt_c)

    def test_small_random_system(self):
        rng = np.random.default_rng(7)
        k = random_spd(12, rng)
        m = rng.uniform(0.5, 1.5, 12)
        lam = generalized_eigvalues(MatrixPair(k, np.diag(m)))
        dt_c = analysis.critical_dt(lam[-1])
        below, above = stability_bracket(k, m, dt_c)
        assert below.classification == "stable"
        assert above.classification == "unstable"

    def test_woodbury_mass_path(self, small_system):
        # globally deflated plate-like system runs entirely through
        # Woodbury solves yet brackets its own critical step
        mesh, blocks, pair = small_system
        spec = scaling.ScalingSpec("global_deflation", rank=8, mode="shave")
        scaled = scaling.apply_spec(spec, None, None, pair)
        lam_bar = generalized_eigvalues(
            MatrixPair(scaled.kbar, scaled.mbar.dense())
        )
        dt_c = analysis.critical_dt(lam_bar[-1])
        below, above = stability_bracket(scaled.kbar, scaled.mbar, dt_c)
        assert below.classification == "stable"
        assert above.classification == "unstable"

    def test_growth_factor_reported(self):
        k = np.array([[4.0]])
        m = np.array([1.0])
        below, above = stability_bracket(k, m, analysis.critical_dt(4.0))
        assert below.growth_factor <= integrator.STABLE_FACTOR
        assert above.growth_factor >= integrator.UNSTABLE_FACTOR or above.growth_factor == float("inf")

    def test_growth_crossings_recorded(self):
        k = np.array([[4.0]])
        m = np.array([1.0])
        below, above = stability_bracket(k, m, analysis.critical_dt(4.0))
        assert below.stable_crossing is None and below.unstable_crossing is None
        assert 0 < above.stable_crossing < above.unstable_crossing
        # the run stops on the step that reaches the unstable factor
        assert above.unstable_crossing == above.steps_run


# The beam_dynamics benchmark mesh (n = 720) and the mass of each sparse path.
BEAM_SPECS = {"diagonal": None, "dense": scaling.ScalingSpec("olovsson", beta=10.0),
              "woodbury": scaling.ScalingSpec("global_deflation", rank=20, mode="shave")}


@pytest.fixture(scope="module")
def beam(material):
    return MeshSystem(fem.build_structured_mesh((20, 4, 3), (0.1, 0.015, 0.002)), material)


def _beam_case(beam, path):
    """(the checked K and Mbar as the CLI passes them, the scaled system or None)."""
    scaled = None if BEAM_SPECS[path] is None else beam.scale(BEAM_SPECS[path])
    return beam.pair.a, beam.mass(scaled), scaled


def _unsplit(checked):
    """The matrix of ``checked``, checked again with no mirror basis."""
    return CheckedMatrix(checked.matrix)


class TestBlockPath:
    """Stepping in the mirror blocks against the sparse operator path."""

    @pytest.mark.parametrize("path", list(BEAM_SPECS))
    def test_blocks_only_when_both_members_split(self, beam, path, monkeypatch):
        monkeypatch.setattr(integrator, "PROBE_STEPS", 20)
        k, mbar, _ = _beam_case(beam, path)
        assert k.split is not None and mbar.split is not None
        for members, expect in (((k, mbar), "blocks"), ((k, _unsplit(mbar)), path),
                                ((_unsplit(k), mbar), path), ((k.matrix, mbar.matrix), path)):
            verdicts = stability_bracket(*members, 1e-7, 42, None)
            assert [v.path for v in verdicts] == [expect, expect]

    @pytest.mark.parametrize("path", list(BEAM_SPECS))
    def test_blocks_match_the_sparse_path(self, beam, path):
        checked_k, checked_mbar, scaled = _beam_case(beam, path)
        k, mbar = checked_k.matrix, checked_mbar.matrix
        top = beam.top_kmbar(scaled)
        dt_c = analysis.critical_dt(top.values[-1])
        sparse_v = stability_bracket(k, mbar, dt_c, highest_mode=top.vectors[:, -1])
        block_v = stability_bracket(checked_k, checked_mbar, dt_c, 42, top.vectors[:, -1])
        assert [v.path for v in sparse_v] == [path, path]
        assert [v.path for v in block_v] == ["blocks", "blocks"]
        for a, b in zip(sparse_v, block_v):
            assert (a.classification, a.steps_run, a.stable_crossing, a.unstable_crossing) == (
                b.classification, b.steps_run, b.stable_crossing, b.unstable_crossing)
        assert [v.classification for v in block_v] == ["stable", "unstable"]
        # the stable run: every response norm of 10 000 steps
        u0 = np.random.default_rng(3).standard_normal(k.shape[0])
        sparse_run = central_difference_run(k, mbar, u0, 0.99 * dt_c, integrator.PROBE_STEPS)
        block_run = central_difference_run(
            k, integrator._MirrorBlocks(linalg.block_pairs(checked_k, checked_mbar)), u0,
            0.99 * dt_c, integrator.PROBE_STEPS)
        assert sparse_run.final.step == block_run.final.step == integrator.PROBE_STEPS
        diff = np.abs(block_run.response_norms - sparse_run.response_norms)
        assert np.all(diff <= 1e-8 * sparse_run.response_norms)
        final = sparse_run.final.displacement
        assert np.linalg.norm(block_run.final.displacement - final) <= 1e-8 * np.linalg.norm(final)

    def test_decoupled_pencil_takes_the_sparse_path(self, thin_element):
        # the blocks would hold the x component alone; a stiffness that
        # decouples the components is no K, but it must still step right
        mesh, blocks = thin_element
        basis, n = fem.mirror_basis(mesh), mesh.dof_count
        m = fem.assemble(blocks, "lumped", n, sparse=True)
        spec = scaling.ScalingSpec("olovsson", beta=1.0)
        kbar = CheckedMatrix(scaling.apply_spec(spec, blocks, n).mbar, basis)
        mbar = CheckedMatrix(m, basis)
        assert linalg.block_pairs(kbar, mbar).copies == 3
        top = linalg.generalized_eig(MatrixPair(kbar, mbar), top=1).values[-1]
        verdicts = stability_bracket(kbar, mbar, analysis.critical_dt(top))
        assert [v.path for v in verdicts] == ["diagonal"] * 2
        assert [v.classification for v in verdicts] == ["stable", "unstable"]

    def test_non_spd_block_mass_raises(self, beam):
        k, mbar, _ = _beam_case(beam, "diagonal")
        blocks = linalg.block_pairs(k, mbar)
        bad = [(kk, m.copy()) for kk, m in blocks.parts]
        bad[3][1][0, 0] = -bad[3][1][0, 0]
        with pytest.raises(SolveFailure, match="mass matrix is not SPD"):
            integrator._MirrorBlocks(linalg.Blocks(bad, blocks.basis))

    def test_public_bracket_checks_the_mass(self, beam):
        # a raw mass is checked: only a CheckedMatrix is trusted
        k = beam.pair.a
        mbar = beam.pair.b.matrix.toarray() + np.diag(np.full(k.shape[0] - 1, 1e-9), 1)
        with pytest.raises(ValueError, match="not symmetric"):
            stability_bracket(k, mbar, 1e-7)

    @pytest.mark.parametrize("path", list(BEAM_SPECS))
    def test_block_top_pair_matches_dense(self, beam, path, monkeypatch):
        # a fresh system: the module's beam may hold this top pair already
        system = MeshSystem(beam.mesh, beam.material)
        checked_k, checked_mass, scaled = _beam_case(system, path)
        k, mass = checked_k.matrix, linalg.dense(checked_mass)
        dense = generalized_eig(MatrixPair(k, mass), top=1)
        assert checked_mass.split is not None
        original = linalg.dense

        def no_dense_mass(a):
            if a.shape[0] == k.shape[0]:
                raise AssertionError("top_kmbar formed an n-order matrix")
            return original(a)

        monkeypatch.setattr(linalg, "dense", no_dense_mass)
        top = system.top_kmbar(scaled)
        value, vector = top.values[-1], top.vectors[:, -1]
        assert abs(value - dense.values[-1]) <= 1e-12 * dense.values[-1]
        assert vector @ (mass @ vector) == pytest.approx(1.0, rel=1e-12)
        residual = np.linalg.norm(k @ vector - value * (mass @ vector))
        assert residual <= 1e-12 * value * np.linalg.norm(mass @ vector)


def _panel_and_single(monkeypatch, run):
    """``run()`` with the block path's panels of ``PANEL_STEPS`` steps, then
    with one step per matmul."""
    panel = run()
    with monkeypatch.context() as m:
        m.setattr(integrator, "PANEL_STEPS", 1)
        return panel, run()


def _assert_same_run(a, b, rtol, rtol_final=None):
    assert (a.final.step, a.diverged) == (b.final.step, b.diverged)
    assert np.all(np.abs(a.response_norms - b.response_norms) <= rtol * b.response_norms)
    final = b.final.displacement
    error = np.linalg.norm(a.final.displacement - final)
    assert error <= (rtol_final or rtol) * np.linalg.norm(final)


class TestPanelLoop:
    """The Chebyshev panel recurrence on the blocks against one step per matmul."""

    @pytest.fixture(scope="class", params=list(BEAM_SPECS))
    def case(self, request, beam):
        k, mbar, scaled = _beam_case(beam, request.param)
        top = beam.top_kmbar(scaled)
        return (k, mbar, linalg.block_pairs(k, mbar), analysis.critical_dt(top.values[-1]),
                top.vectors[:, -1])

    def test_bracket_matches_single_steps(self, case, monkeypatch):
        k, mbar, pairs, dt_c, mode = case
        panel, single = _panel_and_single(
            monkeypatch, lambda: stability_bracket(k, mbar, dt_c, 42, mode))
        keys = ("classification", "steps_run", "stable_crossing", "unstable_crossing", "path")
        assert [[getattr(v, key) for key in keys] for v in panel] == [
            [getattr(v, key) for key in keys] for v in single]
        assert [v.classification for v in panel] == ["stable", "unstable"]
        # the stable run from the probe's start: every response norm of 10 000
        # steps. The final displacements differ by 2e-10 to 5e-10 relative;
        # from a random start, the one-step loop is itself up to 7e-10 off
        # an extended-precision run of the same operator, so 1e-9 bounds them.
        u0 = integrator._seeded_initial(k.matrix, 42, mode)
        blocks = integrator._MirrorBlocks(pairs)
        a, b = _panel_and_single(monkeypatch, lambda: central_difference_run(
            k.matrix, blocks, u0, 0.99 * dt_c, integrator.PROBE_STEPS))
        assert a.final.step == integrator.PROBE_STEPS
        _assert_same_run(a, b, 1e-10, 1e-9)

    @pytest.mark.parametrize("factor, steps", [
        (1.05, integrator.PROBE_STEPS), (1.005, integrator.PROBE_STEPS),
        (0.99, integrator.PANEL_STEPS * 31 + 3)])
    def test_divergence_and_ragged_end(self, case, monkeypatch, factor, steps):
        k, _, pairs, dt_c, mode = case
        u0 = integrator._seeded_initial(k.matrix, 42, mode)
        blocks = integrator._MirrorBlocks(pairs)
        a, b = _panel_and_single(monkeypatch, lambda: central_difference_run(
            k.matrix, blocks, u0, factor * dt_c, steps))
        _assert_same_run(a, b, 1e-10)
        if factor > 1.01:  # stopped among the first 2s single steps, before any panel
            assert a.diverged and a.final.step < 2 * integrator.PANEL_STEPS
        elif factor > 1:  # stopped inside the panel loop, not on a panel's first step
            assert a.diverged and a.final.step > 2 * integrator.PANEL_STEPS
            assert a.final.step % integrator.PANEL_STEPS
        else:
            assert not a.diverged and a.final.step == steps

    def test_panels_match_extended_precision(self, beam):
        # The lumped mass, 2000 steps: the long-double loop, one step at a
        # time on the same operator dt^2 A, costs about 0.3 ms per step.
        k, mbar, scaled = _beam_case(beam, "diagonal")
        top = beam.top_kmbar(scaled)
        u0 = integrator._seeded_initial(k.matrix, 42, top.vectors[:, -1])
        blocks = integrator._MirrorBlocks(linalg.block_pairs(k, mbar))
        dt, steps = 0.99 * analysis.critical_dt(top.values[-1]), 2000
        run = central_difference_run(k.matrix, blocks, u0, dt, steps)
        assert run.final.step == steps and not run.diverged
        g1 = (dt * dt * blocks.a).astype(np.longdouble)
        prev = blocks.coords(u0).astype(np.longdouble)
        cur = prev - 0.5 * (g1 @ prev)
        for _ in range(steps - 1):
            prev, cur = cur, 2 * cur - prev - g1 @ cur
        exact = blocks.displacement(cur[..., 0].astype(float))
        error = np.linalg.norm(run.final.displacement - exact)
        assert error <= 1e-9 * np.linalg.norm(exact)

    @pytest.mark.parametrize("factor", [20.0, 1e12])
    def test_far_above_critical_raises_no_warning(self, case, monkeypatch, factor):
        # 1e12 overflows within the first 2s iterates; the overshoot is discarded
        k, _, pairs, dt_c, mode = case
        u0 = integrator._seeded_initial(k.matrix, 42, mode)
        blocks = integrator._MirrorBlocks(pairs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = _panel_and_single(monkeypatch, lambda: central_difference_run(
                k.matrix, blocks, u0, factor * dt_c, integrator.PROBE_STEPS))
        assert a.diverged and a.final.step < integrator.PANEL_STEPS
        _assert_same_run(a, b, 1e-10)


def test_names_the_benchmark_tracer_reads():
    # perfbench/tracer.py wraps MassSolver.__init__ and MassSolver.solve
    # through the class __dict__, reads the mode of each new solver and the
    # final step of each run; a rename here silently breaks traced runs.
    assert {"__init__", "solve"} <= set(MassSolver.__dict__)
    assert MassSolver(np.array([1.0, 2.0])).mode == "diagonal"
    res = central_difference_run(np.array([[4.0]]), np.array([1.0]), np.array([1.0]), 0.1, 3)
    assert res.final.step == 3

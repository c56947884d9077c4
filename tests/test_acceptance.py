"""End-to-end acceptance suite on the benchmark plate and thin element.

Each criterion is one test; its verdict and wall time are printed as a
single PASS/FAIL line by the terminal summary hook in conftest. Every
plate spectrum and extreme is read through one module-scoped
:class:`masscale.system.MeshSystem`, the object the CLI writes its
spectrum and bounds files from, which solves each pencil once.
"""
import time
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

import conftest as shared
from conftest import random_spsd
from masscale import analysis, fem, integrator, linalg, scaling
from masscale.linalg import (
    MatrixPair,
    condition_number,
    generalized_eigvalues,
)
from masscale.scaling import ScalingSpec
from masscale.system import MeshSystem

REL = 1e-9

OLOVSSON_BETAS = (1.0, 10.0, 100.0, 500.0)
HOFFMANN_BETAS = (1.0, 10.0, 100.0, 500.0)
S1_ALPHAS = (1.0, 10.0, 100.0)
S1_RANKS = (7, 12)
S2_RANKS = tuple(range(1, 13))
SLOPE_BETAS = (100.0, 200.0, 300.0, 400.0, 500.0)
# The plate's extents refined to 60 x 7 x 4 nodes (n = 5040): criterion 9's
# slope at the next size, from the mass solves alone.
REFINED_COUNTS = (60, 7, 4)


@contextmanager
def criterion(num, desc):
    shared.ACCEPTANCE[num] = (desc, False, 0.0)
    checks = []
    start = time.perf_counter()
    yield checks
    failed = [label for label, ok in checks if not ok]
    shared.ACCEPTANCE[num] = (desc, not failed, time.perf_counter() - start)
    assert not failed, f"criterion {num} ({desc}): failed {failed}"


@pytest.fixture(scope="module")
def system(material):
    """The benchmark plate as the CLI builds it."""
    return MeshSystem(fem.build_structured_mesh(shared.PLATE_COUNTS, shared.PLATE_EXTENTS),
                      material)


@pytest.fixture(scope="module")
def plate(system, plate_eig):
    """The plate's (K, M) values from ``system``; the vectors from the
    dense oracle ``plate_eig``."""
    return SimpleNamespace(
        mesh=system.mesh,
        blocks=system.blocks,
        pair=system.pair,
        values=system.values_km(),
        vectors=plate_eig.vectors,
    )


@pytest.fixture(scope="module")
def scaled_plate(system):
    """(ScaledSystem, eigenvalues of (Kbar, Mbar)) per scaling spec."""

    def get(spec):
        scaled = system.scale(spec)
        return scaled, system.values_kmbar(scaled)

    return get


def kappa(system, scaled=None):
    """kappa(M), or kappa(Mbar) of ``scaled``, from the extremes ``system`` solves."""
    return condition_number(system.values_m() if scaled is None else system.values_mbar(scaled))


def dt_ratio(values, scaled_values):
    return float(np.sqrt(values[-1] / scaled_values[-1]))


def test_criterion_01_olovsson_element_spectrum(thin_element):
    with criterion(1, "thin-element Olovsson pair spectrum {1 x3, 15/7 x21}") as chk:
        start = time.perf_counter()
        _, blocks = thin_element
        block = blocks[0]
        mbar_e = np.diag(block.lumped_mass) + scaling.olovsson_block(
            block.element_mass, 1.0
        )
        lam = generalized_eigvalues(MatrixPair(mbar_e, np.diag(block.lumped_mass)))
        chk.append(("unit group", np.allclose(lam[:3], 1.0, rtol=1e-12)))
        chk.append(("scaled group", np.allclose(lam[3:], 15.0 / 7.0, rtol=1e-12)))
        chk.append(("runtime < 1 s", time.perf_counter() - start < 1.0))


def test_criterion_02_hoffmann_element_spectrum(thin_element):
    with criterion(2, "thin-element Hoffmann pair spectrum {1,1.5,2.5,5.5}") as chk:
        start = time.perf_counter()
        _, blocks = thin_element
        block = blocks[0]
        mbar_e = np.diag(block.lumped_mass) + scaling.hoffmann_block(
            block.element_mass, 1.0
        )
        lam = generalized_eigvalues(MatrixPair(mbar_e, np.diag(block.lumped_mass)))
        expect = np.sort(np.concatenate([
            np.full(12, 1.0), np.full(3, 1.5), np.full(6, 2.5), np.full(3, 5.5),
        ]))
        chk.append(("spectrum", np.allclose(lam, expect, rtol=1e-12)))
        chk.append(("runtime < 1 s", time.perf_counter() - start < 1.0))


@pytest.fixture(scope="module")
def lft_plate(plate, scaled_plate):
    mu = 10.0 / plate.values[-1]
    return (mu, *scaled_plate(ScalingSpec("stiffness_proportional_lft", mu=mu)))


def test_criterion_03_lft_exactness(plate, system, lft_plate):
    with criterion(3, "stiffness-proportional transform law exact on plate") as chk:
        start = time.perf_counter()
        mu, scaled, vals_bar = lft_plate
        lam = plate.values
        predicted = np.sort(lam / (mu * lam + 1.0))
        chk.append((
            "eigenvalue map",
            np.allclose(vals_bar, predicted, rtol=1e-9, atol=1e-9 * predicted[-1]),
        ))
        # eigenvectors are preserved: residual of the original vectors in
        # the transformed pencil, normalized by ||Kbar||_2 and ||u||_2
        norm_k = float(linalg.extreme_eigvalues(system.pair.a)[-1])
        lam_pred = lam / (mu * lam + 1.0)
        resid = scaled.kbar @ plate.vectors - (scaled.mbar @ plate.vectors) * lam_pred
        rel = np.linalg.norm(resid, axis=0) / (
            norm_k * np.linalg.norm(plate.vectors, axis=0)
        )
        chk.append(("eigenvector residuals", bool(rel.max() <= 1e-8)))
        chk.append(("runtime < 2 min", time.perf_counter() - start < 120.0))


@pytest.fixture(scope="module")
def deflated_plate(scaled_plate):
    return scaled_plate(ScalingSpec("global_deflation", rank=20, mode="shave"))


def test_criterion_04_global_deflation(plate, deflated_plate):
    with criterion(4, "global deflation r=20: spectrum and step ratio") as chk:
        _, vals_bar = deflated_plate
        lam = plate.values
        n = len(lam)
        anchor = lam[n - 21]
        chk.append((
            "kept modes",
            np.allclose(vals_bar[: n - 20], lam[: n - 20], rtol=1e-8,
                        atol=1e-8 * lam[-1]),
        ))
        chk.append((
            "flattened modes",
            np.allclose(vals_bar[n - 20 :], anchor, rtol=1e-8),
        ))
        gain = analysis.critical_dt(vals_bar[-1]) / analysis.critical_dt(lam[-1])
        chk.append((
            "step ratio",
            abs(gain - np.sqrt(lam[-1] / anchor)) <= 1e-9 * gain,
        ))


def _sweep_specs():
    specs = []
    for beta in OLOVSSON_BETAS:
        specs.append(ScalingSpec("olovsson", beta=beta))
    for beta in HOFFMANN_BETAS:
        specs.append(ScalingSpec("hoffmann", beta=beta))
    for alpha in S1_ALPHAS:
        for rank in S1_RANKS:
            specs.append(ScalingSpec("local_deflation_s1", alpha=alpha, rank=rank))
    for rank in S2_RANKS:
        specs.append(ScalingSpec("local_deflation_s2", rank=rank))
    return specs


def test_plate_system_takes_the_block_path(system, plate, plate_eig):
    # what the gate reads of the plate comes from the mirror blocks: a
    # silent fall back to the dense path fails here; every mass of
    # criterion 5 splits, the local deflation ones included
    assert system.pair.a.split is not None and system.pair.b.split is not None
    for spec in _sweep_specs():
        assert system.mass(system.scale(spec)).split is not None, spec
    oracle = plate_eig.values
    above = oracle > linalg.rigid_cutoff(oracle)
    assert np.allclose(plate.values[above], oracle[above], rtol=1e-12, atol=0.0)


def test_plate_pass_forms_no_full_order_array(material):
    # K, M and Mbar stay CSR (global deflation's Mbar M plus an n x r
    # factor) from assembly to the solves, and the dense arrays are the
    # mirror blocks of order about n/8: a plate pass, from element blocks
    # to every spectrum and extreme, peaks below one n x n array
    mesh = fem.build_structured_mesh(shared.PLATE_COUNTS, shared.PLATE_EXTENTS)
    n = mesh.dof_count
    for spec in (ScalingSpec("olovsson", beta=10.0), ScalingSpec("global_deflation", rank=20)):
        tracemalloc.start()
        try:
            fresh = MeshSystem(mesh, material)
            scaled = fresh.scale(spec)
            fresh.values_km(), fresh.values_kmbar(scaled), fresh.values_mbarm(scaled)
            fresh.values_m(), fresh.values_mbar(scaled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, f"{spec.label}: traced peak {peak / 2**20:.1f} MiB"


def test_criterion_05_corollary_bound_suite(plate, scaled_plate):
    with criterion(5, "frequency ratios within [1, bound] over all sweeps") as chk:
        for spec in _sweep_specs():
            _, vals_bar = scaled_plate(spec)
            curve = analysis.frequency_ratio_curve(plate.values, vals_bar)
            bound = analysis.corollary_bound(spec, plate.blocks)
            label = f"{spec.kind} b={spec.beta} a={spec.alpha} r={spec.rank}"
            chk.append((f"{label} lower", bool(curve.min() >= 1.0 - REL)))
            chk.append((f"{label} upper", bool(curve.max() <= bound * (1 + REL))))


def test_criterion_06_olovsson_sharpness(plate, scaled_plate):
    with criterion(6, "Olovsson step gain within 5% of its bound") as chk:
        for beta in OLOVSSON_BETAS:
            spec = ScalingSpec("olovsson", beta=beta)
            _, vals_bar = scaled_plate(spec)
            gain = dt_ratio(plate.values, vals_bar)
            bound = np.sqrt(1.0 + 8.0 * beta / 7.0)
            chk.append((f"beta={beta:g}", bool(gain / bound >= 0.95)))


def test_criterion_07_hoffmann_flattening(plate, scaled_plate):
    with criterion(7, "Hoffmann gain monotone, falls behind its bound") as chk:
        gains, rel_to_bound = [], []
        for beta in HOFFMANN_BETAS:
            spec = ScalingSpec("hoffmann", beta=beta)
            _, vals_bar = scaled_plate(spec)
            gain = dt_ratio(plate.values, vals_bar)
            gains.append(gain)
            rel_to_bound.append(gain / np.sqrt(1.0 + 9.0 * beta / 2.0))
        chk.append(("gain nondecreasing", bool(np.all(np.diff(gains) >= -1e-12))))
        chk.append((
            "bound ratio decays past the flattening point",
            rel_to_bound[2] < rel_to_bound[1] and rel_to_bound[3] < rel_to_bound[2],
        ))


def test_criterion_08_s2_tightness(plate, scaled_plate):
    with criterion(8, "S2 step gain within 5% of max element ratio") as chk:
        for rank in range(1, 9):
            spec = ScalingSpec("local_deflation_s2", rank=rank)
            _, vals_bar = scaled_plate(spec)
            gain = dt_ratio(plate.values, vals_bar)
            bound = analysis.corollary_bound(spec, plate.blocks)
            chk.append((
                f"r={rank}",
                gain >= 0.95 * bound and gain <= bound * (1 + REL),
            ))


def slope_and_rate(system):
    """The fitted large-beta Olovsson slope of kappa(Mbar)/kappa(M) on
    ``system``'s mesh, and the rate 8n/(7mN) it should approach."""
    ratios = [kappa(system, system.scale(ScalingSpec("olovsson", beta=beta))) / kappa(system)
              for beta in SLOPE_BETAS]
    return analysis.fit_cond_slope(SLOPE_BETAS, ratios), analysis.asymptotic_cond_rate(system.mesh)


def test_criterion_09_condition_numbers(plate, system, material):
    with criterion(9, "mass condition numbers, ratio bounds, large-beta slope") as chk:
        kappa_m = kappa(system)
        chk.append((
            "kappa(M) = p_max = 8",
            abs(kappa_m - plate.mesh.p_max) <= 1e-10 * kappa_m
            and plate.mesh.p_max == 8,
        ))
        for beta in OLOVSSON_BETAS:
            km = kappa(system, system.scale(ScalingSpec("olovsson", beta=beta)))
            chk.append((
                f"olovsson kappa ratio b={beta:g}",
                km / kappa_m <= (1.0 + 8.0 * beta / 7.0) * (1 + REL),
            ))
        for beta in HOFFMANN_BETAS:
            km = kappa(system, system.scale(ScalingSpec("hoffmann", beta=beta)))
            chk.append((
                f"hoffmann kappa ratio b={beta:g}",
                km / kappa_m <= (1.0 + 9.0 * beta / 2.0) * (1 + REL),
            ))
        slope, rate = slope_and_rate(system)
        chk.append(("rate formula", abs(rate - 8 * 2400 / (7 * 24 * 468)) < 1e-14))
        chk.append(("fitted slope within 10%", abs(slope - rate) <= 0.1 * rate))
        refined = MeshSystem(
            fem.build_structured_mesh(REFINED_COUNTS, shared.PLATE_EXTENTS), material)
        slope, rate = slope_and_rate(refined)
        chk.append(("5040 dofs", refined.mesh.dof_count == 5040))
        chk.append(("fitted slope within 10% at 5040 dofs", abs(slope - rate) <= 0.1 * rate))


def test_criterion_10_ordering_threshold(thin_element):
    with criterion(10, "S1 ordering threshold and largest scaled eigenvalue") as chk:
        mesh, blocks = thin_element
        block = blocks[0]
        me = np.diag(block.lumped_mass)
        lam = generalized_eigvalues(MatrixPair(block.stiffness, me))
        m = 24
        # rank with a clear spectral gap at the cut (no degenerate group split)
        rank = next(
            r for r in range(1, 13) if lam[m - r] > lam[m - r - 1] * (1 + 1e-6)
        )
        threshold = lam[m - rank] / lam[m - rank - 1] - 1.0
        for alpha, expect_preserved in (
            (0.9 * threshold, True),
            (1.1 * threshold, False),
        ):
            scaled = scaling.apply_spec(
                ScalingSpec("local_deflation_s1", rank=rank, alpha=alpha), blocks, mesh.dof_count
            )
            mbar_e = scaled.element_mbar[0]
            lam_bar = generalized_eigvalues(MatrixPair(block.stiffness, mbar_e))
            tag = "below" if expect_preserved else "above"
            expected_max = max(lam[m - rank - 1], lam[-1] / (1 + alpha))
            chk.append((
                f"largest eigenvalue ({tag})",
                abs(lam_bar[-1] - expected_max) <= 1e-9 * expected_max,
            ))
            transformed = lam.copy()
            transformed[m - rank :] /= 1 + alpha
            chk.append((
                f"spectrum map ({tag})",
                np.allclose(np.sort(transformed), lam_bar, rtol=1e-9,
                            atol=1e-9 * lam[-1]),
            ))
            _, preserved = analysis.element_rayleigh_report(block, mbar_e)
            chk.append((f"ordering flag ({tag})", preserved == expect_preserved))


def test_criterion_11_stability_brackets(system, plate_eig, scaled_plate, lft_plate,
                                        deflated_plate):
    with criterion(11, "0.99 dt stable / 1.05 dt unstable for every system") as chk:
        # each top pair and bracket as the CLI's integrate study reads them
        top = system.top_kmbar()
        chk.append(("unscaled top value",
                    abs(top.values[-1] - plate_eig.values[-1]) <= 1e-12 * plate_eig.values[-1]))
        scaled_systems = [("none", None), ("cms", scaled_plate(ScalingSpec("cms", alpha=4.0))[0])]
        for spec in (
            ScalingSpec("olovsson", beta=10.0),
            ScalingSpec("hoffmann", beta=10.0),
            ScalingSpec("local_deflation_s2", rank=6),
        ):
            scaled_systems.append((spec.kind, scaled_plate(spec)[0]))
        # stiffness-proportional transform, and the deflated system solved
        # through the low-rank update path
        scaled_systems += [("lft", lft_plate[1]), ("deflated", deflated_plate[0])]

        for name, scaled in scaled_systems:
            start = time.perf_counter()
            dec = system.top_kmbar(scaled)
            below, above = integrator.stability_bracket(
                system.pair.a, system.mass(scaled), analysis.critical_dt(dec.values[-1]), 42,
                dec.vectors[:, -1],
            )
            elapsed = time.perf_counter() - start
            chk.append((f"{name} stable", below.classification == "stable"))
            chk.append((f"{name} unstable", above.classification == "unstable"))
            chk.append((f"{name} runtime < 5 min", elapsed < 300.0))


def _random_fem_like(rng):
    """Random block-assembled system with injective per-element dof maps."""
    n = int(rng.integers(10, 41))
    m = 5
    perm = rng.permutation(n)
    maps = [perm[i : i + m] for i in range(0, n - m + 1, m)]
    if n % m:
        maps.append(perm[n - m :])
    for _ in range(int(rng.integers(1, 4))):
        maps.append(rng.choice(n, size=m, replace=False))
    k = np.zeros((n, n))
    m_diag = np.zeros(n)
    elements = []
    for dof in maps:
        ke = random_spsd(m, rng, rank=int(rng.integers(2, m + 1)))
        ke = 0.5 * (ke + ke.T)
        me = rng.uniform(0.5, 2.0, m)
        k[np.ix_(dof, dof)] += ke
        np.add.at(m_diag, dof, me)
        elements.append((ke, me))
    k = 0.5 * (k + k.T)
    counts = np.bincount(np.concatenate(maps), minlength=n)
    return n, k, m_diag, elements, int(counts.max())


def _check_invariants_random(rng, chk, tag):
    n, k, m_diag, elements, p_max = _random_fem_like(rng)
    m = np.diag(m_diag)
    lam = generalized_eigvalues(MatrixPair(k, m))
    elem_vals = [generalized_eigvalues(MatrixPair(ke, np.diag(me)))
                 for ke, me in elements]
    top = max(v[-1] for v in elem_vals)
    bottom = min(v[0] for v in elem_vals)
    ok_iw = (lam[-1] <= top * (1 + REL)
             and lam[0] >= bottom - REL * lam[-1])
    # Fried-style bounds on the assembled diagonal mass
    max_e = max(me.max() for _, me in elements)
    min_e = min(me.min() for _, me in elements)
    ok_fried = (
        max_e <= m_diag.max() * (1 + REL)
        and m_diag.max() <= p_max * max_e * (1 + REL)
        and min_e <= m_diag.min() * (1 + REL)
    )
    # SPSD mass perturbation: every eigenvalue can only decrease
    e = random_spsd(n, rng, rank=max(1, n // 3))
    mbar = 0.5 * (m + e + (m + e).T)
    lam_bar = generalized_eigvalues(MatrixPair(k, mbar))
    ok_mono = bool(np.all(lam_bar <= lam * (1 + REL) + REL * abs(lam[-1])))
    pair_vals = generalized_eigvalues(MatrixPair(mbar, m))
    ok_sandwich = all(r.holds(REL) for r in
                      analysis.sandwich_bounds(lam, lam_bar, pair_vals).records.values())
    km = m_diag.max() / m_diag.min()
    kbar_vals = np.linalg.eigvalsh(mbar)
    ok_cond = (kbar_vals[-1] / kbar_vals[0]) / km <= (
        pair_vals[-1] / pair_vals[0]
    ) * (1 + REL)
    ok = ok_iw and ok_fried and ok_mono and ok_sandwich and ok_cond
    if not ok:
        chk.append((tag, False))
    return ok


def test_criterion_12_invariant_suites(plate, system, scaled_plate):
    with criterion(12, "spectral/conditioning invariants on random + plate runs") as chk:
        all_random_ok = True
        for i in range(100):
            rng = np.random.default_rng(1000 + i)
            all_random_ok &= _check_invariants_random(rng, chk, f"random[{i}]")
        chk.append(("100 random systems", all_random_ok))

        lam = plate.values
        start = analysis.flexible_slice(lam)
        elem_vals = [
            generalized_eigvalues(
                MatrixPair(b.stiffness, np.diag(b.lumped_mass))
            )
            for b in plate.blocks
        ]
        top = max(v[-1] for v in elem_vals)
        bottom = min(v[0] for v in elem_vals)
        chk.append((
            "plate element-pair bounds",
            lam[-1] <= top * (1 + REL) and lam[0] >= bottom - REL * lam[-1],
        ))
        chk.append(("plate bound tightness", lam[-1] / top >= 0.95))
        diag = plate.pair.b.matrix.diagonal()
        max_e = max(b.lumped_mass.max() for b in plate.blocks)
        min_e = min(b.lumped_mass.min() for b in plate.blocks)
        chk.append((
            "plate lumped-mass bounds",
            max_e <= diag.max() * (1 + REL)
            and diag.max() <= plate.mesh.p_max * max_e * (1 + REL)
            and min_e <= diag.min() * (1 + REL),
        ))

        kappa_m = kappa(system)
        for spec in (
            ScalingSpec("olovsson", beta=10.0),
            ScalingSpec("hoffmann", beta=10.0),
            ScalingSpec("cms", alpha=4.0),
            ScalingSpec("local_deflation_s2", rank=6),
        ):
            scaled, vals_bar = scaled_plate(spec)
            label = spec.kind
            chk.append((
                f"{label} monotone",
                bool(np.all(vals_bar <= lam * (1 + REL) + REL * lam[-1])),
            ))
            mm = system.values_mbarm(scaled)
            ratios = lam[start:] / vals_bar[start:]
            chk.append((
                f"{label} sandwich",
                ratios.min() >= mm[0] * (1 - REL)
                and ratios.max() <= mm[-1] * (1 + REL),
            ))
            km = kappa(system, scaled)
            chk.append((
                f"{label} conditioning",
                km / kappa_m <= (mm[-1] / mm[0]) * (1 + REL),
            ))

"""Spectral reporting, frequency-ratio curves, and every bound in the suite.

The reports take the ascending spectra of (K, M), (K, Mbar), (Mbar, M),
M and Mbar and solve no assembled pencil; the caller decides what to
solve (the CLI, each pencil once per run). Only the element Rayleigh
tables solve their own 24 x 24 element pairs.

Bounds are *reported* (both sides stored, slack signed) rather than
asserted; the test suite owns the assertions. A kind without a bound
gets None. No file is written here: :class:`cli.Emitter` writes them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveEigenvalue, NonUniformMesh
from .linalg import MatrixPair, condition_number, generalized_eig, rigid_cutoff
from .scaling import KINDS

__all__ = [
    "BoundRecord",
    "BoundSet",
    "SpectralReport",
    "critical_dt",
    "frequencies",
    "frequency_ratio_curve",
    "sandwich_bounds",
    "corollary_bound",
    "condition_report",
    "asymptotic_cond_rate",
    "fit_cond_slope",
    "element_rayleigh_report",
    "spectral_report",
]


@dataclass(frozen=True)
class BoundRecord:
    """One inequality: lower <= value <= upper (either side may be None)."""

    source: str
    value: float
    lower: float | None = None
    upper: float | None = None

    @property
    def slack_lower(self):
        return None if self.lower is None else self.value - self.lower

    @property
    def slack_upper(self):
        return None if self.upper is None else self.upper - self.value

    def holds(self, rtol=1e-9):
        scale = max(abs(self.value), 1.0)
        if self.lower is not None and self.value < self.lower - rtol * scale:
            return False
        if self.upper is not None and self.value > self.upper + rtol * scale:
            return False
        return True


@dataclass
class BoundSet:
    """Bound records keyed by source name."""

    records: dict = field(default_factory=dict)

    def add(self, record):
        self.records[record.source] = record

    def __getitem__(self, source):
        return self.records[source]


def critical_dt(lambda_max):
    """Critical step of the central difference method: 2 / sqrt(lambda_max)."""
    if lambda_max <= 0:
        raise NonPositiveEigenvalue(f"lambda_max = {lambda_max:g}")
    return 2.0 / np.sqrt(lambda_max)


def frequencies(eigenvalues):
    """omega = sqrt(lambda), clamping tiny negative round-off to zero."""
    return np.sqrt(np.maximum(np.asarray(eigenvalues, dtype=float), 0.0))


def flexible_slice(eigenvalues):
    """Index of the first flexible mode of ascending eigenvalues: the
    rigid-body values are those at or below :func:`linalg.rigid_cutoff`,
    n * eps * lambda_max, where the dense solve cannot tell them from 0."""
    vals = np.asarray(eigenvalues, dtype=float)
    return int(np.searchsorted(vals, rigid_cutoff(vals), side="right"))


def frequency_ratio_curve(original, scaled):
    """Ratios omega_i / omegabar_i over the flexible modes, ascending index."""
    original = np.asarray(original, dtype=float)
    scaled = np.asarray(scaled, dtype=float)
    start = max(flexible_slice(original), flexible_slice(scaled))
    return frequencies(original[start:]) / frequencies(scaled[start:])


def sandwich_bounds(values, scaled_values, mass_values):
    """Check lambda_1(Mbar,M) <= lambda_k(K,M)/lambda_k(K,Mbar) <= lambda_n(Mbar,M).

    Takes the ascending eigenvalues of (K, M), (K, Mbar) and (Mbar, M).
    Returns a BoundSet with one record for the min and max observed ratio
    over the flexible modes, and one for the pair extremes.
    """
    lo, hi = mass_values[0], mass_values[-1]
    start = max(flexible_slice(values), flexible_slice(scaled_values))
    ratios = values[start:] / scaled_values[start:]
    out = BoundSet()
    out.add(BoundRecord("eig_pert_bounds_mass:min_ratio", float(ratios.min()), lower=float(lo)))
    out.add(BoundRecord("eig_pert_bounds_mass:max_ratio", float(ratios.max()), upper=float(hi)))
    out.add(BoundRecord("pair_extremes", float(hi), lower=float(lo)))
    return out


def corollary_bound(spec, blocks=None):
    """Upper bound on omega_i / omegabar_i for the given strategy, or None
    where the kind has none.

    sqrt(g) for a kind with growth factor g (see :class:`scaling.Kind`):
    CMS sqrt(alpha), local deflation S1 sqrt(1 + alpha), Olovsson
    sqrt(1 + 8 beta / 7), Hoffmann sqrt(1 + 9 beta / 2). S2 needs the
    element blocks: max_e omega_{m,e} / omega_{m-r,e}, None without them.
    No scaling: 1.
    """
    entry = KINDS[spec.kind]
    if entry.corollary is not None:
        return entry.corollary(spec, blocks)
    return None if entry.growth is None else float(np.sqrt(entry.growth(spec)))


def kappa_ratio_bound(spec):
    """Per-method upper bound g on kappa(Mbar) / kappa(M), or None if none."""
    growth = KINDS[spec.kind].growth
    return None if growth is None else growth(spec)


def condition_report(m_values, mbar_values, mass_values, p_max, element_masses, spec=None,
                     element_mbar=None):
    """Condition numbers of M, Mbar and (Mbar, M), from their ascending
    eigenvalues, with their upper bounds. Fried's bound needs
    ``element_mbar``, the (E, 24, 24) scaled element masses that
    :meth:`~masscale.scaling.ScaledSystem.element_terms` forms for a local
    kind, and reads their extreme eigenvalues by one stacked eigensolve;
    without them (a global kind) it is not reported."""
    kappa_m = condition_number(m_values)
    kappa_mbar = condition_number(mbar_values)
    kappa_pair = condition_number(mass_values)

    out = BoundSet()
    out.add(BoundRecord("kappa_M", kappa_m))
    out.add(BoundRecord("kappa_Mbar", kappa_mbar))
    out.add(BoundRecord("kappa_pair", kappa_pair))
    # Corollary: kappa(Mbar)/kappa(M) <= kappa(Mbar, M)
    out.add(BoundRecord("conditioning_bound", kappa_mbar / kappa_m, upper=kappa_pair))
    masses = np.asarray(element_masses, dtype=float)
    if element_mbar is not None:
        lams = np.linalg.eigvalsh(np.asarray(element_mbar, dtype=float))
        fried = p_max * lams[:, -1].max() / lams[:, 0].min()
        out.add(BoundRecord("fried_upper_cond", kappa_mbar, upper=float(fried)))
    out.add(
        BoundRecord(
            "mass_ratio_upper_cond",
            kappa_m,
            upper=float(p_max * masses.max() / masses.min()),
        )
    )
    bound = None if spec is None else kappa_ratio_bound(spec)
    if bound is not None:
        out.add(BoundRecord("kappa_ratio", kappa_mbar / kappa_m, upper=bound))
    return out


def asymptotic_cond_rate(mesh):
    """Refined large-beta rate 8 n / (7 m N) for the Olovsson condition
    growth, with m = 24 dofs per hex8 element."""
    if not mesh.is_uniform():
        raise NonUniformMesh("rate is only claimed for uniform structured meshes")
    return 8.0 * mesh.dof_count / (7.0 * 24 * mesh.element_count)


def fit_cond_slope(betas, kappa_ratios):
    """Least-squares slope of kappa(Mbar)/kappa(M) vs beta, over the five
    largest betas."""
    betas = np.asarray(betas, dtype=float)
    ratios = np.asarray(kappa_ratios, dtype=float)
    order = np.argsort(betas)[-5:]
    a = np.vstack([betas[order], np.ones(order.size)]).T
    slope, _ = np.linalg.lstsq(a, ratios[order], rcond=None)[0]
    return float(slope)


@dataclass
class ElementRayleighRow:
    """Rayleigh factor and scaled eigenvalue for one flexible element mode;
    the fields, in order, are the columns of the CLI's element file."""

    mode: int  # index k into the original element spectrum (0-based)
    original: float  # lambda_k(K_e, M_e)
    rayleigh: float  # Q_e(u_k) = u^T Mbar_e u / u^T M_e u
    scaled: float  # lambda_k / Q_e(u_k)


def element_rayleigh_report(block, mbar_e):
    """Rayleigh table Q_e(u_k) for the flexible modes of one element.

    Also reports whether the scaling permutes the eigenvalue ordering
    (``ordering_preserved``) by comparing the sorted scaled spectrum with
    the per-mode transformed values.
    """
    me = np.diag(block.lumped_mass)
    dec = generalized_eig(MatrixPair(block.stiffness, me))
    start = flexible_slice(dec.values)
    rows = []
    for k in range(start, len(dec.values)):
        u = dec.vectors[:, k]
        q = float(u @ mbar_e @ u) / float(u @ me @ u)
        rows.append(ElementRayleighRow(k, float(dec.values[k]), q, float(dec.values[k] / q)))
    transformed = np.array([row.scaled for row in rows])
    ordering_preserved = bool(np.all(np.diff(transformed) >= -1e-9 * transformed.max()))
    return rows, ordering_preserved


@dataclass
class SpectralReport:
    """Original and scaled spectra, critical steps and corollary bound; the
    fields are keys of the CLI's spectrum file."""

    kind: str
    original_values: np.ndarray
    scaled_values: np.ndarray
    ratio_curve: np.ndarray
    dt_original: float
    dt_scaled: float
    corollary_bound: float | None


def spectral_report(values, scaled_values, spec, blocks=None):
    """SpectralReport for one scaling from the ascending eigenvalues of (K, M)
    and of (Kbar, Mbar); ``blocks`` serve the S2 corollary (None if none)."""
    return SpectralReport(
        kind=spec.kind,
        original_values=values,
        scaled_values=scaled_values,
        ratio_curve=frequency_ratio_curve(values, scaled_values),
        dt_original=critical_dt(values[-1]),
        dt_scaled=critical_dt(scaled_values[-1]),
        corollary_bound=corollary_bound(spec, blocks),
    )

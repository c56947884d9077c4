"""Mass-scaling strategies, one :data:`KINDS` entry each.

A scaling replaces M by Mbar = M + E and keeps Kbar = K. Global kinds
(the two LFTs, polynomial SMS, global deflation) transform the assembled
pair (K, M); local kinds (CMS, local deflation, the ad hoc Olovsson and
Hoffmann constructions, eigenvalue stabilization) scale the element mass
matrices before assembly. Local deflation solves the element pairs (K_e,
M_e), element 0's alone when every element shares its stiffness (a
uniform mesh), and averages its term over the element's reflections, so
that the assembled Mbar mirrors as M does. A :class:`ScalingSpec` names
a kind and its parameters, and :func:`apply_spec` is the one way to
scale: it returns a :class:`ScaledSystem` carrying the scaled pair and
the spec.

:data:`KINDS` holds one :class:`Kind` per strategy: its typed parameters,
its element term or pair transform, and its bound data. A new kind is one
more entry there; a parameter no kind takes yet also needs a field on
:class:`ScalingSpec`.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import fem
from .errors import DefectiveElementPair, EmptySelection, NonDiagonalMass, RankTooLarge
from .linalg import (
    CheckedMatrix,
    LowRankUpdate,
    MatrixPair,
    dense,
    generalized_eig,
    is_diagonal,
    low_tail,
    rigid_cutoff,
    symmetrize,
)

__all__ = ["KINDS", "Kind", "ScalingSpec", "ScaledSystem", "apply_spec"]

_ORDER = 24  # dofs of a hex8 element
# S1 element values this close, relative to the largest, are one degenerate group.
_TIE_RTOL = 1e-9

# Hoffmann coupling matrices: thickness pairing and in-plane ring pattern.
_HOFFMANN_A = np.array([[1.0, -1.0], [-1.0, 1.0]])
_HOFFMANN_G = np.array(
    [
        [4.0, 2.0, 1.0, 2.0],
        [2.0, 4.0, 2.0, 1.0],
        [1.0, 2.0, 4.0, 2.0],
        [2.0, 1.0, 2.0, 4.0],
    ]
)


@dataclass(frozen=True)
class Kind:
    """One scaling kind: its parameters, what it does and its bound data.

    ``params`` (required) and ``optional`` map :class:`ScalingSpec` fields
    to checkers ``(name, value) -> value`` that raise on a bad value and
    return it as its type; ``check(spec)`` tests parameters jointly. A
    local kind sets ``element_term(blocks, spec)``, which maps the stacked
    :class:`fem.ElementBlocks` to the scaled element masses Mbar_e of all
    elements at once, (E, 24, 24); a global kind sets
    ``transform(k, m, spec, pair) -> Mbar`` on the matrices (K, M) of the
    assembled :class:`MatrixPair` ``pair``. ``growth(spec)`` is g, the
    largest eigenvalue of every element pair (Mbar_e, M_e), whose smallest
    is 1: omega_i / omegabar_i <= sqrt(g) and kappa(Mbar) / kappa(M) <= g.
    ``corollary(spec, blocks)`` gives the first bound in another form, or
    None where it cannot.
    """

    params: dict = field(default_factory=dict)
    optional: dict = field(default_factory=dict)
    element_term: Callable | None = None
    transform: Callable | None = None
    growth: Callable | None = None
    corollary: Callable | None = None
    check: Callable | None = None


@dataclass(frozen=True)
class ScalingSpec:
    """One scaling kind and its parameters, checked by the kind's :data:`KINDS`
    entry; a field the kind does not take keeps its default. A bad value
    raises ``TypeError`` or ``ValueError`` (:class:`RankTooLarge` and
    :class:`EmptySelection` are ``ValueError`` too).
    """

    kind: str
    beta: float | None = None
    alpha: float | None = None
    mu: float | None = None
    c: float | None = None
    rank: int | None = None
    epsilon: float | None = None
    selector: tuple | None = None  # local dof indices for CMS
    mode: str | None = None  # global deflation: "shave" | "cutoff"
    projector_variant: bool = False  # Olovsson footnote variant

    def __post_init__(self):
        entry = KINDS.get(self.kind)
        if entry is None:
            raise ValueError(f"unknown scaling kind {self.kind!r}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            check = entry.params.get(f.name) or entry.optional.get(f.name)
            if value is f.default:
                if f.name in entry.params:
                    raise ValueError(f"{self.kind} requires {f.name}")
            elif check is None:
                raise ValueError(f"{self.kind} takes no parameter {f.name}")
            else:
                object.__setattr__(self, f.name, check(f.name, value))
        if entry.check is not None:
            entry.check(self)

    @property
    def label(self):
        """File-name tag: the kind, then each field that differs from its
        default, in field order, so that unequal specs get unequal tags. A
        number is its name and value (``:g``, or ``repr`` where ``:g``
        rounds), the selector its name and dash-joined indices, the mode
        its value and a true flag its name."""
        parts = [self.kind]
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if value == f.default:
                continue
            if isinstance(value, bool):
                parts.append(f.name)
            elif isinstance(value, str):
                parts.append(value)
            elif isinstance(value, tuple):
                parts.append(f.name + "-".join(map(str, value)))
            elif isinstance(value, float):
                text = f"{value:g}"
                parts.append(f.name + (text if float(text) == value else repr(value)))
            else:
                parts.append(f"{f.name}{value}")
        return "_".join(parts)


@dataclass(frozen=True)
class ScaledSystem:
    """Scaled pair (kbar, mbar) and the :class:`ScalingSpec` that made it.

    ``kbar`` is K for every kind. ``mbar`` is a CSR array for a local kind
    and, for the other global kinds, of the type of the pair's members;
    global deflation keeps it an implicit :class:`LowRankUpdate`, formed
    only by :meth:`mbar_dense` and for a dense solve. For local
    strategies ``element_mbar`` is the (E, 24, 24) array of the scaled
    element masses, element e in row e as in the blocks.
    """

    kbar: object  # CSR or dense
    mbar: object  # CSR, dense or LowRankUpdate
    spec: ScalingSpec
    element_mbar: np.ndarray | None = None

    def mbar_dense(self):
        """Mbar as a dense array."""
        return dense(self.mbar)


def _number(low, high=None, strict=False, integer=False):
    """Checker for a finite float (an int is accepted) or, with ``integer``,
    an int, never a bool: low <= value <= high, or low < value if ``strict``."""
    cls, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a finite number")
    span = f"{'>' if strict else '>='} {low:g}" + ("" if high is None else f" and <= {high:g}")

    def check(name, value):
        if isinstance(value, bool) or not isinstance(value, cls):
            raise TypeError(f"{name} must be {what}, got {value!r}")
        value = int(value) if integer else float(value)
        if not (math.isfinite(value) and (value > low if strict else value >= low)
                and (high is None or value <= high)):
            error = RankTooLarge if integer else ValueError
            raise error(f"{name} must be {what} {span}, got {value!r}")
        return value

    return check


def _selector(name, value):
    """Checker for CMS local dof indices: nonempty, in [0, 24); kept sorted and unique."""
    items = list(value) if isinstance(value, Iterable) else None
    if items is None or any(
        isinstance(i, bool) or not isinstance(i, numbers.Integral) for i in items
    ):
        raise TypeError(f"{name} must be a list of integers, got {value!r}")
    picked = tuple(sorted({int(i) for i in items}))
    if not picked or picked[0] < 0 or picked[-1] >= _ORDER:
        raise EmptySelection(f"{name} must pick indices in [0, {_ORDER}), got {value!r}")
    return picked


def _flag(name, value):
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be true or false, got {value!r}")
    return value


def _deflation_mode(name, value):
    if value not in ("shave", "cutoff"):
        raise ValueError(f"{name} must be shave or cutoff, got {value!r}")
    return value


def _cutoff_needs_alpha(spec):
    if spec.mode == "cutoff" and spec.alpha is None:
        raise ValueError("cutoff mode requires alpha")


def _diagonal(diag):
    """(E, 24, 24) matrices with the rows of ``diag`` (E, 24) on their diagonals."""
    out = np.zeros(diag.shape + diag.shape[-1:])
    out[:, np.arange(_ORDER), np.arange(_ORDER)] = diag
    return out


def _element_eigh(blocks):
    """Ascending eigenvalues (S, 24) and M_e-orthonormal vectors
    (S, 24, 24) of the element pairs (K_e, M_e), M_e = D_e lumped, as
    :func:`generalized_eig` gives them: S = 1, element 0's pair, when the
    blocks share one stiffness (:attr:`fem.ElementBlocks.shared`), else
    S = E, every element's. One stacked ``eigh`` of D_e^{-1/2} K_e
    D_e^{-1/2}, and :func:`generalized_eig` itself for an element with a
    low tail to recompute (a thin element; none on the benchmark meshes).
    A lumped entry that is not positive raises
    :class:`DefectiveElementPair` naming the first such element."""
    diag = blocks.lumped_mass
    bad = np.argwhere(~(diag > 0))
    if bad.size:
        e, entry = bad[0]
        raise DefectiveElementPair(f"element {e}: lumped mass entry {entry} is not positive")
    count = 1 if blocks.shared else len(blocks)
    stiffness, diag = blocks.stiffness[:count], diag[:count]
    s = 1.0 / np.sqrt(diag)
    values, vectors = np.linalg.eigh(symmetrize(stiffness * s[:, :, None] * s[:, None, :]))
    vectors *= s[:, :, None]
    for e in np.flatnonzero([low_tail(v) for v in values]):
        dec = generalized_eig(MatrixPair(stiffness[e], np.diag(diag[e])))
        values[e], vectors[e] = dec.values, dec.vectors
    return values, vectors


def _cms_term(blocks, spec):
    """Lumped element masses with the selected entries (all by default) times alpha."""
    diag = blocks.lumped_mass.copy()
    diag[:, list(spec.selector or range(_ORDER))] *= spec.alpha
    return _diagonal(diag)


def _polynomial_sms(k, m, spec, pair):
    """Second-degree polynomial SMS: Mbar = M + c K M^{-1} K.

    Transformed eigenvalues obey lambda -> lambda / (1 + c lambda^2) with
    eigenvectors preserved. Requires a diagonal (lumped) mass with a
    positive diagonal, else raises :class:`NonDiagonalMass`. On a sparse
    pair, K M^{-1} K is a sparse product.
    """
    if not is_diagonal(m):
        raise NonDiagonalMass("polynomial SMS requires a diagonal mass matrix")
    m_diag = m.diagonal()
    if np.any(m_diag <= 0):
        raise NonDiagonalMass("mass diagonal must be strictly positive")
    mbar = m + spec.c * (k @ (k / m_diag[:, None]))
    return 0.5 * (mbar + mbar.T)


def _global_deflation(k, m, spec, pair):
    """Deflate the top r eigenvalues of the assembled pair: ``shave`` (the
    default) flattens them to lambda_{n-r}, ordering preserved, and raises
    :class:`RankTooLarge` when that anchor is a rigid-body value (at or
    below :func:`~masscale.linalg.rigid_cutoff`); ``cutoff``
    divides them by 1 + alpha. Mbar is an implicit :class:`LowRankUpdate`.

    The top r + 1 pairs come from ``generalized_eig(pair, top=r + 1)``:
    from the mirror blocks when both members are checked and split, so
    that each column of V = M U lies in one block, else from a partial
    dense solve."""
    n = m.shape[0]
    r = spec.rank
    if r >= n:
        raise RankTooLarge(f"rank {r} out of range for order {n}")
    dec = generalized_eig(pair, top=r + 1)
    v = m @ dec.vectors[:, 1:]  # V = M U over the top r pairs
    if spec.mode == "cutoff":
        g = np.full(r, spec.alpha)
    elif not dec.values[0] > rigid_cutoff(dec.values, n):
        raise RankTooLarge(f"rank {r} shaves to lambda_{n - r} = {dec.values[0]:g}, "
                           f"a rigid-body value, for order {n}")
    else:
        g = dec.values[1:] / dec.values[0] - 1.0
    return LowRankUpdate(m, v, np.asarray(g, dtype=float))


def _deflation_rank(values, r, expand_ties):
    """Effective rank; for S1 a degenerate group split by the cut is
    deflated as a whole so the low-rank factor stays basis-independent."""
    m = len(values)
    if not expand_ties:
        return r
    scale = abs(values[-1]) or 1.0
    while 0 < r < m - 1 and abs(values[m - r - 1] - values[m - r]) <= _TIE_RTOL * scale:
        r += 1
    return r


def _mirrored(terms):
    """The (S, 24, 24) element terms averaged over the eight reflections of
    a box element (:func:`fem.hex8_reflections`), where a term breaks them
    by at most 24^2 * eps * max|T| in any entry, as much as a perturbation
    of 2-norm 24 * eps * ||T||_2 can; any other term is kept as it is. A
    box element's exact term commutes with them, and the error of its
    eigenvectors breaks them by up to 67 eps * max|T| on the benchmark
    meshes; an element that is not a box breaks them by about its
    distortion. The average is taken one reflection at a time, (T + R T
    R) / 2, and the reflections are signed permutations that commute, so
    the result commutes with all eight exactly."""
    out = terms
    for r in fem.hex8_reflections():
        out = 0.5 * (out + r @ out @ r)
    limit = _ORDER**2 * np.finfo(float).eps * np.abs(terms).max(axis=(1, 2))
    keep = np.abs(out - terms).max(axis=(1, 2)) <= limit
    return np.where(keep[:, None, None], out, terms)


def _deflated_term(blocks, spec, cutoff):
    """M_e + V G V^T over the top eigenpairs of the element pairs that
    :func:`_element_eigh` solves: element 0's for every element when the
    blocks share one stiffness, else each element's own.

    With ``cutoff`` (S1) G = alpha I over the top pairs, the rank widened
    by :func:`_deflation_rank`; otherwise (S2) G shaves the top r
    eigenvalues to the anchor lambda_{m-r} (:func:`_s2_anchors`). The term
    V G V^T is averaged over the element's reflections where it breaks
    them at rounding level only (:func:`_mirrored`).
    """
    values, vectors = _element_eigh(blocks)
    diag = blocks.lumped_mass[:len(values)]
    if not cutoff:
        _s2_anchors(values, spec.rank)
    ranks = np.array([_deflation_rank(v, spec.rank, expand_ties=cutoff) for v in values])
    term = np.zeros(vectors.shape)
    for re in np.unique(ranks[ranks > 0]):  # one product per rank, shaped as one element's
        sel = ranks == re
        cut = _ORDER - re
        d2 = values[sel, cut:]
        g = np.full(d2.shape, spec.alpha) if cutoff else d2 / values[sel, cut - 1:cut] - 1.0
        v = diag[sel, :, None] * vectors[sel, :, cut:]  # V_e = M_e U_{e,2} for diagonal M_e
        term[sel] = symmetrize((v * g[:, None, :]) @ v.transpose(0, 2, 1))
    return _diagonal(blocks.lumped_mass) + _mirrored(term)


def _s2_anchors(values, rank):
    """lambda_{m-r} of each element spectrum (rows of ``values``), the
    value that S2 shaves its top r to. An anchor at or below
    :func:`~masscale.linalg.rigid_cutoff` of its spectrum is a rigid-body
    value (r >= 18 on a hex8) and raises :class:`RankTooLarge`."""
    anchors = values[:, _ORDER - rank - 1]
    low = np.flatnonzero([a <= rigid_cutoff(v) for a, v in zip(anchors, values)])
    if low.size:
        raise RankTooLarge(f"rank {rank} shaves to lambda_{_ORDER - rank} = "
                           f"{anchors[low[0]]:g}, a rigid-body value of the element pair")
    return anchors


def _s2_corollary(spec, blocks):
    """max(1, max_e omega_{m,e} / omega_{m-r,e}) over the element pairs
    that :func:`_element_eigh` solves; None without the element blocks."""
    if blocks is None:
        return None
    values = _element_eigh(blocks)[0]
    return max(1.0, float(np.sqrt(values[:, -1] / _s2_anchors(values, spec.rank)).max()))


def olovsson_block(element_mass, beta, projector_variant=False):
    """24x24 scaling matrix E_e = I_3 (x) (beta m_e / 56) (8 I_8 - e e^T);
    (E, 24, 24) for an array of E element masses.

    The footnoted variant uses (beta m_e / 8)(I_8 - u u^T) instead, which
    only changes the constant.
    """
    e8 = 8.0 * np.eye(8) - np.ones((8, 8))
    factor = beta * np.asarray(element_mass, dtype=float) / (64.0 if projector_variant else 56.0)
    return np.multiply.outer(factor, np.kron(np.eye(3), e8))


def hoffmann_block(element_mass, beta):
    """24x24 scaling matrix E_e = I_3 (x) (beta m_e / 32) (A (x) G);
    (E, 24, 24) for an array of E element masses."""
    gamma_tilde = np.asarray(element_mass, dtype=float) / 8.0
    e8 = np.kron(_HOFFMANN_A, _HOFFMANN_G)
    return np.multiply.outer(beta * gamma_tilde / 4.0, np.kron(np.eye(3), e8))


def _stabilized_term(blocks, spec):
    """M_e + epsilon U_1 U_1^T over the r smallest element mass eigenvectors."""
    me = _diagonal(blocks.lumped_mass)
    u1 = np.linalg.eigh(me)[1][:, :, :spec.rank]
    return symmetrize(me + spec.epsilon * (u1 @ u1.transpose(0, 2, 1)))


def apply_spec(spec, blocks, ndof, pair=None, k_global=None):
    """Apply the strategy that :data:`KINDS` holds for ``spec.kind``.

    Global kinds transform the assembled ``pair`` (K, M), a
    :class:`MatrixPair` or a tuple checked here as one: the matrices its
    members hold, and the pair itself for global deflation's solve. Local
    kinds scale all elements of the stacked ``blocks`` at once and
    assemble the result as a CSR array; K is ``k_global`` when given,
    else assembled from ``blocks``, also as CSR.
    """
    entry = KINDS[spec.kind]
    if entry.transform is not None:
        if pair is None:
            raise ValueError(f"{spec.kind} requires the assembled pair")
        pair = pair if isinstance(pair, MatrixPair) else MatrixPair(*pair)
        k, m = (x.matrix if isinstance(x, CheckedMatrix) else x for x in (pair.a, pair.b))
        return ScaledSystem(k, entry.transform(k, m, spec, pair), spec)
    element_mbar = entry.element_term(blocks, spec)
    kbar = fem.assemble(blocks, "stiffness", ndof, sparse=True) if k_global is None else k_global
    mbar = fem.assemble(blocks, "custom", ndof, element_matrices=element_mbar,
                         sparse=True)
    return ScaledSystem(kbar, mbar, spec, element_mbar)


KINDS = {
    "none": Kind(
        transform=lambda k, m, spec, pair: m,
        corollary=lambda spec, blocks: 1.0,
    ),
    "cms": Kind(
        params={"alpha": _number(1)},
        optional={"selector": _selector},
        element_term=_cms_term,
        growth=lambda spec: spec.alpha,
    ),
    "uniform_lft": Kind(  # lambda -> lambda / mu
        params={"mu": _number(0, strict=True)},
        transform=lambda k, m, spec, pair: spec.mu * m,
    ),
    "stiffness_proportional_lft": Kind(  # lambda -> lambda / (mu lambda + 1)
        params={"mu": _number(0, strict=True)},
        transform=lambda k, m, spec, pair: m + spec.mu * k,
    ),
    "polynomial_sms": Kind(
        params={"c": _number(0)},
        transform=_polynomial_sms,
    ),
    "global_deflation": Kind(
        params={"rank": _number(0, integer=True)},
        optional={"mode": _deflation_mode, "alpha": _number(0)},
        transform=_global_deflation,
        check=_cutoff_needs_alpha,
    ),
    "local_deflation_s1": Kind(
        params={"rank": _number(0, _ORDER - 1, integer=True), "alpha": _number(0)},
        element_term=partial(_deflated_term, cutoff=True),
        growth=lambda spec: 1.0 + spec.alpha,
    ),
    "local_deflation_s2": Kind(
        params={"rank": _number(0, _ORDER - 1, integer=True)},
        element_term=partial(_deflated_term, cutoff=False),
        corollary=_s2_corollary,
    ),
    "olovsson": Kind(
        params={"beta": _number(0)},
        optional={"projector_variant": _flag},
        element_term=lambda blocks, spec: _diagonal(blocks.lumped_mass)
        + olovsson_block(blocks.element_mass, spec.beta, spec.projector_variant),
        growth=lambda spec: 1.0 + 8.0 * spec.beta / 7.0,
    ),
    "hoffmann": Kind(
        params={"beta": _number(0)},
        element_term=lambda blocks, spec: _diagonal(blocks.lumped_mass)
        + hoffmann_block(blocks.element_mass, spec.beta),
        growth=lambda spec: 1.0 + 9.0 * spec.beta / 2.0,
    ),
    "eig_stabilization": Kind(
        params={"rank": _number(1, _ORDER, integer=True), "epsilon": _number(0, strict=True)},
        element_term=_stabilized_term,
    ),
}

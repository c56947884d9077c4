"""Mass-scaling strategies.

Global strategies (LFTs, polynomial SMS, global deflation) act on the
assembled pair (K, M); local strategies (CMS, local deflation, the ad hoc
Olovsson and Hoffmann constructions, eigenvalue stabilization) modify the
element mass matrices before assembly. Every strategy returns a
:class:`ScaledSystem` carrying the scaled pair plus provenance.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import (
    DefectiveElementPair,
    DegenerateLFT,
    EmptySelection,
    LostDefiniteness,
    NonDiagonalMass,
    NotPositiveDefinite,
    RankTooLarge,
)
from .linalg import (
    LowRankUpdate,
    MatrixPair,
    cholesky,
    generalized_eig,
    is_diagonal,
    symmetrize,
)

__all__ = [
    "KINDS",
    "ScalingSpec",
    "ScaledSystem",
    "cms",
    "lft",
    "uniform_lft_matrix",
    "stiffness_proportional_lft_matrix",
    "polynomial_sms",
    "global_deflation",
    "local_deflation",
    "olovsson",
    "hoffmann",
    "eig_stabilization",
    "apply_spec",
]

KINDS = (
    "none",
    "cms",
    "uniform_lft",
    "stiffness_proportional_lft",
    "polynomial_sms",
    "global_deflation",
    "local_deflation_s1",
    "local_deflation_s2",
    "olovsson",
    "hoffmann",
    "eig_stabilization",
)

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
class ScalingSpec:
    """Tagged description of one scaling strategy and its parameters."""

    kind: str
    beta: float | None = None
    alpha: float | None = None
    mu: float | None = None
    c: float | None = None
    rank: int | None = None
    epsilon: float | None = None
    selector: tuple | None = None  # local dof indices for CMS
    w: tuple | None = None  # 2x2 LFT coefficients, row major
    mode: str | None = None  # global deflation: "shave" | "cutoff"
    projector_variant: bool = False  # Olovsson footnote variant

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scaling kind {self.kind!r}")
        if self.kind in ("olovsson", "hoffmann") and (self.beta is None or self.beta < 0):
            raise ValueError(f"{self.kind} requires beta >= 0")
        if self.kind == "cms" and (self.alpha is None or self.alpha < 1):
            raise ValueError("cms requires alpha >= 1")
        if self.kind == "local_deflation_s1" and (self.alpha is None or self.alpha < 0):
            raise ValueError("local deflation S1 requires alpha >= 0")
        if self.kind.startswith("local_deflation") and (self.rank is None or self.rank < 0):
            raise ValueError("local deflation requires a nonnegative rank")
        if self.kind == "global_deflation" and (self.rank is None or self.rank < 0):
            raise ValueError("global deflation requires a nonnegative rank")
        if self.kind == "polynomial_sms" and (self.c is None or self.c < 0):
            raise ValueError("polynomial SMS requires c >= 0")
        if self.kind in ("uniform_lft", "stiffness_proportional_lft") and (
            self.mu is None or self.mu <= 0
        ):
            raise ValueError(f"{self.kind} requires mu > 0")
        if self.kind == "eig_stabilization" and (self.epsilon is None or self.epsilon <= 0):
            raise ValueError("eigenvalue stabilization requires epsilon > 0")


@dataclass(frozen=True)
class ScaledSystem:
    """Scaled pair (kbar, mbar) with provenance.

    ``mbar`` is a dense array except for global deflation, where it stays
    an implicit :class:`LowRankUpdate` so Woodbury solves remain available.
    For local strategies ``element_mbar`` holds the per-element scaled
    blocks in assembly order.
    """

    kbar: np.ndarray
    mbar: object  # np.ndarray | LowRankUpdate
    spec: ScalingSpec
    element_mbar: list | None = None

    def mbar_dense(self):
        if isinstance(self.mbar, LowRankUpdate):
            return self.mbar.dense()
        return self.mbar


def _global_k(blocks, ndof, k_global):
    if k_global is None:
        return fem.assemble(blocks, "stiffness", ndof)
    return k_global


def cms(blocks, ndof, selector, alpha, k_global=None):
    """Conventional mass scaling: selected lumped entries multiplied by alpha."""
    selector = np.asarray(sorted(set(int(i) for i in selector)), dtype=int)
    if selector.size == 0:
        raise EmptySelection("CMS selector picked no dofs")
    if selector.min() < 0 or selector.max() >= 24:
        raise EmptySelection("CMS selector indices must lie in [0, 24)")
    element_mbar = []
    for block in blocks:
        diag = block.lumped_mass.copy()
        diag[selector] *= alpha
        element_mbar.append(np.diag(diag))
    kbar = _global_k(blocks, ndof, k_global)
    mbar = fem.assemble(blocks, "custom", ndof, element_matrices=element_mbar)
    spec = ScalingSpec("cms", alpha=alpha, selector=tuple(selector.tolist()))
    return ScaledSystem(kbar, mbar, spec, element_mbar)


def lft(pair, w):
    """Linear fractional transformation of a pair.

    Returns (w11 A + w21 B, w12 A + w22 B); eigenvalues map by
    lambda -> (w11 lambda + w21) / (w12 lambda + w22), eigenvectors
    are unchanged.
    """
    if not isinstance(pair, MatrixPair):
        pair = MatrixPair(*pair)
    w = np.asarray(w, dtype=float).reshape(2, 2)
    if abs(np.linalg.det(w)) == 0.0:
        raise DegenerateLFT("det(W) = 0")
    kbar = symmetrize(w[0, 0] * pair.a + w[1, 0] * pair.b)
    mbar = symmetrize(w[0, 1] * pair.a + w[1, 1] * pair.b)
    try:
        cholesky(mbar)
    except NotPositiveDefinite as exc:
        raise LostDefiniteness(f"transformed B is not SPD (pivot {exc.pivot})") from exc
    spec = ScalingSpec("uniform_lft" if w[0, 1] == 0 else "stiffness_proportional_lft",
                       mu=float(w[1, 1] if w[0, 1] == 0 else w[0, 1]),
                       w=tuple(w.ravel().tolist()))
    return ScaledSystem(kbar, mbar, spec)


def uniform_lft_matrix(mu):
    """W for uniform mass scaling: lambda -> lambda / mu."""
    return np.array([[1.0, 0.0], [0.0, float(mu)]])


def stiffness_proportional_lft_matrix(mu):
    """W for stiffness-proportional SMS: lambda -> lambda / (mu lambda + 1)."""
    return np.array([[1.0, float(mu)], [0.0, 1.0]])


def polynomial_sms(k, m_diag, c):
    """Second-degree polynomial SMS: Mbar = M + c K M^{-1} K.

    Transformed eigenvalues obey lambda -> lambda / (1 + c lambda^2) with
    eigenvectors preserved. Requires a diagonal (lumped) mass.
    """
    k = np.asarray(k, dtype=float)
    m_diag = np.asarray(m_diag, dtype=float)
    if m_diag.ndim == 2:
        if not is_diagonal(m_diag):
            raise NonDiagonalMass("polynomial SMS requires a diagonal mass matrix")
        m_diag = np.diag(m_diag)
    if np.any(m_diag <= 0):
        raise NonDiagonalMass("mass diagonal must be strictly positive")
    mbar = symmetrize(np.diag(m_diag) + c * (k @ (k / m_diag[:, None])))
    return ScaledSystem(k, mbar, ScalingSpec("polynomial_sms", c=c))


def global_deflation(pair, r, mode="shave", alpha=None):
    """Deflate the top r eigenvalues of the assembled pair.

    ``shave`` flattens them to lambda_{n-r} (ordering preserved);
    ``cutoff`` divides them by (1 + alpha). The scaled mass is returned
    as an implicit low-rank update supporting Woodbury solves.
    """
    if not isinstance(pair, MatrixPair):
        pair = MatrixPair(*pair)
    n = pair.order
    if r < 0 or r >= n:
        raise RankTooLarge(f"rank {r} out of range for order {n}")
    dec = generalized_eig(pair)
    u2 = dec.vectors[:, n - r:]
    d2 = dec.values[n - r:]
    v = pair.b @ u2
    if mode == "shave":
        anchor = dec.values[n - r - 1] if r > 0 else None
        g = d2 / anchor - 1.0 if r > 0 else np.zeros(0)
    elif mode == "cutoff":
        if alpha is None or alpha < 0:
            raise ValueError("cutoff mode requires alpha >= 0")
        g = np.full(r, float(alpha))
    else:
        raise ValueError(f"unknown deflation mode {mode!r}")
    mbar = LowRankUpdate(pair.b, v, np.asarray(g, dtype=float))
    spec = ScalingSpec("global_deflation", rank=r, mode=mode, alpha=alpha)
    return ScaledSystem(pair.a, mbar, spec)


def _deflation_rank(values, r, expand_ties, rtol=1e-9):
    """Effective rank; for S1 a degenerate group split by the cut is
    deflated as a whole so the low-rank factor stays basis-independent."""
    m = len(values)
    if not expand_ties:
        return r
    scale = abs(values[-1]) or 1.0
    while r < m - 1 and abs(values[m - r - 1] - values[m - r]) <= rtol * scale:
        r += 1
    return r


def local_deflation(blocks, ndof, r, strategy, alpha=None, k_global=None):
    """Element-wise deflation of the top r eigenvalues of (K_e, M_e).

    Strategy "s1" uses the uniform cutoff g = alpha; strategy "s2" shaves
    the top r element eigenvalues to lambda_{m-r}(K_e, M_e).
    """
    if strategy not in ("s1", "s2"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "s1" and (alpha is None or alpha < 0):
        raise ValueError("strategy s1 requires alpha >= 0")
    m = 24
    if not 0 <= r < m:
        raise RankTooLarge(f"rank {r} out of range for element order {m}")
    element_mbar = []
    for i, block in enumerate(blocks):
        diag = block.lumped_mass
        if r == 0:
            element_mbar.append(np.diag(diag))
            continue
        try:
            dec = generalized_eig(MatrixPair(block.stiffness, np.diag(diag)))
        except NotPositiveDefinite as exc:
            raise DefectiveElementPair(f"element {i}: {exc}") from exc
        re = _deflation_rank(dec.values, r, expand_ties=(strategy == "s1"))
        u2 = dec.vectors[:, m - re:]
        d2 = dec.values[m - re:]
        if strategy == "s1":
            g = np.full(re, float(alpha))
        else:
            g = d2 / dec.values[m - re - 1] - 1.0
        v = diag[:, None] * u2  # V_e = M_e U_{e,2} for diagonal M_e
        element_mbar.append(symmetrize(np.diag(diag) + (v * g) @ v.T))
    kbar = _global_k(blocks, ndof, k_global)
    mbar = fem.assemble(blocks, "custom", ndof, element_matrices=element_mbar)
    kind = "local_deflation_s1" if strategy == "s1" else "local_deflation_s2"
    spec = ScalingSpec(kind, rank=r, alpha=alpha)
    return ScaledSystem(kbar, mbar, spec, element_mbar)


def olovsson_block(element_mass, beta, projector_variant=False):
    """24x24 scaling matrix E_e = I_3 (x) (beta m_e / 56) (8 I_8 - e e^T).

    The footnoted variant uses (beta m_e / 8)(I_8 - u u^T) instead, which
    only changes the constant.
    """
    e8 = 8.0 * np.eye(8) - np.ones((8, 8))
    factor = beta * element_mass / (64.0 if projector_variant else 56.0)
    return np.kron(np.eye(3), factor * e8)


def olovsson(blocks, ndof, beta, projector_variant=False, k_global=None):
    """Ad hoc local scaling of Olovsson et al. for hex8 elements."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    element_mbar = [
        np.diag(b.lumped_mass) + olovsson_block(b.element_mass, beta, projector_variant)
        for b in blocks
    ]
    kbar = _global_k(blocks, ndof, k_global)
    mbar = fem.assemble(blocks, "custom", ndof, element_matrices=element_mbar)
    spec = ScalingSpec("olovsson", beta=beta, projector_variant=projector_variant)
    return ScaledSystem(kbar, mbar, spec, element_mbar)


def hoffmann_block(element_mass, beta):
    """24x24 scaling matrix E_e = I_3 (x) (beta m_e / 32) (A (x) G)."""
    gamma_tilde = element_mass / 8.0
    e8 = (beta * gamma_tilde / 4.0) * np.kron(_HOFFMANN_A, _HOFFMANN_G)
    return np.kron(np.eye(3), e8)


def hoffmann(blocks, ndof, beta, k_global=None):
    """Ad hoc local scaling of Hoffmann et al. for hex8 elements."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    element_mbar = [
        np.diag(b.lumped_mass) + hoffmann_block(b.element_mass, beta) for b in blocks
    ]
    kbar = _global_k(blocks, ndof, k_global)
    mbar = fem.assemble(blocks, "custom", ndof, element_matrices=element_mbar)
    return ScaledSystem(kbar, mbar, ScalingSpec("hoffmann", beta=beta), element_mbar)


def eig_stabilization(blocks, ndof, r, epsilon, k_global=None):
    """Floor the r smallest element mass eigenvalues by epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    m = 24
    if not 0 < r <= m:
        raise RankTooLarge(f"rank {r} out of range for element order {m}")
    from .linalg import sym_eig

    element_mbar = []
    for block in blocks:
        me = np.diag(block.lumped_mass)
        dec = sym_eig(me)
        u1 = dec.vectors[:, :r]
        element_mbar.append(symmetrize(me + epsilon * (u1 @ u1.T)))
    kbar = _global_k(blocks, ndof, k_global)
    mbar = fem.assemble(blocks, "custom", ndof, element_matrices=element_mbar)
    spec = ScalingSpec("eig_stabilization", rank=r, epsilon=epsilon)
    return ScaledSystem(kbar, mbar, spec, element_mbar)


def apply_spec(spec, blocks, ndof, pair=None, k_global=None):
    """Dispatch a :class:`ScalingSpec` to the matching strategy.

    Global kinds need the assembled ``pair`` (K, M); local kinds operate
    on the element ``blocks``.
    """
    def need_pair():
        if pair is None:
            raise ValueError(f"{spec.kind} requires the assembled pair")
        return pair if isinstance(pair, MatrixPair) else MatrixPair(*pair)

    if spec.kind == "none":
        p = need_pair()
        return ScaledSystem(p.a, p.b, spec)
    if spec.kind == "cms":
        selector = spec.selector if spec.selector is not None else tuple(range(24))
        return cms(blocks, ndof, selector, spec.alpha, k_global=k_global)
    if spec.kind == "uniform_lft":
        return lft(need_pair(), uniform_lft_matrix(spec.mu))
    if spec.kind == "stiffness_proportional_lft":
        return lft(need_pair(), stiffness_proportional_lft_matrix(spec.mu))
    if spec.kind == "polynomial_sms":
        p = need_pair()
        return polynomial_sms(p.a, p.b, spec.c)
    if spec.kind == "global_deflation":
        return global_deflation(need_pair(), spec.rank, spec.mode or "shave", spec.alpha)
    if spec.kind == "local_deflation_s1":
        return local_deflation(blocks, ndof, spec.rank, "s1", spec.alpha, k_global=k_global)
    if spec.kind == "local_deflation_s2":
        return local_deflation(blocks, ndof, spec.rank, "s2", k_global=k_global)
    if spec.kind == "olovsson":
        return olovsson(blocks, ndof, spec.beta, spec.projector_variant, k_global=k_global)
    if spec.kind == "hoffmann":
        return hoffmann(blocks, ndof, spec.beta, k_global=k_global)
    if spec.kind == "eig_stabilization":
        return eig_stabilization(blocks, ndof, spec.rank, spec.epsilon, k_global=k_global)
    raise ValueError(f"unknown scaling kind {spec.kind!r}")

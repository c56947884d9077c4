"""Central difference explicit time integration for M a + K u = 0.

Used to empirically bracket the critical time step: a run starts from
rest at a displacement and records only the response norm at each step;
no velocity or energy is formed. With the step operator
C = I - dt^2/2 M^{-1} K the iterates are u_k = T_k(C) u_0 for the
Chebyshev polynomials T_k (Golub and Varga, Chebyshev semi-iterative
methods, 1961), so T_{j+s} + T_{j-s} = 2 T_s T_j advances a panel of s
iterates with one product by 2 T_s(C) (see :func:`central_difference_run`).
No eigen-information enters, so the probe stays an independent check of
lambda_max. A run steps on one of two paths:

- sparse: K is applied as it arrives, a CSR product for an assembled K,
  and the mass is factored once by :class:`MassSolver`. M^{-1} cannot be
  raised to a power without fill, so s = 1: each step costs one K u,
  one mass solve and one norm;
- blocks: when K and M are checked matrices that both split
  (:class:`masscale.linalg.CheckedMatrix`, whose split is eight sparse
  blocks of order about n/8; the CLI passes those that
  :class:`masscale.system.MeshSystem` keeps), A_k = M_k^{-1} K_k is
  formed once per bracket from a Cholesky factor of each M_k, one block
  made dense at a time (:func:`masscale.linalg.block_operator`), on the
  same :class:`masscale.linalg.Blocks` that the eigensolvers read, and
  stacked, zero-padded to the largest order m, as one (8, m, m) array.
  The run steps the coordinates x_k = Q_k^T u in panels of
  s = ``PANEL_STEPS`` = 32: the panel operator is formed once per run,
  at the first panel, by five products of each block, so a run that
  diverges within its first 2s single steps never forms it. It is formed
  in place in the buffer of dt^2 A, which only the single steps before
  it read, so a run holds A, one working stack and an m x m spare.
  Each panel is one batched matmul of (8, m, m) by (8, m, 32), which
  reads the 8 m^2 entries once for 32 steps. Q is orthonormal, so the
  response norm is ||x||, and the final displacement is mapped back once.

The blocks are taken whenever both members split. Whole steps through
:func:`central_difference_run`, in microseconds, in 10 000-step runs at
0.99 times the critical step on the hex8 beam and plate meshes (one BLAS
thread, one core of a shared 2-core machine; best of two runs at n = 720
and 2400, one run at 5040). The block columns give the range over the
lumped, Olovsson beta = 10 and global deflation r = 20 masses; on the
sparse path these divide, solve an LU and solve by Woodbury:

    n       panels of 32   panels of 8   one step per matmul   sparse: lumped   LU    Woodbury
    720     3.3-4.1        5.2-5.4       17-20                 37               86    56
    2400    54-60          61-68         313-317               136              335   188
    5040    221-285        362-539       1115-1272             260              734   320

The panels step the 720-dof beam 10 to 26 times faster than the sparse
path, and the 2400-dof plate 2.5 to 5.6 times. At n = 5040 they step
near the sparse path for the lumped mass, 1.5 times as fast for global
deflation and 2.8 times as fast for the LU: a cost model that picks the
path must be fitted to these figures, not to panels of 8. No benchmark
workload runs the probe at that size, so no rule on n picks the path.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import NotPositiveDefinite, SolveFailure
from .linalg import (
    CheckedMatrix,
    LowRankUpdate,
    block_operator,
    block_pairs,
    factor_spd,
    woodbury_factor,
)
from .linalg import cholesky  # noqa: F401 - unused; perfbench's tracer wraps it by this name

__all__ = [
    "MassSolver",
    "TransientState",
    "TransientResult",
    "StabilityVerdict",
    "central_difference_run",
    "stability_bracket",
]

STABLE_FACTOR = 10.0
UNSTABLE_FACTOR = 1e6
PROBE_STEPS = 10_000
PROBE_FACTORS = (0.99, 1.05)
# The seeded start must hold at least this share of the highest mode.
MIN_COMPONENT = 1e-12
# Steps per application of the block path's D = 2 T_s(C): a power of two.
PANEL_STEPS = 32


class MassSolver:
    """Repeated solves with a (scaled) mass matrix, factored once.

    ``mode`` names the path:

    - ``"diagonal"``: a 1-D diagonal, or a 2-D matrix that
      :func:`~masscale.linalg.is_diagonal` accepts; solves divide.
    - ``"dense"``: any other SPD matrix, sparse or dense, factored once as
      a sparse LU (:func:`~masscale.linalg.factor_spd`); each solve costs
      the LU's fill.
    - ``"woodbury"``: a :class:`LowRankUpdate`, solved through
      :func:`~masscale.linalg.woodbury_factor`: its base is factored by
      ``factor_spd`` (a diagonal base, 1-D or 2-D, divides), and the r x r
      inner system is solved once at construction.

    Raises :class:`SolveFailure` when the mass, or a Woodbury base, is not SPD.
    """

    def __init__(self, mass):
        try:
            if isinstance(mass, LowRankUpdate):
                self.mode, self._solve = "woodbury", woodbury_factor(mass)
            else:
                diag, self._solve = factor_spd(mass)
                self.mode = "diagonal" if diag is not None else "dense"
        except NotPositiveDefinite as exc:
            raise SolveFailure(f"mass matrix is not SPD: {exc}") from exc

    def solve(self, rhs):
        """Solve M x = rhs; rhs may be a vector or a matrix of columns."""
        return self._solve(rhs)


class _MirrorBlocks:
    """The step operator of the block path: A_k = M_k^{-1} K_k for the
    parts (K_k, M_k) of ``blocks``, the :func:`block_pairs` of (K, M),
    stacked zero-padded as ``a`` (8, m, m).

    Raises :class:`SolveFailure` when a mass block is not SPD.
    """

    mode = "blocks"

    def __init__(self, blocks):
        self.blocks, self.orders = blocks, blocks.orders
        self.a = np.zeros((len(self.orders),) + (max(self.orders),) * 2)
        for k, (a, order) in enumerate(zip(self.a, self.orders)):
            try:
                a[:order, :order] = block_operator(blocks, k)
            except NotPositiveDefinite as exc:
                raise SolveFailure(f"mass matrix is not SPD: {exc}") from exc

    def coords(self, u):
        """x_k = Q_k^T u as an (8, m, 1) stack, zero in the padding."""
        x = np.zeros(self.a.shape[:2] + (1,))
        for k, (xk, order) in enumerate(zip(x, self.orders)):
            xk[:order, 0] = self.blocks.restrict(k, u)
        return x

    def displacement(self, x):
        """u = sum_k Q_k x_k for coordinates x, (8, m)."""
        return sum(self.blocks.expand(k, xk[:mk]) for k, (xk, mk) in enumerate(zip(x, self.orders)))


def _operator(mbar):
    """What a run steps with: ``mbar`` itself when it is a MassSolver or
    a _MirrorBlocks, else a MassSolver of it."""
    return mbar if isinstance(mbar, (MassSolver, _MirrorBlocks)) else MassSolver(mbar)


@dataclass
class TransientState:
    """The displacement u_k after ``step`` = k steps."""

    displacement: np.ndarray
    step: int


@dataclass
class TransientResult:
    """The response norm ||u_k|| at each step k = 0, 1, ..., and the final state."""

    response_norms: np.ndarray
    final: TransientState
    diverged: bool


@dataclass
class StabilityVerdict:
    """Outcome of one stability probe run.

    ``stable_crossing`` and ``unstable_crossing`` are the first steps at
    which the growth exceeded ``STABLE_FACTOR`` and reached
    ``UNSTABLE_FACTOR`` (or stopped being finite); None if it never did.
    ``path`` is the operator the run stepped with: ``"blocks"``, or the
    :class:`MassSolver` mode of the sparse path.
    """

    classification: str  # "stable" | "unstable" | "inconclusive"
    growth_factor: float
    steps_run: int
    dt: float
    stable_crossing: int | None
    unstable_crossing: int | None
    path: str


def central_difference_run(kbar, mbar, u0, dt, steps):
    """Central difference from rest at displacement ``u0``, for ``steps`` steps.

    u_{-1} = u_0 + dt^2/2 a_0, then u_{k+1} = 2 u_k - u_{k-1} + dt^2 a_k,
    with a_k = -M^{-1} K u_k. With C = I - dt^2/2 M^{-1} K that reads
    u_1 = C u_0, u_{k+1} = 2 C u_k - u_{k-1}, so u_k = T_k(C) u_0 for the
    Chebyshev polynomials T_k, and T_{j+s} + T_{j-s} = 2 T_s T_j gives
    u_{j+s} = 2 T_s(C) u_j - u_{j-s}. The run steps u_1 ... u_{2s-1} one
    at a time, then advances the panels U_b = [u_{bs}, ..., u_{bs+s-1}]
    as U_{b+1} = 2 T_s(C) U_b - U_{b-1}: s steps per product. On the
    block path s = ``PANEL_STEPS``, and 2 T_s(C) is formed once per run, at
    the first panel, by log2(s) doublings T_{2j} = 2 T_j^2 - I, in the
    buffer of dt^2 A that the single steps read (:func:`_panel_operator`).
    The sparse path applies M^{-1} by a solve and cannot raise it to a
    power without fill: s = 1.

    ``kbar`` may be dense or scipy.sparse; ``kbar @ u`` is formed as it is.
    ``mbar`` is anything :class:`MassSolver` accepts, or a MassSolver;
    within the package also the block operator of :func:`stability_bracket`,
    with which the recurrence runs in the coordinates x = Q^T u.
    The norm of every step is recorded. The run stops early, flagged
    diverged, at the first step whose response norm is not finite or
    exceeds ``UNSTABLE_FACTOR`` times the initial norm; the rest of that
    panel, and any steps past ``steps``, are discarded.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    op = _operator(mbar)
    h = dt * dt
    # The overshoot past a divergence may overflow; it is discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        # g1(x) = 2 (I - C) x = dt^2 M^{-1} K x; d(p, out) = 2 T_s(C) p
        if isinstance(op, MassSolver):
            s, x, back = 1, np.asarray(u0, dtype=float).reshape(-1, 1), None

            def g1(x):
                return h * op.solve(kbar @ x)

            def d(p, out):
                return np.subtract(2.0 * p, g1(p), out=out)
        else:
            s, x, back = PANEL_STEPS, op.coords(u0), op.displacement
            g1_mat = h * op.a
            g1 = partial(np.matmul, g1_mat)

            @cache  # formed at the first panel: a run that diverges sooner never needs it
            def two_t():
                return _panel_operator(g1_mat, s)

            def d(p, out):
                return np.matmul(two_t(), p, out=out)
        xs = [x, x - 0.5 * g1(x)]
        while len(xs) < 2 * s:
            xs.append(2.0 * xs[-1] - xs[-2] - g1(xs[-1]))
        prev, cur = np.concatenate(xs[:s], axis=-1), np.concatenate(xs[s:], axis=-1)
        nxt = np.empty_like(cur)
        norms = np.empty((steps // s + 2) * s)
        _panel_norms(prev, norms[:s])
        _panel_norms(cur, norms[s:2 * s])
        # finite, so that an infinite norm is caught by the comparison too
        limit = min(UNSTABLE_FACTOR * (float(norms[0]) or 1.0), sys.float_info.max)
        # prev and cur hold the iterates [k - 2s, k); the norms from
        # `checked` on are not checked yet
        k, checked = 2 * s, 1
        while norms[checked:min(k, steps + 1)].max(initial=0.0) <= limit and k <= steps:
            d(cur, out=nxt)
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
            _panel_norms(cur, norms[k:k + s])
            checked, k = k, k + s
    bad = np.flatnonzero(~(norms[checked:min(k, steps + 1)] <= limit))
    last = checked + int(bad[0]) if bad.size else steps
    x = xs[last][..., 0] if last < 2 * s else cur[..., last - k + s]
    u = x if back is None else back(x)
    return TransientResult(norms[:last + 1], TransientState(u, last), bool(bad.size))


def _panel_operator(g, s):
    """D = 2 T_s(C), C = I - g/2, formed in the buffer of the (8, m, m)
    stack ``g`` = dt^2 A, which it overwrites and returns; ``s`` is a
    power of two. The steps are those of ``t = I - 0.5 g``, log2(s)
    doublings ``t = 2 (t @ t) - I`` and ``2 t``, done in place block by
    block, so D equals that expression bit for bit, the sign of a zero
    included: the ``+= 0.0`` turns the -0 of ``-0.5 * 0`` into the +0 of
    ``0 - 0``. One more m x m array is held while D is formed."""
    diag = (np.arange(g.shape[-1]),) * 2
    g *= -0.5
    g += 0.0
    spare = np.empty_like(g[0])
    for t in g:
        t[diag] += 1.0
        for _ in range(s.bit_length() - 1):
            np.matmul(t, t, out=spare)
            np.multiply(spare, 2.0, out=t)
            t[diag] -= 1.0
    return np.multiply(g, 2.0, out=g)


def _panel_norms(panel, out):
    """The norm of each column of a C-contiguous panel, (n, s) or (8, m, s), into ``out``."""
    flat = panel.reshape(-1, panel.shape[-1])
    np.sqrt(np.einsum("ij,ij->j", flat, flat), out=out)


def _seeded_initial(kbar, seed, highest_mode):
    """Unit-norm random displacement with a guaranteed highest-mode component.

    The component is read as u0 . K phi / ||K phi||: for an eigenvector
    phi of (K, M), K phi is parallel to M phi.
    """
    rng = np.random.default_rng(seed)
    if highest_mode is not None:
        k_phi = kbar @ highest_mode
        k_phi /= np.linalg.norm(k_phi)
    for _ in range(100):
        u0 = rng.standard_normal(kbar.shape[0])
        u0 /= np.linalg.norm(u0)
        if highest_mode is None or abs(u0 @ k_phi) >= MIN_COMPONENT:
            return u0
    raise SolveFailure("could not seed a component on the highest mode")


def stability_bracket(kbar, mbar, dt_estimate, seed=42, highest_mode=None):
    """Probe stability just below and just above the estimated critical step.

    Runs ``PROBE_STEPS`` steps at each of ``PROBE_FACTORS`` (0.99 and 1.05)
    times ``dt_estimate``, from a seeded random unit-norm displacement. A
    run is stable iff the response norm never exceeds 10x the initial norm
    over all steps, unstable iff it exceeds 1e6x, and inconclusive
    otherwise. The mass is factored once for both runs. Each run steps
    the Chebyshev panel recurrence of :func:`central_difference_run`:
    ``PANEL_STEPS`` steps per batched matmul on the blocks, one step per
    mass solve on the sparse path. The norm of every step is checked, so
    the step counts and crossings are those of stepping one at a time.
    Returns one :class:`StabilityVerdict` per factor, with the first steps
    at which the growth crossed 10x and 1e6x and the path the runs took.

    ``kbar`` and ``mbar`` are raw matrices, or checked matrices
    (:class:`~masscale.linalg.CheckedMatrix`). When both split, so that
    their :func:`~masscale.linalg.block_pairs` has a basis, the runs step
    on the eight mirror blocks, those of I_3 (x) A_s too (see the module
    docstring); otherwise on the sparse path, where :class:`MassSolver`
    checks a mass it factors. Raises
    :class:`SolveFailure` when the mass, or a mass block, is not SPD.
    """
    blocks = block_pairs(kbar, mbar)
    kbar, mbar = (m.matrix if isinstance(m, CheckedMatrix) else m for m in (kbar, mbar))
    op = _MirrorBlocks(blocks) if blocks.basis is not None else _operator(mbar)
    u0 = _seeded_initial(kbar, seed, highest_mode)

    verdicts = []
    for factor in PROBE_FACTORS:
        dt = factor * dt_estimate
        result = central_difference_run(kbar, op, u0, dt, PROBE_STEPS)
        growths = result.response_norms / result.response_norms[0]
        growth = float(np.nanmax(growths))
        if result.diverged or growth >= UNSTABLE_FACTOR or not np.isfinite(growth):
            classification = "unstable"
            growth = float("inf") if not np.isfinite(growth) else growth
        elif growth <= STABLE_FACTOR:
            classification = "stable"
        else:
            classification = "inconclusive"
        verdicts.append(StabilityVerdict(
            classification, growth, result.final.step, dt,
            _first(~(growths <= STABLE_FACTOR)), _first(~(growths < UNSTABLE_FACTOR)), op.mode,
        ))
    return tuple(verdicts)


def _first(mask):
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None

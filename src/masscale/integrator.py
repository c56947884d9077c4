"""Central difference explicit time integration for M a + K u = 0.

Used to empirically bracket the critical time step: a run starts from
rest at a displacement and records only the response norm at each step;
no velocity or energy is formed. A run steps on one of two paths:

- sparse: K is applied as it arrives, a CSR product for an assembled K,
  and the mass is factored once by :class:`MassSolver`, so each step
  costs one K u, one mass solve and one norm;
- blocks: for a caller that holds the mirror splits of K and M
  (:func:`masscale.linalg.mirror_split`, eight dense blocks of order
  about n/8; ``_stability_bracket``, which the CLI calls with the splits
  :class:`masscale.system.MeshSystem` keeps), A_k = M_k^{-1} K_k is
  formed once per bracket from a Cholesky factor of each M_k and
  stacked, zero-padded to the largest order m, as one (8, m, m) array.
  The run steps the coordinates x = Q^T u with one batched matmul per
  step, which reads 8 m^2 entries; Q is orthonormal, so the response
  norm is ||x||, and the final displacement is mapped back once.

The blocks are taken whenever both splits are given. Their cost per
step grows as n^2 and the sparse path's about as n, as this table of
the parts of one step shows, in microseconds, on the hex8 beam and plate
meshes (Olovsson beta = 10 mass, one BLAS thread, one core of a shared
2-core machine):

    n       sparse: K u + LU solve    blocks: batched matmul
    720     27 + 42                   13
    2400    92 + 186                  285
    5040    215 + 518                 1201

On the 720-dof beam every mass steps faster on the blocks, about five
times for the LU mass. From n = 2400 a diagonal mass steps faster on
the sparse path, and at n = 5040 every mass does. No benchmark workload
runs the probe at those sizes, so no rule on n picks the path yet.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import NotPositiveDefinite, SolveFailure
from .linalg import LowRankUpdate, _blockwise, _cholesky, factor_spd, woodbury_factor

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
    mirror splits (K's, M's), stacked zero-padded as ``a`` (8, m, m).

    Raises :class:`SolveFailure` when a mass block is not SPD.
    """

    mode = "blocks"

    def __init__(self, split):
        (blocks_k, self.basis), (blocks_m, _) = split
        self.a = np.zeros((len(blocks_k),) + (max(map(len, blocks_k)),) * 2)
        for a, k, m in zip(self.a, blocks_k, blocks_m):
            try:
                a[:len(k), :len(k)] = sla.cho_solve((_cholesky(m), True), k)
            except NotPositiveDefinite as exc:
                raise SolveFailure(f"mass matrix is not SPD: {exc}") from exc

    def coords(self, u):
        """x = Q^T u as an (8, m, 1) stack, zero in the padding."""
        x = np.zeros(self.a.shape[:2] + (1,))
        for xk, q in zip(x, self.basis.columns):
            xk[:q.shape[1], 0] = q.T @ u
        return x

    def displacement(self, x):
        """u = Q x."""
        return sum(q @ xk[:q.shape[1], 0] for xk, q in zip(x, self.basis.columns))


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
    with a_k = -M^{-1} K u_k.

    ``kbar`` may be dense or scipy.sparse; ``kbar @ u`` is formed as it is.
    ``mbar`` is anything :class:`MassSolver` accepts, or a MassSolver;
    within the package also the block operator of ``_stability_bracket``,
    with which the recurrence runs in the coordinates x = Q^T u.
    The run stops early, flagged diverged, once the response norm is not
    finite or exceeds ``UNSTABLE_FACTOR`` times the initial norm.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    op = _operator(mbar)
    h = dt * dt
    # advance(x) is dt^2 a(x) on either path; the block path's reuses one buffer
    if isinstance(op, MassSolver):
        x, back = np.asarray(u0, dtype=float).copy(), None

        def advance(u):
            return h * op.solve(-(kbar @ u))
    else:
        x, back, b = op.coords(u0), op.displacement, -h * op.a
        out = np.empty_like(x)

        def advance(x):
            return np.matmul(b, x, out=out)
    x_old, x_new = x + 0.5 * advance(x), np.empty_like(x)

    norms = np.empty(steps + 1)
    norms[0] = np.linalg.norm(x)
    limit = UNSTABLE_FACTOR * (float(norms[0]) or 1.0)
    diverged = False
    k = 0
    for k in range(1, steps + 1):
        # x_new = 2 x - x_old + dt^2 a(x), in place in the three buffers
        np.multiply(x, 2.0, out=x_new)
        x_new -= x_old
        x_new += advance(x)
        norms[k] = np.linalg.norm(x_new)
        x_old, x, x_new = x, x_new, x_old
        if not np.isfinite(norms[k]) or norms[k] > limit:
            diverged = True
            break
    u = x if back is None else back(x)
    return TransientResult(norms[: k + 1], TransientState(u, k), diverged)


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
    otherwise. The mass is factored once for both runs. Returns one
    :class:`StabilityVerdict` per factor, with the first steps at which
    the growth crossed 10x and 1e6x and the path the runs took.
    """
    op = _operator(mbar)
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


def _stability_bracket(kbar, mbar, dt_estimate, seed, highest_mode, split):
    """:func:`stability_bracket` for a caller that holds the mirror splits
    (K's, Mbar's) of its checked K and Mbar: with both, the runs step on
    the blocks, formed once for both (see the module docstring), and
    ``mbar`` is not read; otherwise on the sparse path.

    Raises :class:`SolveFailure` when a mass block is not SPD.
    """
    if _blockwise(split):
        mbar = _MirrorBlocks(split)
    return stability_bracket(kbar, mbar, dt_estimate, seed, highest_mode)


def _first(mask):
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None

"""Central difference explicit time integration for M a + K u = 0.

Used to empirically bracket the critical time step: a run starts from
rest at a displacement and records only the response norm at each step;
no velocity or energy is formed.
K and the mass are kept as operators: K is applied as it arrives, a
sparse (CSR) product for an assembled K, and the mass is factored once by
:class:`MassSolver`, so each step costs one K u, one mass solve and one
norm; no dense M^{-1} K is formed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, SolveFailure
from .linalg import LowRankUpdate, factor_spd, woodbury_factor

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
    """

    classification: str  # "stable" | "unstable" | "inconclusive"
    growth_factor: float
    steps_run: int
    dt: float
    stable_crossing: int | None
    unstable_crossing: int | None


def central_difference_run(kbar, mbar, u0, dt, steps):
    """Central difference from rest at displacement ``u0``, for ``steps`` steps.

    u_{-1} = u_0 + dt^2/2 a_0, then u_{k+1} = 2 u_k - u_{k-1} + dt^2 a_k,
    with a_k = -M^{-1} K u_k.

    ``kbar`` may be dense or scipy.sparse; ``kbar @ u`` is formed as it is.
    ``mbar`` is anything :class:`MassSolver` accepts, or a MassSolver.
    The run stops early, flagged diverged, once the response norm is not
    finite or exceeds ``UNSTABLE_FACTOR`` times the initial norm.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    solver = mbar if isinstance(mbar, MassSolver) else MassSolver(mbar)
    u = np.asarray(u0, dtype=float).copy()
    u_old = u + 0.5 * dt * dt * solver.solve(-(kbar @ u))

    norms = np.empty(steps + 1)
    norms[0] = np.linalg.norm(u)
    limit = UNSTABLE_FACTOR * (float(norms[0]) or 1.0)
    diverged = False
    k = 0
    for k in range(1, steps + 1):
        u_new = 2.0 * u - u_old + dt * dt * solver.solve(-(kbar @ u))
        norms[k] = np.linalg.norm(u_new)
        u_old, u = u, u_new
        if not np.isfinite(norms[k]) or norms[k] > limit:
            diverged = True
            break
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
    the growth crossed 10x and 1e6x.
    """
    solver = mbar if isinstance(mbar, MassSolver) else MassSolver(mbar)
    u0 = _seeded_initial(kbar, seed, highest_mode)

    verdicts = []
    for factor in PROBE_FACTORS:
        dt = factor * dt_estimate
        result = central_difference_run(kbar, solver, u0, dt, PROBE_STEPS)
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
            _first(~(growths <= STABLE_FACTOR)), _first(~(growths < UNSTABLE_FACTOR)),
        ))
    return tuple(verdicts)


def _first(mask):
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None

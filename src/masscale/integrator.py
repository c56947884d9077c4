"""Central difference explicit time integration for M a + K u = f.

Used to empirically bracket the critical time step. K and the mass are
kept as operators: K is applied as a sparse (CSR) product and the mass
is factored once by :class:`MassSolver`, so each step costs one sparse
K u and one mass solve; no dense n x n product or solve, and no dense
M^{-1} K, is formed.
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
DEFAULT_STEPS = 10_000


def _csr(a):
    """``a`` as a CSR array (dense input is converted once)."""
    from scipy import sparse  # deferred: its import would add to every CLI start

    return a if sparse.issparse(a) else sparse.csr_array(np.asarray(a, dtype=float))


class MassSolver:
    """Repeated solves with a (scaled) mass matrix, factored once.

    ``mode`` names the path:

    - ``"diagonal"``: a 1-D diagonal, or a 2-D matrix that
      :func:`~masscale.linalg.is_diagonal` accepts; solves divide.
    - ``"dense"``: any other SPD matrix, factored once as a sparse LU
      (:func:`~masscale.linalg.factor_spd`); each solve costs the LU's fill.
    - ``"woodbury"``: a :class:`LowRankUpdate`. Its base gets a solver of
      its own (``base``; a diagonal base, 1-D or 2-D, divides), and the
      r x r inner system is solved once at construction.

    Raises :class:`SolveFailure` when the mass is not SPD.
    """

    def __init__(self, mass):
        if isinstance(mass, LowRankUpdate):
            self._mode = "woodbury"
            self.base = MassSolver(mass.base)
            self._solve = woodbury_factor(mass, self.base._solve)
            self._update = mass
            return
        try:
            self._diag, self._solve = factor_spd(mass)
        except NotPositiveDefinite as exc:
            raise SolveFailure(f"mass matrix is not SPD: {exc}") from exc
        self._mode = "diagonal" if self._diag is not None else "dense"
        if self._diag is None:
            self._matrix = _csr(mass)

    @property
    def mode(self):
        return self._mode

    def solve(self, rhs):
        """Solve M x = rhs; rhs may be a vector or a matrix of columns."""
        return self._solve(rhs)

    def dot(self, x):
        """Mass matrix times a vector (for energy evaluation)."""
        if self._mode == "diagonal":
            return self._diag * x
        if self._mode == "dense":
            return self._matrix @ x
        upd = self._update
        return self.base.dot(x) + upd.factors @ (upd.core * (upd.factors.T @ x))


@dataclass
class TransientState:
    """Snapshot of the integrated system."""

    displacement: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    time: float
    step: int


@dataclass
class TransientResult:
    """Per-step scalar traces plus the final state."""

    times: np.ndarray
    response_norms: np.ndarray
    energies: np.ndarray
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


def central_difference_run(
    kbar,
    mbar,
    u0,
    v0,
    dt,
    steps,
    force=None,
    stop_growth=None,
    trace_path=None,
):
    """Standard central difference with consistent start-up.

    u_{-1} = u_0 - dt v_0 + dt^2/2 a_0, then
    u_{k+1} = 2 u_k - u_{k-1} + dt^2 M^{-1}(f - K u_k).

    ``kbar`` may be dense or scipy.sparse; it is applied as a CSR product.
    ``mbar`` is anything :class:`MassSolver` accepts, or a MassSolver.
    Each step costs one K u and one mass solve.

    ``stop_growth`` aborts early once the response norm exceeds that
    multiple of the initial norm (the run is then flagged diverged).
    Energy 0.5 v^T M v + 0.5 u^T K u is evaluated at synchronized
    instants with the midpoint velocity estimate; u^T K u reuses the
    step's K u.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    kbar = _csr(kbar)
    solver = mbar if isinstance(mbar, MassSolver) else MassSolver(mbar)
    u_prev = np.asarray(u0, dtype=float).copy()
    v0 = np.asarray(v0, dtype=float)
    f = np.zeros_like(u_prev) if force is None else np.asarray(force, dtype=float)

    ku = kbar @ u_prev
    a0 = solver.solve(f - ku)
    u_minus = u_prev - dt * v0 + 0.5 * dt * dt * a0
    u_old, u = u_minus, u_prev

    norm0 = float(np.linalg.norm(u_prev)) or 1.0
    times = np.empty(steps + 1)
    norms = np.empty(steps + 1)
    energies = np.empty(steps + 1)
    times[0] = 0.0
    norms[0] = np.linalg.norm(u_prev)
    energies[0] = 0.5 * v0 @ solver.dot(v0) + 0.5 * u_prev @ ku

    diverged = False
    k = 0
    v = v0
    a = a0
    for k in range(1, steps + 1):
        ku = kbar @ u
        a = solver.solve(f - ku)
        u_new = 2.0 * u - u_old + dt * dt * a
        v = (u_new - u_old) / (2.0 * dt)
        times[k] = k * dt
        norms[k] = np.linalg.norm(u_new)
        energies[k] = 0.5 * v @ solver.dot(v) + 0.5 * u @ ku
        u_old, u = u, u_new
        if not np.isfinite(norms[k]) or (
            stop_growth is not None and norms[k] > stop_growth * norm0
        ):
            diverged = True
            break

    times, norms, energies = times[: k + 1], norms[: k + 1], energies[: k + 1]
    if trace_path is not None:
        from .analysis import write_curve_csv

        write_curve_csv(
            trace_path,
            {"time": times.tolist(), "energy": energies.tolist(), "norm": norms.tolist()},
        )
    final = TransientState(u, v, a, times[-1], len(times) - 1)
    return TransientResult(times, norms, energies, final, diverged)


def _seeded_initial(ndof, seed, highest_mode=None, mass_dot=None, min_component=1e-12):
    """Unit-norm random displacement with a guaranteed highest-mode component."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        u0 = rng.standard_normal(ndof)
        u0 /= np.linalg.norm(u0)
        if highest_mode is None:
            return u0
        weighted = mass_dot(u0) if mass_dot is not None else u0
        if abs(highest_mode @ weighted) >= min_component:
            return u0
    raise SolveFailure("could not seed a component on the highest mode")


def stability_bracket(
    kbar,
    mbar,
    dt_estimate,
    steps=DEFAULT_STEPS,
    seed=42,
    highest_mode=None,
    factors=(0.99, 1.05),
):
    """Probe stability just below and just above the estimated critical step.

    Runs with a seeded random unit-norm initial displacement. A run is
    stable iff the response norm never exceeds 10x the initial norm over
    all steps, unstable iff it exceeds 1e6x, and inconclusive otherwise.
    K is converted to CSR and the mass factored once for all runs.
    Returns one :class:`StabilityVerdict` per factor, with the first steps
    at which the growth crossed 10x and 1e6x.
    """
    kbar = _csr(kbar)
    solver = mbar if isinstance(mbar, MassSolver) else MassSolver(mbar)
    ndof = kbar.shape[0]
    u0 = _seeded_initial(ndof, seed, highest_mode, solver.dot)
    v0 = np.zeros(ndof)

    verdicts = []
    for factor in factors:
        dt = factor * dt_estimate
        result = central_difference_run(
            kbar, solver, u0, v0, dt, steps, stop_growth=UNSTABLE_FACTOR
        )
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
            classification, growth, len(result.times) - 1, dt,
            _first(~(growths <= STABLE_FACTOR)), _first(~(growths < UNSTABLE_FACTOR)),
        ))
    return tuple(verdicts)


def _first(mask):
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None

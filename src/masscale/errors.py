"""Exception hierarchy shared across the package."""


class MasscaleError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(MasscaleError):
    """Cholesky factorization failed; ``pivot`` is the first failing pivot index."""

    def __init__(self, pivot, message=None):
        self.pivot = pivot
        super().__init__(message or f"matrix is not positive definite (pivot {pivot})")


class SingularCore(MasscaleError):
    """Inner r x r system of a Woodbury solve is singular."""


class DegenerateJacobian(MasscaleError):
    """Element Jacobian determinant nonpositive at a quadrature point."""


class NegativeLumpedEntry(MasscaleError):
    """Mass lumping produced a nonpositive diagonal entry."""


class InvalidCounts(MasscaleError):
    """Structured mesh node counts are invalid."""


class IndexOutOfRange(MasscaleError):
    """Element dof map references an index outside the global range."""


class EmptySelection(MasscaleError, ValueError):
    """CMS selector picked no degrees of freedom or one outside the element."""


class NonDiagonalMass(MasscaleError):
    """Polynomial SMS requires a diagonal (lumped) mass matrix."""


class RankTooLarge(MasscaleError, ValueError):
    """Deflation/stabilization rank exceeds the admissible range."""


class DefectiveElementPair(MasscaleError):
    """An element term failed a definiteness check (element eigensolve)."""


class NonPositiveEigenvalue(MasscaleError):
    """Critical time step requested for a nonpositive eigenvalue."""


class NonUniformMesh(MasscaleError):
    """Asymptotic condition rate is only claimed for uniform structured meshes."""


class ConfigError(MasscaleError):
    """Experiment configuration failed validation; message names the field."""


class SolveFailure(MasscaleError):
    """Linear solve with the (scaled) mass matrix failed."""

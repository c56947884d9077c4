"""Mass scaling laboratory for explicit structural dynamics.

Hex8 finite elements, mass-scaling strategies, rigorous eigenvalue /
step-size / condition bounds, and empirical stability probing.
"""

__version__ = "0.1.0"

from . import analysis, errors, fem, integrator, linalg, scaling, system  # noqa: F401
from .linalg import CheckedMatrix, MatrixPair, EigDecomposition, LowRankUpdate  # noqa: F401
from .scaling import ScalingSpec, ScaledSystem  # noqa: F401
from .system import MeshSystem  # noqa: F401

"""The assembled system of one mesh, and the spectra read from it.

:class:`MeshSystem` is the one place where a mesh's pencils are solved:
the CLI's mesh studies read every spectrum and extreme through it, and so
does the acceptance suite on the benchmark plate.
"""
from __future__ import annotations

import functools

from . import fem, scaling
from .linalg import (
    LowRankUpdate,
    MatrixPair,
    extreme_eigvalues,
    generalized_eigvalues,
    mirror_split,
    require_symmetric,
)

__all__ = ["MeshSystem"]


class MeshSystem:
    """A mesh of one material, its element blocks and (K, M), built on
    first use, and what is read of the assembled pencils, each solved on
    first request: all eigenvalues of (K, M) and the extremes of M once,
    and the same of (Kbar, Mbar), (Mbar, M) and Mbar once per scaling spec.
    The none kind's Kbar and Mbar are K and M, so it shares their entries.
    It keeps eigenvalues, and the scaled systems of global deflation, whose
    Mbar is M plus an n x r factor formed by a partial dense solve; others
    are rebuilt on request, so that no n x n Mbar is held.

    Each assembled matrix is read once: K and M are checked for symmetry
    when their pair is built, and each Mbar when it is split. The split of
    each matrix in the mesh's mirror basis (:func:`linalg.mirror_split`,
    about n^2/8 entries, or None when the matrix does not mirror) is kept
    and goes to every solve that reads the matrix, so that what commutes
    with the reflections is solved block by block; Kbar is K for every
    kind, so all pencils share K's split.
    """

    def __init__(self, mesh, material):
        self.mesh, self.material = mesh, material
        self._values, self._low_rank = {}, {}

    @functools.cached_property
    def blocks(self):
        """The mesh's :class:`fem.ElementBlocks`."""
        return fem.element_blocks(self.mesh, self.material)

    @functools.cached_property
    def pair(self):
        """MatrixPair(K, M), with the lumped M."""
        n = self.mesh.dof_count
        return MatrixPair(fem.assemble(self.blocks, "stiffness", n),
                          fem.assemble(self.blocks, "lumped", n))

    @functools.cached_property
    def basis(self):
        """The mesh's :class:`fem.MirrorBasis`, or None."""
        return fem.mirror_basis(self.mesh)

    def scale(self, spec):
        """The :class:`scaling.ScaledSystem` of ``spec`` on (K, M)."""
        if spec in self._low_rank:
            return self._low_rank[spec]
        scaled = scaling.apply_spec(spec, self.blocks, self.mesh.dof_count, pair=self.pair,
                                    k_global=self.pair.a)
        if isinstance(scaled.mbar, LowRankUpdate):
            self._low_rank[spec] = scaled
        return scaled

    @staticmethod
    def _spec(scaled):
        """The key of a scaled system: None for the unscaled pair and for none."""
        return None if scaled is None or scaled.spec.kind == "none" else scaled.spec

    def _once(self, key, scaled, solve):
        spec = self._spec(scaled)
        if (key, spec) not in self._values:
            self._values[key, spec] = solve()
        return self._values[key, spec]

    def _split(self, a):
        return None if self.basis is None else mirror_split(a, self.basis)

    def split_k(self):
        return self._once("split K", None, lambda: self._split(self.pair.a))

    def split_mass(self, scaled=None):
        """The split of Mbar, or of M for no spec and for none; an Mbar is
        checked for symmetry here, once."""
        if self._spec(scaled) is None:
            return self._once("split M", None, lambda: self._split(self.pair.b))
        return self._once("split M", scaled, lambda: self._split(
            require_symmetric(scaled.mbar_dense(), "Mbar")))

    def values_km(self):
        return self._once("K,M", None, lambda: generalized_eigvalues(
            self.pair, split=(self.split_k(), self.split_mass())))

    def values_m(self):
        """(lambda_min, lambda_max) of M."""
        return self._once("M", None, lambda: extreme_eigvalues(
            self.pair.b, split=self.split_mass()))

    def values_kmbar(self, scaled):
        return self._once("K,M", scaled, lambda: generalized_eigvalues(
            (scaled.kbar, scaled.mbar_dense()),
            split=(self.split_k(), self.split_mass(scaled))))

    def values_mbar(self, scaled):
        """(lambda_min, lambda_max) of Mbar."""
        return self._once("M", scaled, lambda: extreme_eigvalues(
            scaled.mbar_dense(), split=self.split_mass(scaled)))

    def values_mbarm(self, scaled):
        return self._once("Mbar,M", scaled, lambda: generalized_eigvalues(
            (scaled.mbar_dense(), self.pair.b),
            split=(self.split_mass(scaled), self.split_mass())))

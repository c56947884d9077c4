"""The assembled system of one mesh, and the spectra read from it.

:class:`MeshSystem` is the one place where a mesh's pencils are solved:
the CLI's mesh studies read every spectrum and extreme through it, and so
does the acceptance suite on the benchmark plate.
"""
from __future__ import annotations

import functools

from . import fem, scaling
from .linalg import (
    CheckedMatrix,
    MatrixPair,
    extreme_eigvalues,
    generalized_eig,
    generalized_eigvalues,
)

__all__ = ["MeshSystem"]


class MeshSystem:
    """A mesh of one material, its element blocks and (K, M), built on
    first use, and what is read of the assembled pencils, each solved on
    first request: all eigenvalues of (K, M), its top pair and the
    extremes of M once, and the same of (Kbar, Mbar), (Mbar, M) and Mbar
    once per scaling spec.
    Kbar is K for every kind, and the none kind's Mbar is M, so it shares
    their entries. It keeps eigenvalues, the scaled system of each spec
    and each checked Mbar.

    Each assembled matrix is one :class:`linalg.CheckedMatrix` in the
    mesh's mirror basis, checked for symmetry when it is built: K and M
    with their pair, each Mbar on first use (:meth:`mass`). Each keeps its
    split, a :class:`linalg.Blocks` of eight dense blocks of order about
    n/8 (None when the matrix does not mirror), from its first read, so
    every solve and probe that reads a matrix shares one split, and what
    commutes with the reflections is solved block by block. M and the Mbar
    of the lumped, CMS, Olovsson, Hoffmann and uniform-LFT masses are
    I_3 (x) Mbar_s (:attr:`linalg.CheckedMatrix.is_decoupled`), so the
    mass-only solves, :meth:`values_mbar` and :meth:`values_mbarm`, read
    only the x-component rows and columns of each block (order about
    n/24) and count each value three times; K couples the components, so
    every pencil with K is solved on the whole blocks. K, M and every
    Mbar of a local kind are CSR arrays, and so are the other global
    kinds' Mbar; global deflation's Mbar is M plus an n x r factor, from the top pairs of
    :attr:`pair`'s blocks, and splits as M's blocks plus the factor's.
    The sweep reads lambda_max from the cached top pair of each pencil
    (:meth:`top_kmbar`), and the stability probe reads the same pair and
    steps on the same checked matrices.
    """

    def __init__(self, mesh, material):
        self.mesh, self.material = mesh, material
        self._values, self._scaled = {}, {}

    @functools.cached_property
    def blocks(self):
        """The mesh's :class:`fem.ElementBlocks`."""
        return fem.element_blocks(self.mesh, self.material)

    @functools.cached_property
    def pair(self):
        """MatrixPair(K, M) of checked CSR matrices in the mesh's mirror
        basis, with the lumped M."""
        n = self.mesh.dof_count
        return MatrixPair(*(CheckedMatrix(fem.assemble(self.blocks, which, n, sparse=True),
                                          self.basis, name)
                            for which, name in (("stiffness", "K"), ("lumped", "M"))))

    @functools.cached_property
    def basis(self):
        """The mesh's :class:`fem.MirrorBasis`, or None."""
        return fem.mirror_basis(self.mesh)

    def scale(self, spec):
        """The :class:`scaling.ScaledSystem` of ``spec`` on (K, M), applied
        once per spec."""
        if spec not in self._scaled:
            self._scaled[spec] = scaling.apply_spec(spec, self.blocks, self.mesh.dof_count,
                                                    pair=self.pair, k_global=self.pair.a.matrix)
        return self._scaled[spec]

    @staticmethod
    def _spec(scaled):
        """The key of a scaled system: None for the unscaled pair and for none."""
        return None if scaled is None or scaled.spec.kind == "none" else scaled.spec

    def _once(self, key, scaled, solve):
        spec = self._spec(scaled)
        if (key, spec) not in self._values:
            self._values[key, spec] = solve()
        return self._values[key, spec]

    def mass(self, scaled=None):
        """The checked M for no spec and for none, else the checked Mbar of
        ``scaled``, built on first request, once."""
        if self._spec(scaled) is None:
            return self.pair.b
        return self._once("Mbar", scaled, lambda: CheckedMatrix(scaled.mbar, self.basis, "Mbar"))

    def values_km(self):
        return self._once("K,M", None, lambda: generalized_eigvalues(self.pair))

    def values_m(self):
        """(lambda_min, lambda_max) of M."""
        return self._once("M", None, lambda: extreme_eigvalues(self.pair.b))

    def values_kmbar(self, scaled):
        return self._once("K,M", scaled, lambda: generalized_eigvalues(
            MatrixPair(self.pair.a, self.mass(scaled))))

    def values_mbar(self, scaled):
        """(lambda_min, lambda_max) of Mbar."""
        return self._once("M", scaled, lambda: extreme_eigvalues(self.mass(scaled)))

    def values_mbarm(self, scaled):
        return self._once("Mbar,M", scaled, lambda: generalized_eigvalues(
            MatrixPair(self.mass(scaled), self.pair.b)))

    def top_kmbar(self, scaled=None):
        """The largest eigenpair of (Kbar, Mbar), or of (K, M) for no spec
        and for none, solved once per spec: the sweep reads lambda_max from
        it and the stability probe its pair. It comes from
        :func:`generalized_eig` with ``top=1``: the top pair of the block
        pair with the largest top value, its vector mapped back to order n.
        When K and Mbar both split, those are the mirror blocks and no
        n-order Mbar is formed; otherwise the pencil is one block."""
        return self._once("top", scaled, lambda: generalized_eig(
            MatrixPair(self.pair.a, self.mass(scaled)), top=1))

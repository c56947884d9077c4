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
    _block_top,
    _blockwise,
    _eig,
    _eigvalues,
    extreme_eigvalues,
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
    It keeps eigenvalues, each checked sparse Mbar, and the scaled systems
    of global deflation, whose Mbar is M plus an n x r factor formed by a
    partial dense solve; other scaled systems are rebuilt on request.

    K, M and every Mbar of a local kind are CSR arrays, and so are the
    other global kinds' Mbar; global deflation's M + V S V^T is dense, as
    its entries are, and is formed for each solve that reads it, not
    kept. Each assembled matrix is read once: K and M are checked for
    symmetry when their pair is built, and each Mbar on first use
    (:meth:`mass`); the pencils of checked matrices go to the solvers that
    do not check them again (``linalg._eig`` and ``linalg._eigvalues``).
    The split of each matrix in the mesh's mirror basis
    (:func:`linalg.mirror_split`: eight dense blocks of order about n/8,
    or None when the matrix does not mirror) is kept and goes to every
    solve that reads the matrix, so that what commutes with the
    reflections is solved block by block; Kbar is K for every kind, so
    all pencils share K's split. The stability probe reads its top pair
    (:meth:`top_kmbar`) and steps on the splits of K and Mbar here too.
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
        """MatrixPair(K, M) of CSR arrays, with the lumped M."""
        n = self.mesh.dof_count
        return MatrixPair(fem.assemble(self.blocks, "stiffness", n, sparse=True),
                          fem.assemble(self.blocks, "lumped", n, sparse=True))

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

    def mass(self, scaled=None):
        """M for no spec and for none, else the Mbar of ``scaled`` as one
        matrix, checked for symmetry on first request, once. A sparse Mbar
        is kept; global deflation's dense M + V S V^T is formed anew on
        each request."""
        if self._spec(scaled) is None:
            return self.pair.b
        mbar = scaled.mbar
        if isinstance(mbar, LowRankUpdate):  # only that it was checked is kept
            mbar = mbar.dense()
            self._once("Mbar", scaled, lambda: require_symmetric(mbar, "Mbar") is mbar)
            return mbar
        return self._once("Mbar", scaled, lambda: require_symmetric(mbar, "Mbar"))

    def _split(self, a):
        return None if self.basis is None else mirror_split(a, self.basis)

    def split_k(self):
        return self._once("split K", None, lambda: self._split(self.pair.a))

    def split_mass(self, scaled=None):
        """The split of :meth:`mass`."""
        return self._once("split M", scaled, lambda: self._split(self.mass(scaled)))

    def values_km(self):
        return self._once("K,M", None, lambda: _eigvalues(
            self.pair, split=(self.split_k(), self.split_mass())))

    def values_m(self):
        """(lambda_min, lambda_max) of M."""
        return self._once("M", None, lambda: extreme_eigvalues(
            self.pair.b, split=self.split_mass()))

    # The solves of Mbar take its split before Mbar itself, so that global
    # deflation's dense Mbar, formed on each request, exists once at a time.

    def values_kmbar(self, scaled):
        def solve():
            split = self.split_k(), self.split_mass(scaled)
            return _eigvalues((scaled.kbar, self.mass(scaled)), split=split)

        return self._once("K,M", scaled, solve)

    def values_mbar(self, scaled):
        """(lambda_min, lambda_max) of Mbar."""
        def solve():
            split = self.split_mass(scaled)
            return extreme_eigvalues(self.mass(scaled), split=split)

        return self._once("M", scaled, solve)

    def values_mbarm(self, scaled):
        def solve():
            split = self.split_mass(scaled), self.split_mass()
            return _eigvalues((self.mass(scaled), self.pair.b), split=split)

        return self._once("Mbar,M", scaled, solve)

    def top_kmbar(self, scaled=None):
        """The largest eigenpair of (Kbar, Mbar), or of (K, M) for no spec.
        When K and Mbar both split, it is read from the blocks
        (``linalg._block_top``): the top pair of the block with the largest
        top value, its vector mapped through Q_k; no n-order Mbar is formed.
        Otherwise it is a partial dense solve of the checked matrices."""
        split = self.split_k(), self.split_mass(scaled)
        if _blockwise(split):
            return _block_top(*split, 1)
        return _eig((self.pair.a, self.mass(scaled)), top=1)

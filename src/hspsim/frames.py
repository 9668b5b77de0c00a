"""Weighted measurement frames: sum_b a_b |b><b| = I."""
from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from . import util

# numpy 1.x names the square case's gufunc qr_r_raw_m
_qr_r_raw = getattr(_umath_linalg, "qr_r_raw", None) or _umath_linalg.qr_r_raw_m


class Frame:
    """Unit vectors (columns) with positive weights resolving the identity."""

    def __init__(self, vectors, weights):
        self.vectors = np.ascontiguousarray(vectors, dtype=np.complex128)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        if self.vectors.ndim != 2 or self.weights.shape != (self.vectors.shape[1],):
            raise ValueError("need (d, m) vectors and (m,) weights")
        V = self.vectors
        sq = np.einsum("ij,ij->j", V.view(np.float64), V.view(np.float64))
        norms = np.sqrt(sq[0::2] + sq[1::2])  # (re, im) column pairs
        if np.abs(norms - 1.0).max() > 1e-12:
            raise ValueError("frame vectors must be unit norm")
        if (self.weights <= 0).any():
            raise ValueError("frame weights must be positive")
        # conj(S) = conj(V w) V^T: a block of its rows at a time, with V^T
        # a view, so no copy of V and no D x D matrix is made.  S is
        # Hermitian, so a block is checked from its diagonal on: the
        # columns left of it are an earlier block's rows, conjugated
        step = max(1, util.BLOCK_BYTES // (16 * self.dim))
        for lo in range(0, self.dim, step):
            S = (V[lo:lo + step].conj() * self.weights) @ V[lo:].T
            S[np.arange(len(S)), np.arange(len(S))] -= 1.0
            if np.abs(S).max() > 1e-9:
                raise ValueError("frame does not resolve the identity")

    @property
    def dim(self):
        return self.vectors.shape[0]

    @property
    def size(self):
        return self.vectors.shape[1]

    def __repr__(self):
        return f"<frame dim={self.dim} size={self.size}>"


def _haar_basis(d, rng):
    """A Haar-random unitary: the QR of a complex Ginibre matrix, filled in
    place and factored in place, with its columns' phases fixed by R's
    diagonal.  The two gufuncs np.linalg.qr calls (zgeqrf, then zungqr) run
    on A itself, so neither its copy of A nor its triu(R) is made."""
    A = np.empty((d, d), dtype=np.complex128)
    # one buffer for both draws, freed before the QR: a temporary per draw
    # stayed resident (at D = 2000 the draw's peak rose 23 MB)
    normals = np.empty((d, d))
    for part in (A.real, A.imag):
        part[...] = rng.standard_normal(out=normals)
    del normals
    with np.errstate(all="ignore", invalid="raise"):  # LAPACK's error signal
        tau = _qr_r_raw(A)  # A now holds R on and above its diagonal
        Q = _umath_linalg.qr_reduced(A, tau)
    r = A.diagonal()
    Q *= (r / np.abs(r)).conj()
    return Q


def frame_bases(kind):
    """Orthonormal bases a frame of this kind stacks, of weight 1/bases."""
    bases = {"basis": 1, "fused": 2}.get(kind)
    if bases is None:
        raise ValueError(f"unknown frame kind {kind!r}")
    return bases


def random_frame(d, seed, kind="basis"):
    """Haar-random frame on C^d.

    kind='basis': one random orthonormal basis, unit weights.
    kind='fused': two stacked random bases, weights 1/2.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    n = frame_bases(kind)
    rng = np.random.default_rng(seed)
    if n == 1:
        vectors = _haar_basis(d, rng)
    else:  # the bases are dropped once copied
        vectors = np.concatenate([_haar_basis(d, rng) for _ in range(n)],
                                 axis=1)
    return Frame(vectors, np.full(n * d, 1 / n))

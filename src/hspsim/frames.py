"""Weighted measurement frames: sum_b a_b |b><b| = I."""
from __future__ import annotations

import functools

import numpy as np
from numpy.linalg import lapack_lite

from . import util

UNIT_NORM_TOL = 1e-12  # a QR column misses unit norm by a few ulps
IDENTITY_TOL = 1e-9  # S - I rounds by at worst D ulps, 1e-12 at D = 4096


class Frame:
    """A stack (n, d, m) of frames sharing their weights, each of unit
    vectors (columns) with positive weights resolving the identity."""

    def __init__(self, vectors, weights):
        self.vectors = np.ascontiguousarray(vectors, dtype=np.complex128)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        if self.vectors.ndim != 3 or \
                self.weights.shape != self.vectors.shape[-1:]:
            raise ValueError("need (n, d, m) vectors, (m,) weights")
        V = self.vectors
        F = V.view(np.float64)
        sq = np.einsum("...ij,...ij->...j", F, F)
        norms = np.sqrt(sq[..., 0::2] + sq[..., 1::2])  # (re, im) pairs
        if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
            raise ValueError("frame vectors must be unit norm")
        if (self.weights <= 0).any():
            raise ValueError("frame weights must be positive")
        # conj(S) = conj(V w) V^T: a block of its rows (of every frame of a
        # stack) at a time, conjugated and scaled in place, with V^T a view,
        # so V is not copied.  S is Hermitian, so a block is checked from its
        # diagonal on: the columns left of it are an earlier block's rows
        step = max(1, util.BLOCK_BYTES // (16 * self.size))
        for lo in range(0, self.dim, step):
            S = V[..., lo:lo + step, :].conj()
            S = np.multiply(S, self.weights, out=S) @ V[..., lo:, :].swapaxes(
                -1, -2)
            i = np.arange(S.shape[-2])
            S[..., i, i] -= 1.0
            if np.abs(S).max() > IDENTITY_TOL:
                raise ValueError("frame does not resolve the identity")

    @property
    def dim(self):
        return self.vectors.shape[-2]

    @property
    def size(self):
        return self.vectors.size // self.dim  # of every frame of a stack

    def __getitem__(self, j):
        """Frame j of a stack, checked with it; its vectors are a view."""
        frame = object.__new__(Frame)
        frame.vectors, frame.weights = self.vectors[j], self.weights
        return frame

    def __repr__(self):
        return f"<frame dim={self.dim} size={self.size}>"


@functools.lru_cache(maxsize=64)
def _work_size(d):
    """zgeqrf's and zungqr's workspace on d x d, by size query (lwork -1)."""
    w = np.empty(2, np.complex128)  # a query reads no matrix entry
    lapack_lite.zgeqrf(d, d, w, d, w, w[:1], -1, 0)
    lapack_lite.zungqr(d, d, d, w, d, w, w[1:], -1, 0)
    return int(w.real.max())


def _haar_basis(rng, out, lo):
    """Write a Haar unitary Q, the QR of a complex Ginibre matrix A with R's
    diagonal phases fixed, into columns lo..lo+d of the C-order (d, m) array
    out.  A's normals, in np.linalg.qr's order, fill them as A^T a
    BLOCK_BYTES block at a time: LAPACK reads that as A (column-major, lda
    m), zgeqrf and zungqr factor it in place, and tiles transpose Q^T."""
    d, m = out.shape
    Q = out[:, lo:lo + d]
    rows = max(1, util.BLOCK_BYTES // (8 * d))
    for part in (Q.real.T, Q.imag.T):
        for i in range(0, d, rows):
            part[i:i + rows] = rng.standard_normal((min(rows, d - i), d))
    work = np.empty(_work_size(d), np.complex128)
    args = (out.reshape(-1)[lo:], m, np.empty(d, complex), work, len(work), 0)
    info = lapack_lite.zgeqrf(d, d, *args)["info"]
    r = Q.diagonal().copy()  # R's diagonal
    if info or (info := lapack_lite.zungqr(d, d, d, *args)["info"]):
        raise np.linalg.LinAlgError(f"QR argument {-info} is illegal")
    Q *= (r / np.abs(r)).conj()[:, None]  # Q^T's rows are Q's columns
    s = int((util.BLOCK_BYTES // 16) ** 0.5)  # tiles of at most BLOCK_BYTES
    for i in range(0, d, s):
        I = slice(i, i + s)
        Q[I, I] = Q[I, I].T.copy()  # a diagonal tile is its own pair
        for j in range(i + s, d, s):
            J = slice(j, j + s)
            Q[I, J], Q[J, I] = Q[J, I].T.copy(), Q[I, J].T.copy()


def frame_bases(kind):
    """Orthonormal bases a frame of this kind stacks, of weight 1/bases."""
    bases = {"basis": 1, "fused": 2}.get(kind)
    if bases is None:
        raise ValueError(f"unknown frame kind {kind!r}")
    return bases


def random_frame(d, seeds, kind="basis"):
    """Stack of Haar-random frames on C^d, one per seed of the list seeds,
    each basis drawn into its own columns, checked as a stack.

    kind='basis': one random orthonormal basis, unit weights.
    kind='fused': two stacked random bases, weights 1/2.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    n = frame_bases(kind)
    vectors = np.empty((len(seeds), d, n * d), dtype=np.complex128)
    for out, s in zip(vectors, seeds):
        rng = np.random.default_rng(s)
        for lo in range(0, n * d, d):
            _haar_basis(rng, out, lo)
    return Frame(vectors, np.full(n * d, 1 / n))

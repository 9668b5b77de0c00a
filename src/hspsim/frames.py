"""Weighted measurement frames: sum_b a_b |b><b| = I."""
from __future__ import annotations

import numpy as np


class Frame:
    """Unit vectors (columns) with positive weights resolving the identity."""

    def __init__(self, vectors, weights):
        self.vectors = np.ascontiguousarray(vectors, dtype=np.complex128)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        if self.vectors.ndim != 2 or self.weights.shape != (self.vectors.shape[1],):
            raise ValueError("need (d, m) vectors and (m,) weights")
        norms = np.linalg.norm(self.vectors, axis=0)
        if np.abs(norms - 1.0).max() > 1e-12:
            raise ValueError("frame vectors must be unit norm")
        if (self.weights <= 0).any():
            raise ValueError("frame weights must be positive")
        S = (self.vectors * self.weights) @ self.vectors.conj().T
        if np.abs(S - np.eye(self.dim)).max() > 1e-9:
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
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    ph = np.diag(R) / np.abs(np.diag(R))
    return Q * ph.conj()


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
    bases = [_haar_basis(d, rng) for _ in range(n)]
    return Frame(np.concatenate(bases, axis=1), np.full(n * d, 1 / n))

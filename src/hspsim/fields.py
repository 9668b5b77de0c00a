"""Small finite fields GF(q) with fixed irreducible polynomials."""
from __future__ import annotations

import numpy as np

# Reduction rules for the prime-power sizes we support: value x^deg expressed
# as a polynomial, coefficients little-endian in the base prime.
_IRREDUCIBLE = {
    4: (2, [1, 1]),     # x^2 = x + 1 over GF(2)
    8: (2, [1, 1, 0]),  # x^3 = x + 1 over GF(2)
    9: (3, [2, 0]),     # x^2 = 2 over GF(3)  (x^2 + 1 irreducible)
}

_PRIMES = (2, 3, 5, 7, 11, 13)


class GF:
    """GF(q) as operation tables; elements are integers 0..q-1.

    For prime q this is plain modular arithmetic.  For q in {4, 8, 9} an
    element encodes polynomial coefficients base-p (little-endian), and
    multiplication reduces by the fixed irreducible polynomial above.
    ``add`` and ``mul`` are q x q arrays and ``neg`` and ``inv`` length-q
    arrays (``inv[0]`` is 0), so field arithmetic on arrays of elements is
    fancy indexing.
    """

    def __init__(self, q):
        if q in _PRIMES:
            p, tail = q, []
        elif q in _IRREDUCIBLE:
            p, tail = _IRREDUCIBLE[q]
        else:
            raise ValueError(f"unsupported field size {q}")
        self.q, self.p, self.deg = q, p, max(1, len(tail))
        deg = self.deg
        weights = p ** np.arange(deg)
        cs = np.arange(q)[:, None] // weights % p      # (q, deg) coefficients
        self.add = (cs[:, None] + cs[None]) % p @ weights
        self.neg = -cs % p @ weights
        prod = np.zeros((q, q, 2 * deg - 1), dtype=np.int64)
        for i in range(deg):
            for j in range(deg):
                prod[:, :, i + j] += cs[:, None, i] * cs[None, :, j]
        # reduce x^k for k >= deg using x^deg = tail
        for k in range(2 * deg - 2, deg - 1, -1):
            c = prod[:, :, k] % p
            prod[:, :, k] = 0
            for i, t in enumerate(tail):
                prod[:, :, k - deg + i] += c * t
        self.mul = prod[:, :, :deg] % p @ weights
        self.inv = np.argmax(self.mul == 1, axis=1)

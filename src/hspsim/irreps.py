"""Unitary irreducible representations of the supported groups.

An irrep's matrices are stacked as a (|G|, d, d) array indexed by element
id, so group averages become single einsum reductions.  Cyclic groups,
every S_n the group layer admits and S_n wr S_2 up to WREATH_IRREPS_MAX_N
have explicit constructions, the rest the numeric decomposition.  The
explicit ones evaluate rows where they are read: sampling reads rho at e
and the class of h only, a character table the class representatives, and
each row is bit for bit the whole stack's.  Each construction gives its
irreps their labels and degrees, and a command checks its estimates on
those before it reads a row.  Young's orthogonal form and the wreath
construction built on it are real, and keep float64 stacks, half the bytes
of complex ones; roots of unity and the numeric decomposition keep
complex128.
"""
from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from . import util
from .groups import CyclicGroup, SymmetricGroup, WreathS2Group
from .util import STEP_WORK, kron_stack, require

# Largest n with an explicit wreath construction, built on Young's
# orthogonal form, which covers every S_n the group layer admits.
WREATH_IRREPS_MAX_N = 4
# Largest n at which partition_degrees' subtree bound is checked to
# grow with the row width at every node of the search.
PRUNE_MAX_N = 40
# Bytes of a listed cyclic irrep besides its label's characters: the Irrep,
# its row function, and the row a bound reads beside it (bound --family
# group --group cyclic:400000 peaked 714 bytes per irrep above cyclic:2)
CYCLIC_IRREP_BYTES = 736
# A segment of the numeric decomposition is skipped as a repeated copy only
# when its norm and its overlap with a built piece are this close to 1, a
# hundred times inside the 1e-6 tests that the built pieces go through.
REPEAT_TOL = 1e-8
CHAR_INNER_TOL = 1e-6  # <chi, psi> / |G| is an integer up to |G| roundings
LOG_MARGIN = 1e-9  # partition_degrees compares logs: it only costs visits
SPLIT_TOL = 1e-6  # commutant eigenvalues this close share one eigenspace


class Irrep:
    """One unitary representation: a label and its matrices rho(g),
    float64 or complex128 as given.

    A construction gives either the whole (|G|, d, d) stack, or a function
    of an int id array that evaluates those rows, with the degree d and
    the dtype.  at() and character_at() evaluate only the elements asked
    for; mats and character() evaluate every element once and keep the
    stack.  Rows of another degree than d, or of another dtype, are an
    error (RuntimeError) when evaluated.
    """

    def __init__(self, group, label, mats, degree=None, dtype=None):
        self.group = group
        self.label = label
        self.degree = degree
        self.dtype = None if dtype is None else np.dtype(dtype)
        if callable(mats):
            self._rows_of, self._mats = mats, None
        else:
            self._rows_of, self._mats = None, self._stack(mats, group.order)
        self._char = None

    @property
    def mats(self):
        """The (|G|, d, d) stack."""
        if self._mats is None:
            N = self.group.order
            self._mats = self._stack(self._rows_of(np.arange(N)), N)
        return self._mats

    def character(self):
        """The complex128 character, whatever the stack's dtype."""
        if self._char is None:
            self._char = _trace(self.mats)
        return self._char

    def at(self, xs):
        """rho(x) for an element id x, or stacked for a sequence of them."""
        xs = np.asarray(xs)  # a tuple of ids indexes rows, not axes
        if self._mats is not None:
            return self._mats[xs]
        ids = _row_ids(xs, self.group.order)
        rows = self._stack(self._rows_of(ids.reshape(-1)), ids.size)
        return rows.reshape(ids.shape + rows.shape[1:])

    def character_at(self, xs):
        """chi(x) for an element id x, or an array for a sequence of them:
        the entries of character() there."""
        return _trace(self.at(xs))

    def _stack(self, mats, rows):
        """mats as a contiguous float64 or complex128 stack, checked to
        hold `rows` matrices of the irrep's degree."""
        mats = np.asarray(mats)
        mats = np.ascontiguousarray(mats,
                                    dtype=np.result_type(mats, np.float64))
        if mats.ndim != 3 or mats.shape[0] != rows:
            raise ValueError("matrix stack must have shape (|G|, d, d)")
        if self.degree is None:  # a whole stack, which names both
            self.degree, self.dtype = mats.shape[1], mats.dtype
        if mats.shape[1:] != (self.degree, self.degree) or \
                mats.dtype != self.dtype:
            raise RuntimeError(
                f"irrep {self.label} of the {self.group.kind} group of order "
                f"{self.group.order} differs from its listed degree "
                f"{self.degree} or dtype {self.dtype}")
        return mats

    def __repr__(self):
        return f"<irrep {self.label} degree={self.degree}>"


def _row_ids(xs, rows):
    """The int ids xs as rows of a stack of `rows` matrices would take them:
    a negative id counts from the end, and an id out of range or not an
    int is an IndexError, in time of the ids read, not of the stack."""
    if not xs.size:
        return xs.astype(np.intp)
    if xs.dtype.kind not in "iu":
        raise IndexError(f"element ids must be ints, not {xs.dtype}")
    ids = xs.astype(np.intp, copy=False)
    lo, hi = ids.min(), ids.max()
    if lo < -rows or hi >= rows:
        raise IndexError(f"index {hi if hi >= rows else lo} is out of bounds "
                         f"for axis 0 with size {rows}")
    return ids % rows if lo < 0 else ids


def _trace(mats):
    """The complex128 traces of a stack of matrices, or of one matrix."""
    return np.einsum("...ii->...", mats).astype(np.complex128, copy=False)


# ---------------------------------------------------------------------------
# partitions and standard tableaux

def partition_degrees(n, max_degree=None):
    """(pairs, seen): (label, exact S_n irrep degree) for the partitions of
    n with degree at most max_degree (every one when None), in search
    order, and the number of partitions the search accounts for: the
    leaves it visits plus those of the subtrees it skips.  The pairs are
    all the search holds: each label, partition_label's string, is built
    as its diagram is found, and no partition tuple is made.

    Depth first, each diagram is built bottom-up, each new row on top of
    rows no longer than it.  A row on top changes no existing cell's arm
    (the cells to its right) or leg (the cells below it), so a row of k
    cells multiplies the hook product by its own k hooks k - j + height[j],
    height[j] being the number of rows already in column j.  Only the
    occupied columns are multiplied one by one; the empty ones give a
    factorial.  The rows below are carried as their label's tail.

    The search visits only the wide diagrams, whose first row is at least
    their number of rows.  A diagram and its conjugate have the same hooks,
    so the same degree (Frame, Robinson and Thrall, 1954), and each
    strictly wide leaf is followed by its conjugate, height[c] + 1 for
    the columns c of its top row.  A child all of whose diagrams are tall
    ends the loop, as every later child's are; its subtree and theirs are
    counted as skipped.

    Given max_degree, the search skips each child mu whose subtree holds no
    degree <= max_degree.  Say mu has width k, column heights h_c, and
    `left` cells still to place.  Every diagram under mu stacks
    j <= left // k rows of at least k cells each on top of mu.  Each top
    cell in column c < k has its hook raised by h_c, and the top rows' own
    hook product is at most left!.  So every degree under mu is at least

        C(n, left) f^mu prod_{c<k} rising(k-c, j) / rising(k-c+h_c, j)

    at j = left // k.  For n <= PRUNE_MAX_N this bound never falls as k
    grows at a node (tests/test_irreps.py), so the first skipped child ends
    the loop.  The bound is compared in logs with a 1e-9 margin, which can
    only cost visits.  A leaf's degree is screened in logs with the same
    margin before its exact integer division, so the pairs keep their
    exact integer degrees.
    """
    prune = max_degree is not None
    if prune and not 0 <= n <= PRUNE_MAX_N:
        raise ValueError(f"n must be in 0..{PRUNE_MAX_N}")
    if n == 0:
        return [("[]", 1)] if not prune or max_degree >= 1 else [], 1
    fact = math.factorial(n)
    facts = [math.factorial(m) for m in range(n + 1)]
    at_least = _partition_counts(n)
    if prune:
        floor = _log_degree_floor(n)
        limit = math.log(max(max_degree, 1)) + LOG_MARGIN
        log_fact = math.log(fact)
    out, height, seen = [], [0] * n, 0

    def rec(rem, lo, hooks, tail, rows, width):
        # tail is the label of the `rows` rows below, less its "[<top row>"
        nonlocal seen
        seen += 1
        # a top row of all rem cells closes a diagram: hooks rem - c +
        # height[c] over the width occupied columns, (rem - width)! over
        # the empty ones
        whole = hooks * facts[rem - width] * math.prod(
            map(operator.add, range(rem, rem - width, -1), height))
        # screened in logs (the margin only costs divisions), then exact
        if not prune or log_fact - math.log(whole) <= limit:
            d = fact // whole
            if not prune or d <= max_degree:
                out.append((f"[{rem}{tail}", d))
                if rem > rows + 1:  # strictly wide: add the conjugate
                    out.append((partition_label(
                        map((1).__add__, height[:rem])), d))
        # child k's diagrams have a first row of at most rem - k cells and
        # at least rows + 2 rows; some are wide only up to `last`
        k, last = lo, min(rem // 2, rem - rows - 2)
        while k <= last:
            child = hooks * facts[k - width] * math.prod(
                map(operator.add, range(k, k - width, -1), height))
            if prune and floor(rem - k, child, height, k, width) > limit:
                break
            below = height[:k]
            height[:k] = map((1).__add__, below)
            rec(rem - k, k, child, f",{k}{tail}", rows + 1, k)
            height[:k] = below
            k += 1
        # children k.. are not visited: each leaves a partition of rem into
        # at least two parts of at least k cells, all tall (the conjugates
        # of wide ones) or over max_degree
        seen += at_least[rem][k] - 1

    rec(n, 1, 1, "]", 0, 0)
    del rec  # rec's closure holds rec: free the cycle, and `out` with it
    return out, seen


def _log_degree_floor(n):
    """The log of partition_degrees' lower bound on the degrees under
    a child, as a function of the cells `left` still to place, the child's
    hook product `hooks`, its parent's column heights `height` (the
    child's, less its top row), its width k and its parent's width."""
    lgam = [0.0] + [math.lgamma(m) for m in range(1, 3 * n)]
    # rise[j][a] = log rising(a, j) for a < 2n, past every a + height + 1
    rise = [[0.0] + [lgam[a + j] - lgam[a] for a in range(1, 2 * n)]
            for j in range(n + 1)]

    def floor(left, hooks, height, k, width):
        j = left // k
        r = rise[j]
        # the k - width columns the child's row opened have height 1, and
        # prod_{a=1..k-width} rising(a, j) / rising(a + 1, j) telescopes
        total = (lgam[n + 1] - lgam[left + 1] - math.log(hooks)
                 + r[1] - r[k - width + 1])
        # the occupied ones, one cell higher under the child's row
        for a, h in zip(range(k, k - width, -1), height):
            total += r[a] - r[a + h + 1]
        return total
    return floor


def _partition_counts(n):
    """q[m][k], the number of partitions of m into parts of at least k, for
    m <= n and 1 <= k <= n + 1."""
    q = [[1] * (n + 2)] + [[0] * (n + 2) for _ in range(n)]
    for m in range(1, n + 1):
        for k in range(m, 0, -1):
            q[m][k] = q[m][k + 1] + q[m - k][k]
    return q


def partition_label(lam):
    """The label of a partition given by its rows, any iterable of ints:
    "[4,2,1]" for (4, 2, 1)."""
    return "[" + ",".join(map(str, lam)) + "]"


def partition_of(label):
    """The partition tuple of a partition_label string."""
    return tuple(map(int, label[1:-1].split(","))) if label != "[]" else ()


def hook_length_degree(lam):
    """Degree of the S_n irrep lam by the hook length formula.

    With conj the conjugate partition, the hook of cell (i, j) is
    (lam[i] - j - 1) + (conj[j] - i - 1) + 1.
    """
    conj = [0] * (lam[0] if lam else 0)
    for row in lam:
        for j in range(row):
            conj[j] += 1
    hooks = math.prod(row - j + conj[j] - i - 1
                      for i, row in enumerate(lam) for j in range(row))
    return math.factorial(sum(lam)) // hooks


def standard_tableaux(lam):
    """Tableaux as tuples pos[k] = (row, col) of entry k+1; fixed order."""
    n = sum(lam)
    out = []

    def rec(fill, pos):
        if len(pos) == n:
            out.append(tuple(pos))
            return
        for r, width in enumerate(lam):
            if fill[r] < width and (r == 0 or fill[r - 1] > fill[r]):
                fill[r] += 1
                pos.append((r, fill[r] - 1))
                rec(fill, pos)
                pos.pop()
                fill[r] -= 1

    rec([0] * len(lam), [])
    return out


def _yor_generator(lam, tableaux, k):
    """Matrix of the adjacent transposition (k, k+1), 1-based k."""
    d = len(tableaux)
    index = {t: i for i, t in enumerate(tableaux)}
    M = np.zeros((d, d))
    for i, t in enumerate(tableaux):
        r1, c1 = t[k - 1]
        r2, c2 = t[k]
        ax = (c2 - r2) - (c1 - r1)  # axial distance, never 0
        M[i, i] = 1.0 / ax
        if abs(ax) > 1:
            swapped = list(t)
            swapped[k - 1], swapped[k] = swapped[k], swapped[k - 1]
            M[i, index[tuple(swapped)]] = math.sqrt(1.0 - 1.0 / ax ** 2)
    return M


def irreps_symmetric(n):
    """Young's orthogonal form; one irrep per partition, descending lex,
    each evaluated where it is read.

    rho(g) multiplies the _yor_generator matrices, left to right from the
    identity, along g's lexicographically smallest reduced word: the first
    descent k of g's image array p (p[k] > p[k+1]), then the word of p
    with those two entries swapped.  A breadth-first search over right
    multiplication by (1 2), (2 3), ... reaches g by this word first, so
    each row is bit for bit that search's.
    """
    G = SymmetricGroup(n)

    def young(lam, d):
        tabs = standard_tableaux(lam)
        gens = [_yor_generator(lam, tabs, k) for k in range(1, n)]

        def rows(ids):
            p = G._rows[ids]  # a fancy-indexed copy, peeled in place
            mats = np.tile(np.eye(d), (len(ids), 1, 1))
            while True:
                descents = p[:, :-1] > p[:, 1:]
                live = np.flatnonzero(descents.any(axis=1))
                if not live.size:
                    return mats
                k = descents[live].argmax(axis=1)
                # np.unique(k), without np.unique's numpy.ma import
                for a in np.flatnonzero(np.bincount(k)):
                    at = live[k == a]
                    mats[at] = mats[at] @ gens[a]
                p[live, k], p[live, k + 1] = p[live, k + 1], p[live, k]
        return rows
    return [Irrep(G, partition_label(lam), young(lam, d), d, np.float64)
            for lam, d in sorted(((partition_of(lab), d) for lab, d in
                                  partition_degrees(n)[0]), reverse=True)]


def irreps_cyclic(n):
    """chi_j(x) = exp(2 pi i j x / n), evaluated where it is read.

    The listing is charged for what it holds, CYCLIC_IRREP_BYTES and a
    label per irrep; a reader of the whole stacks charges for them."""
    require(f"irrep listing of the cyclic group of order {n}",
            bytes=n * (CYCLIC_IRREP_BYTES + len(f"chi{n}")))
    G = CyclicGroup(n)

    def chi(j):
        return lambda ids: np.exp(2j * np.pi * j * ids / n).reshape(-1, 1, 1)
    return [Irrep(G, f"chi{j}", chi(j), 1, np.complex128) for j in range(n)]


# ---------------------------------------------------------------------------
# wreath-product irreps

def irreps_wreath(n):
    """All irreps of S_n wr S_2, each evaluated where it is read.

    For each partition two degree-d^2 irreps (swap acts as +/- the tensor
    swap); for each unordered pair of distinct partitions one induced irrep
    of degree 2 d_i d_j.  Count: 2 p(n) + C(p(n), 2).  The whole S_n
    stacks are read when the irreps are built, and each element's row is
    made from its two base rows, in their dtype, float64 for Young's form.
    """
    if not 2 <= n <= WREATH_IRREPS_MAX_N:
        raise ValueError("wreath irreps supported for "
                         f"2 <= n <= {WREATH_IRREPS_MAX_N}")
    W = WreathS2Group(n)

    def theta(m, sign):
        d = m.shape[1]  # the swap sends basis vector (i, j) to (j, i)
        swap = sign * np.eye(d * d)[:, np.arange(d * d).reshape(d, d).T.ravel()]

        def rows(ids):
            P, S, swapped = W.unpack(ids)
            swapped = swapped == 1
            mats = kron_stack(m[P], m[S])
            mats[swapped] = mats[swapped] @ swap
            return mats
        return rows

    def kappa(mi, mj):
        half = mi.shape[1] * mj.shape[1]

        def rows(ids):
            P, S, swapped = W.unpack(ids)
            swapped = swapped == 1
            A = kron_stack(mi[P], mj[S])
            B = kron_stack(mi[S], mj[P])
            mats = np.zeros((len(ids), 2 * half, 2 * half), A.dtype)
            mats[~swapped, :half, :half] = A[~swapped]
            mats[~swapped, half:, half:] = B[~swapped]
            mats[swapped, :half, half:] = A[swapped]
            mats[swapped, half:, :half] = B[swapped]
            return mats
        return rows

    base = irreps_symmetric(n)
    out = [Irrep(W, tag + rho.label, theta(rho.mats, sign), rho.degree ** 2,
                 rho.dtype)
           for tag, sign in (("theta", 1.0), ("theta'", -1.0))
           for rho in base]
    return out + [Irrep(W, f"kappa{a.label}x{b.label}", kappa(a.mats, b.mats),
                        2 * a.degree * b.degree, a.dtype)
                  for a, b in itertools.combinations(base, 2)]


# ---------------------------------------------------------------------------
# generic decomposition of the regular representation

def _cluster(eigvals, tol):
    segs, start = [], 0
    for i in range(1, len(eigvals)):
        if eigvals[i] - eigvals[i - 1] > tol:
            segs.append((start, i))
            start = i
    segs.append((start, len(eigvals)))
    return segs


def _char_norm(mats):
    chi = np.einsum("gii->g", mats)
    return float(np.vdot(chi, chi).real) / mats.shape[0]


class _Pieces(list):
    """Irreducible pieces found so far, plus the conjugacy classes on which
    a new segment's character is compared with theirs."""

    def __init__(self, group):
        super().__init__()
        classes = group.conjugacy_classes()
        self.reps = np.array([c[0] for c in classes])
        self.weights = np.array([len(c) for c in classes]) / group.order

    def is_repeat(self, chi):
        """True when chi (at the class representatives) is clearly
        irreducible and already the character of a piece; an ambiguous
        case says False and gets built."""
        wchi = self.weights * chi
        if abs(np.vdot(chi, wchi).real - 1.0) >= REPEAT_TOL:
            return False
        return any(abs(np.vdot(np.einsum("gii->g", p[self.reps]), wchi).real
                       - 1.0) < REPEAT_TOL for p in self)


def _split_unitary_rep(mats, tol, rng, out, depth=0):
    """Recursively split a unitary rep (stacked matrices) into irreducibles,
    appending them to out (a _Pieces)."""
    m = mats.shape[1]
    if m == 1 or abs(_char_norm(mats) - 1.0) < CHAR_INNER_TOL:
        out.append(mats)
        return
    if depth > 12:
        raise RuntimeError("representation failed to split")
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    M = (A + A.conj().T) / 2
    C = np.einsum("gij,jk,glk->il", mats, M, mats.conj()) / mats.shape[0]
    C = (C + C.conj().T) / 2
    w, V = np.linalg.eigh(C)
    segs = _cluster(w, tol)
    if len(segs) == 1:
        # non-generic draw; try again
        _split_unitary_rep(mats, tol, rng, out, depth + 1)
        return
    at_reps = mats[out.reps]
    _split_segments(
        V, segs, lambda U: np.einsum("ji,gjk,ki->g", U.conj(), at_reps, U),
        lambda U: np.einsum("ji,gjk,kl->gil", U.conj(), mats, U),
        tol, rng, out, depth + 1)


def _split_segments(V, segs, char_of, build, tol, rng, out, depth):
    """Split each eigenspace V[:, a:b] of a commutant element into out.

    char_of(U) is the character of a segment at the class representatives
    and build(U) its matrix stack.  A segment that is another copy of a
    piece already in out is skipped unbuilt.  It would not have drawn from
    rng, so the pieces that are built come out the same as when every
    segment is built.
    """
    for a, b in segs:
        U = V[:, a:b]
        if not out.is_repeat(char_of(U)):
            _split_unitary_rep(build(U), tol, rng, out, depth)


def require_numeric_irreps(group):
    """Refuse irreps_generic(group) before any of it is built."""
    N = group.order
    stop = (f"explicit wreath irreps stop at n <= {WREATH_IRREPS_MAX_N}, and "
            if isinstance(group, WreathS2Group) else "")
    what = f"{stop}numeric irrep construction for the {group.kind} group of " \
           f"order {N}"
    # eight dense |G| x |G| complex matrices (s6 to sl2:13 peaked 100-125
    # bytes per entry); eigh and the pieces' matrices, N^3 multiply-adds each,
    # the segments' character screens at the r classes, r N^2, and a loop
    # step per element for m and for each of the r pieces
    require(what, bytes=128 * N * N)
    r = len(group.conjugacy_classes())
    require(what, work=2 * N ** 3 + r * N * N + STEP_WORK * N * (r + 1))


def irreps_generic(group, tol=SPLIT_TOL, seed=0):
    """All irreps via numerical decomposition of the regular representation.

    A random Hermitian matrix is averaged into the commutant (an O(|G|^2)
    index trick), its eigenspaces are split off, and each block is reduced
    recursively until the character norm certifies irreducibility.  Retries
    with fresh randomness on a degenerate draw, or when the squared degrees
    do not sum to |G|, as a repeated copy past _Pieces.is_repeat would make
    them.  Result is canonically sorted and labeled rho0, rho1, ...
    """
    require_numeric_irreps(group)
    N = group.order
    table = group.table()
    invs = group.inverse(np.arange(N))
    last_err = None
    for attempt in range(5):
        rng = np.random.default_rng(seed + attempt)
        try:
            pieces = _decompose_regular(group, table, invs, tol, rng)
        except RuntimeError as err:
            last_err = err
            continue
        if sum(p.shape[1] ** 2 for p in pieces) == N:
            reps = [Irrep(group, "", p) for p in pieces]
            reps = canonical_sort(group, reps)
            for i, r in enumerate(reps):
                r.label = f"rho{i}"
            return reps
        last_err = RuntimeError("sum of squared degrees mismatch")
    raise RuntimeError(f"regular representation failed to decompose: {last_err}")


def _decompose_regular(group, table, invs, tol, rng):
    N = group.order
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    M = (A + A.conj().T) / 2
    # E_g[R(g) M R(g)^dag][a,b] depends only on a^{-1} b:
    #   m[z] = mean_u M[u, u z];  C[a,b] = m[a^{-1} b]
    m = np.empty(N, dtype=np.complex128)
    rows = np.arange(N)
    for z in range(N):
        m[z] = M[rows, table[:, z]].mean()
    left = table[invs, :]  # left[g, a] = g^{-1} a
    C = m[left]
    C = (C + C.conj().T) / 2
    w, V = np.linalg.eigh(C)
    segs = _cluster(w, tol)
    if len(segs) < 2 and N > 1:
        raise RuntimeError("commutant average did not split")

    def build(U):
        # rho(g) = U^dag R(g) U and (R(g) U)[a] = U[g^{-1} a]
        Uh = U.conj().T
        sub = np.empty((N, U.shape[1], U.shape[1]), dtype=np.complex128)
        for g in range(N):
            sub[g] = Uh @ U[left[g], :]
        return sub

    out = _Pieces(group)
    # the trace of U^dag R(g) U is sum_a U[a]^dag U[g^{-1} a]
    at_reps = left[out.reps]
    _split_segments(
        V, segs, lambda U: np.einsum("kai,ai->k", U[at_reps], U.conj()),
        build, tol, rng, out, 0)
    return out


# ---------------------------------------------------------------------------
# canonical ordering

def canonical_sort(group, irreps):
    """The irreps in canonical_order of their characters at the class
    representatives, with classes ordered by (size, smallest member)."""
    reps = [c[0] for c in group.conjugacy_classes()]
    order = canonical_order([rho.degree for rho in irreps],
                            np.array([rho.character()[reps] for rho in irreps]))
    return [irreps[i] for i in order]


def canonical_order(degrees, values):
    """The row order of a character table: by degree, then by the values
    (one row of class values each), descending lex with the real part
    before the imaginary, so the trivial character comes first.  Values
    are rounded to 8 places, so float noise cannot flip the order, and
    ties keep their order.  np.lexsort compares its last key first."""
    parts = np.stack([values.real, values.imag], axis=-1)
    keys = -np.round(parts.reshape(len(values), -1), 8)
    return np.lexsort((*keys.T[::-1], degrees))


def has_explicit_irreps(group):
    """Whether irreps_for builds the group's irreps explicitly: every cyclic
    and symmetric group, S_n wr S_2 up to WREATH_IRREPS_MAX_N."""
    return (isinstance(group, (CyclicGroup, SymmetricGroup))
            or isinstance(group, WreathS2Group)
            and group.n <= WREATH_IRREPS_MAX_N)


def irreps_for(group, seed=0):
    """Complete unitary irreps: the explicit construction when there is
    one, else the numeric regular-representation decomposition."""
    if not has_explicit_irreps(group):
        return irreps_generic(group, seed=seed)
    build = {CyclicGroup: irreps_cyclic, SymmetricGroup: irreps_symmetric,
             WreathS2Group: irreps_wreath}[type(group)]
    return build(group.n)


# ---------------------------------------------------------------------------
# consistency helpers used by tests and the verify command

def require_hom_check(label, order, degree):
    """Refuse hom_unitarity_error on an irrep of this label and degree of a
    group of this order, before the irrep is built."""
    require(f"all-pairs homomorphism check of {label}",
            work=order * order * degree ** 3)


def hom_unitarity_error(rho):
    """Max deviation from rho(xy) = rho(x)rho(y) and unitarity, over all
    |G|^2 pairs, |G|^2 d^3 multiply-adds, in blocks of y whose two
    temporaries in the stack's dtype, the products and the gathered
    rho(xy), fit util.BLOCK_BYTES.  A block's products are one BLAS
    product: the stack read as one (|G| d, d) matrix, each rho(x) on top
    of the next, times the block's rho(y) side by side, (d, block d), the
    only matrices copied."""
    G, N, d = rho.group, rho.group.order, rho.degree
    require_hom_check(rho.label, N, d)
    mats, table, err = rho.mats, G.table(), 0.0
    step = max(1, util.BLOCK_BYTES // (2 * N * d * d * mats.itemsize))
    for a in range(0, N, step):
        blk = mats[a:a + step]
        # prod[x, i, y, j] = (rho(x) rho(y))[i, j] for the block's y
        prod = (mats.reshape(N * d, d)
                @ blk.transpose(1, 0, 2).reshape(d, -1)).reshape(N, d, -1, d)
        prod -= mats[table[:, a:a + step]].transpose(0, 2, 1, 3)
        unit = blk.conj().swapaxes(1, 2) @ blk - np.eye(d)
        err = max(err, float(np.abs(prod).max()), float(np.abs(unit).max()))
    return err


def schur_orthogonality_error(group, irreps):
    """Max deviation of (d/|G|) sum_g r1(g)_ij conj(r2(g)_kl) from deltas,
    summed in the dtype of the two stacks: float64 for two real ones."""
    N = group.order
    worst = 0.0
    for a, r1 in enumerate(irreps):
        for b, r2 in enumerate(irreps):
            M = np.einsum("gij,gkl->ikjl", r1.mats, r2.mats.conj()) / N
            if a == b:
                d = r1.degree
                expect = np.einsum("ik,jl->ikjl", np.eye(d), np.eye(d)) / d
                worst = max(worst, float(np.abs(M - expect).max()))
            else:
                worst = max(worst, float(np.abs(M).max()))
    return worst

"""Exact k-register Fourier sampling on coset states, and distance checks.

Conventions
-----------
* Hidden subgroups have order two: H = {e, h} with h an involution; the
  conjugate H^g = {e, ghg^{-1}} is parametrized by the class element
  c = ghg^{-1} (uniform g gives uniform c over the conjugacy class).
* A measurement setting is a tuple of k irreps (one per register) plus a
  frame on the product space.  On irrep rho the coset state's block is the
  rank-(d + chi(c))/2 projector (I + rho(c))/2 = W W^dagger, so an outcome
  probability is a weighted squared norm ||(x)_i W_i(c)^dagger b||^2.
* Distances between outcome distributions are reported both as the full
  l1 sum and as total variation (half the l1 sum).
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import util
from .fourier import factor_stack, qft, rank_r
from .frames import frame_bases, random_frame
from .groups import involution
from .util import (STEP_WORK, check_entry, kron_apply, kron_stack,
                   pairwise_sum, require)

# the rank-one screen differs from the exact einsum by ~1e-15; far below this
SCREEN_TOL = 1e-9
# rho(c) of an involution c: its eigenvalues' distance to +-1 and
# |rho(c) W - W| (numeric psl2:11 irreps reach 4e-15)
BASIS_TOL = 1e-9
# tuples, and frame vectors per tuple, that the lemma suite's second-moment
# and isotypic checks sample: each case is a sum over the group
LEMMA_SAMPLES = 3
# imaginary part of a value real in exact arithmetic: float noise is ~1e-15
REAL_TOL = 1e-8
# second-moment |class-avg - fourier|, averages of O(1) terms; its rhs
MOMENT_TOL = 1e-8
# how far an inequality's lhs may pass its rhs by float rounding alone
SLACK_TOL = 1e-9
# the strict x second moment < delta1: both sides are O(1) sums
DELTA1_TOL = 1e-12


# ---------------------------------------------------------------------------
# coset states and their Fourier form

def coset_state(group, h):
    """Density matrix (1/|G|) [y, z in the same left coset of {e, h}]."""
    hs = involution(group, h)
    N = group.order
    require(f"coset state of the {group.kind} group of order {N}",
            bytes=9 * N * N)  # a boolean and a float64 N x N matrix
    ids = np.arange(N)  # y is labelled by min(yH), the same on its coset
    coset = np.min([group.compose(ids, x) for x in hs], axis=0)
    return np.equal.outer(coset, coset) / N


def fourier_blocks(group, h, irreps):
    """Per-irrep weighted blocks of the Fourier-transformed coset state.

    The block for rho is (d/|G|) (conj(rho)(e) + conj(rho)(h)), carried
    with multiplicity d; its trace is the probability of observing rho.
    """
    N = group.order
    hs = involution(group, h)
    out = []
    for r in irreps:
        P = np.mean(r.mats[hs].conj(), axis=0)
        out.append({
            "label": r.label,
            "multiplicity": r.degree,
            "block": (len(hs) * r.degree / N) * P,
        })
    return out


def fourier_roundtrip_error(group, h, irreps):
    """Max deviation between F sigma F^dag and the block expansion."""
    N = group.order
    # F, sigma, F sigma, both sides and their difference: six N x N
    # matrices; two N x N x N products
    require(f"round-trip check on the {group.kind} group of order {N}",
            bytes=96 * N * N, work=2 * N ** 3)
    F = qft(group, irreps)
    sigma = coset_state(group, h)
    lhs = F @ sigma @ F.conj().T
    rhs = np.zeros((N, N), dtype=lhs.dtype)
    pos = 0
    for entry in fourier_blocks(group, h, irreps):
        d = entry["multiplicity"]
        for i in range(d):
            rhs[pos:pos + d, pos:pos + d] = entry["block"] / d
            pos += d
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# register tuples and frames

def frame_entries(order, k, kind="basis"):
    """Complex entries of the D x m frame vectors of all k-register tuples
    of a group of this order (m = D, or 2D fused; sum D^2 = |G|^k), known
    before any irrep is built; inf past the float range."""
    with np.errstate(over="ignore"):
        return frame_bases(kind) * np.float64(order) ** k


# Besides its frame, which LAPACK factors in place, a draw holds two blocks
# and its workspace: at D = 1000 its resident peak rose 1.30 (basis) and
# 2.30 (fused) times 16 D^2, 0.30 above the frame, and 0.17 at D = 1500
DRAW_MATRICES = 2


def require_tuples(r, k):
    """Refuse k registers over r irreps on their r^k tuples alone, 1 KB and
    a loop step each: the part of require_sampling that needs no degree."""
    with np.errstate(over="ignore"):  # past the float range an estimate is inf
        n = np.float64(r) ** k
    require(f"sampling k={k} registers over {r} irreps ({n:.4g} tuples)",
            bytes=1024 * n, work=STEP_WORK * n)


def require_sampling(labels, degrees, k, kind="basis", conjugates=0,
                     frames=1, steps=1):
    """Refuse a register space of k registers over the irreps with these
    labels and degrees, sampled on `frames` frame seeds, each evaluated at
    `conjugates` class elements, before a frame is drawn.

    A tuple holds about 1 KB of Python objects (cyclic:300 at k=2 peaked
    81 MB above cyclic:100), and so does an irrep, listed and with its +1
    eigenbasis (cyclic:50000 at k=1 peaked 1.19 KB per irrep and tuple
    above cyclic:2).  A space draws the frames of a batch of one shape in
    one stack, of several frames only within util.BLOCK_BYTES, and drops
    it for the next, so it is charged for the largest frame and its draw's
    DRAW_MATRICES transients.  A tuple costs `steps` loop steps (by default
    one, its draw) and one per evaluation.
    """
    degrees = np.array(degrees, dtype=float)
    big = int(np.argmax(degrees))
    lab = labels[big]
    largest = "|".join([lab] * k) if k <= 4 else f"{lab}|...|{lab}"
    vec = frame_entries(np.sum(degrees ** 2), k, kind)
    with np.errstate(over="ignore"):  # past the float range an estimate is inf
        n = np.float64(len(degrees)) ** k
        dim = degrees[big] ** k
        held = (frame_bases(kind) + DRAW_MATRICES) * dim * dim
        require(f"sampling k={k} registers over {len(degrees)} irreps "
                f"({n:.4g} tuples; largest tuple {largest} has dimension "
                f"{dim:.4g})", bytes=1024 * (n + len(degrees)) + 16 * held,
                work=frames * (STEP_WORK * n * (steps + conjugates)
                               + conjugates * vec * k * degrees[big]))


def require_lemmas(group, h, k, kind, labels, degrees, itemsizes):
    """Refuse lemma_suite on irreps of group with these labels and degrees,
    at the class of h, before any is built: a loop step per call its pass
    made for each tuple before batches shared them (the draw, 2^k - 1
    q-value blocks, projected_forms and the l1 row) and two per conjugate
    (its X moments), and the diagonal-overlap terms, per nonempty register
    subset and frame vector of a D-dimensional tuple a q-value pass of at
    most D k d_max multiply-adds per element, in blocks of BLOCK_BYTES.

    What the pass holds next to its tuples: each irrep's whole stack, read
    and kept, at its itemsize, a picked tuple's 2^k - 1 factor stacks of
    N D^2 entries, D the largest tuple's dimension, and at 16 bytes the
    characters, the r x N weights and the isotypic screen's (r, N, D)
    product (k=1 peaks above cyclic:10: cyclic:3700 841 MB against 880 MB,
    s7, in float64, 251 MB against 297 MB)."""
    c = len(group.class_of(h))
    require_sampling(labels, degrees, k, kind, c, steps=2 ** k + 2 + c)
    N, r, dmax = group.order, len(degrees), max(degrees)
    require(f"diagonal-overlap loop over k={k} registers of the "
            f"{group.kind} group of order {N}", work=(2 ** k - 1) * N
            * frame_entries(N, k, kind) * k * dmax)
    stacks = N * (sum(size * d * d for size, d in zip(itemsizes, degrees))
                  + (2 ** k - 1) * max(itemsizes) * dmax ** (2 * k))
    require(f"lemma suite's stacks, characters and isotypic screen over {r} "
            f"irreps of the {group.kind} group of order {N}",
            bytes=1024 * r ** k + stacks + 16 * N * r * (2 + dmax ** k))


def plus_bases(irreps, c):
    """(class_of(c), [W^dagger per irrep]): W (|class|, d, r) holds
    orthonormal bases of the +1 eigenspaces of rho(x) at each x of the class
    of the involution c, r = rank_r(rho, c), from one batched eigh per
    irrep, real when rho's stack is float64 or real there; checked:
    rho(x) W = W, r eigenvalues at +1 and the rest at -1.  Not kept: a
    RegisterSpace builds them once, for its command."""
    ranks = [rank_r(r, c) for r in irreps]
    group = irreps[0].group
    cls = group.class_of(c)
    at_cls = [r.at(cls) for r in irreps]
    real = [not np.any(M.imag) for M in at_cls]
    require(f"+1 eigenbases of {len(irreps)} irreps at {len(cls)} "
            "involutions", bytes=len(cls) * sum(r.degree * n * (
                8 if re else 16) for r, n, re in zip(irreps, ranks, real)))
    bases = []
    for r, M, n, re in zip(irreps, at_cls, ranks, real):
        lam, vec = np.linalg.eigh(M.real if re else M)
        W = vec[..., r.degree - n:]
        if (np.max(np.abs(np.abs(lam) - 1)) > BASIS_TOL
                or np.any(np.sum(lam > 0, axis=1) != n)
                or np.max(np.abs(M @ W - W), initial=0) > BASIS_TOL):
            raise ValueError(f"{r.label} at the class of {group.pretty(c)} "
                             f"has no rank-{n} +1 eigenspace")
        bases.append(np.ascontiguousarray(W.swapaxes(1, 2).conj()))
    return cls, bases


class RegisterSpace:
    """All k-tuples of irreps, sampled on the coset states of the conjugates
    of {e, h}: a command's one owner of per-tuple sampling state.  The +1
    eigenbases at the class of h (cls, bases), each tuple's rank and its
    reference outcome probability are built once; frames are seeded when
    drawn, so one space serves every frame seed, alone or stacked by
    shape."""

    def __init__(self, group, irreps, k, h, kind="basis"):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.irreps = list(irreps)
        self.degrees = [r.degree for r in self.irreps]
        require_sampling([r.label for r in self.irreps], self.degrees, k,
                         kind)
        self.group = group
        self.k = k
        self.kind = kind
        self.tuples = list(itertools.product(range(len(irreps)), repeat=k))
        self.dims = [math.prod(self.degrees[i] for i in t)
                     for t in self.tuples]
        bases = frame_bases(kind)  # bases*D vectors of weight 1/bases
        self.sizes = [bases * d for d in self.dims]
        self.weight = 1 / bases
        self.cls, self.bases = plus_bases(self.irreps, h)
        # per tuple: the product of its irreps' ranks (0 kills the tuple),
        # and each outcome's probability under the uniform state
        self.ranks = [math.prod(self.bases[i].shape[1] for i in t)
                      for t in self.tuples]
        self.ref = [self.plancherel(ti) * self.weight / d
                    for ti, d in enumerate(self.dims)]

    def label(self, ti):
        """Tuple ti's irrep labels, joined by '|'."""
        return "|".join(self.irreps[i].label for i in self.tuples[ti])

    def frame(self, ti, seed):
        """Tuple ti's frame, drawn from child ti of seed, bit for bit
        SeedSequence(seed).spawn(n)[ti], and not kept."""
        return next(self.draws([ti], seed))[1][0]

    def draws(self, tis, seed, rows=1):
        """(batch, stack of each tuple's frame(ti, seed)) for the tuples tis
        in batches of one shape, their irreps' degrees and dtypes, in order
        of each shape's first tuple: as many as keep `rows` copies of their
        frames, and their seeds (445 bytes, counted as 1 KB), within
        util.BLOCK_BYTES, else one.  The grouping holds 16 bytes a tuple."""
        keys, tis = {}, np.asarray(tis, dtype=np.int64)
        shape = np.fromiter((keys.setdefault(tuple(
            (self.degrees[i], self.irreps[i].dtype) for i in self.tuples[ti]),
            len(keys)) for ti in tis), dtype=np.int64, count=len(tis))
        ends = np.cumsum(np.bincount(shape)).tolist()
        tis = tis[np.argsort(shape, kind="stable")]
        for lo, hi in zip([0] + ends, ends):
            each = 16 * rows * self.dims[tis[lo]] * self.sizes[tis[lo]]
            step = max(1, util.BLOCK_BYTES // max(each, 1024))
            for at in range(lo, hi, step):
                batch = tis[at:min(at + step, hi)].tolist()
                yield batch, random_frame(self.dims[batch[0]], [
                    np.random.SeedSequence(seed, spawn_key=(ti,))
                    for ti in batch], self.kind)

    def plancherel(self, ti):
        """Probability of tuple ti under the uniform-state measurement."""
        N = self.group.order
        p = 1.0
        for i in self.tuples[ti]:
            p *= self.degrees[i] ** 2 / N
        return p

    def subgroup_prob(self, ti):
        """|H|^k d r / |G|^k for H of order two."""
        N = self.group.order
        d = self.dims[ti]
        return (2 ** self.k) * d * self.ranks[ti] / N ** self.k

    def projected_forms(self, ti, frame):
        """||(x)_i W_i(c)^dagger b||^2 = <b| (x)_i (I + rho_i(c))/2 |b> for
        every vector b of frame (ti's), one row per element c of cls, shape
        (|cls|, m); W_i(c) are the space's +1 eigenbases.

        The rows are taken in blocks of as many frame copies as fit
        util.BLOCK_BYTES; a block applies its stacked W^dagger with one
        Kronecker apply, over the frame viewed as float64 (D, 2m) when
        every W of the tuple is real.  Each row is real and non-negative by
        construction, and the same bits at any block size.
        """
        Wh = [self.bases[i] for i in self.tuples[ti]]
        V = frame.vectors
        vals = np.empty((len(Wh[0]), V.shape[1]))
        step = max(1, util.BLOCK_BYTES // V.nbytes)
        if all(w.dtype == np.float64 for w in Wh):
            V = V.view(np.float64)
        for lo in range(0, len(vals), step):
            Y = kron_apply([w[lo:lo + step] for w in Wh], V)
            Y = Y.view(np.float64)  # (re, im) pairs on either path
            sq = np.einsum("cim,cim->cm", Y, Y)
            vals[lo:lo + step] = sq[:, 0::2] + sq[:, 1::2]
        return vals


def tuple_distributions(space, ti, forms):
    """Outcome probabilities of tuple ti for the coset states of
    H^g = {e, c}, one row per class element c, from its projected forms
    there: all zeros at rank 0."""
    r = space.ranks[ti]
    if r == 0:
        return np.zeros(forms.shape)
    return space.subgroup_prob(ti) * space.weight * forms / r


def l1_rows(rows, ref):
    """The l1 distance of each row of a tuple's distributions from its
    reference outcome probability: that tuple's term of the full l1 sum."""
    return np.abs(rows - ref).sum(axis=1)


def avg_tv_over_conjugates(space, seed):
    """Distances to the uniform-state distribution on the frames of seed:
    the full l1 sum at each element of the space's class, and their mean.

    The average over the conjugacy class of h equals the average over a
    uniformly random conjugating element.  Each tuple gives its l1 terms
    at every conjugate at once; each conjugate's full l1 sum over all
    (tuple, outcome) pairs adds its terms pairwise in tuple order.
    """
    n = len(space.cls)
    rows = [None if r else l1_rows(np.zeros((n, m)), ref)  # no frame
            for r, m, ref in zip(space.ranks, space.sizes, space.ref)]
    for batch, frames in space.draws(np.flatnonzero(space.ranks), seed):
        for ti, f in zip(batch, frames):
            rows[ti] = l1_rows(tuple_distributions(
                space, ti, space.projected_forms(ti, f)), space.ref[ti])
    l1s = pairwise_sum(rows).tolist()
    avg_l1 = pairwise_sum(l1s) / n
    return {
        "l1": l1s,
        "avg_l1": avg_l1,
        "avg_tv": 0.5 * avg_l1,
        "max_tv": 0.5 * max(l1s),
    }


# ---------------------------------------------------------------------------
# the X deviation and its second moment

def _quadforms(stacks, b, subsets):
    """Yield (s, q_s), s in subsets (sorted tuples), in lexicographic order:
    q_s[t, j, g] = <b_tj| (x)_{i in s} stacks[i][t, g] |b_tj> (identity off
    s) for tuple t's stacks (T, N, d_i, d_i) and columns of b (T, D, m).
    Each apply extends its prefix's by one einsum, depth first, so at most
    k are alive, and q_s is bit for bit its own einsum chain from b."""
    k = len(stacks)
    T, N = stacks[0].shape[:2]
    m = b.shape[-1]
    bt = np.ascontiguousarray(b.transpose(0, 2, 1)).reshape(
        T, m, *(S.shape[-1] for S in stacks))
    lead, axes = [k + 3, k + 2], list(range(1, k + 1))  # tuples, vectors
    chain = [np.broadcast_to(bt[:, :, None], (T, m, N, *bt.shape[2:]))]
    for s in sorted({s[:n] for s in subsets for n in range(1, len(s) + 1)}):
        del chain[len(s):]  # chain[n] is the apply of s[:n]
        i = s[-1]
        out = [k + 1 if a == i + 1 else a for a in axes]
        chain.append(np.einsum(stacks[i], [k + 3, 0, k + 1, i + 1], chain[-1],
                               lead + [0] + axes, lead + [0] + out))
        if s in subsets:
            yield s, np.ascontiguousarray(np.einsum(
                chain[-1], lead + [0] + axes, bt.conj(), lead + axes,
                lead + [0]))


def _tuple_values(stacks, b, subset):
    """q of one subset on one tuple's stacks (N, d_i, d_i), (N,) or (m, N)."""
    b = np.asarray(b, dtype=np.complex128)
    ((_, q),) = _quadforms([S[None] for S in stacks],
                           b.reshape(1, len(b), -1), [subset])
    return q[0] if b.ndim == 2 else q[0, 0]


def q_subset_values(irreps, tup, b, subset):
    """q_I(g) = <b| rho^I(g) |b> for all g, identity on registers outside I.

    b is a vector (D,) or a block (D, m) of frame vectors; a block gives
    one row per vector, each equal to its single-vector call bit for bit.
    """
    subset = tuple(sorted(set(subset)))
    if not subset:
        raise ValueError("subset must be nonempty")
    return _tuple_values([irreps[i].mats for i in tup], b, subset)


def q_total_values(irreps, tup, b):
    """Q(g) = <b| (x)_i (I + rho_i(g)) |b> - 1 for all g."""
    stacks = [r.mats + np.eye(r.degree) for r in (irreps[i] for i in tup)]
    return _tuple_values(stacks, b, tuple(range(len(tup)))) - 1.0


def second_moment_check(group, irreps, tup, b, h):
    """Class-average of X^2 versus its character-weighted Fourier form.

    Returns (lhs, rhs): lhs averages X^2 over the conjugacy class of h;
    rhs is 4^{-k} sum_tau chi_tau(h) E_g[conj(chi_tau(g)) Q(g)^2].
    """
    k = len(tup)
    cls = list(group.class_of(h))
    Q = q_total_values(irreps, tup, b)
    Qc = Q[cls]
    if np.max(np.abs(Qc.imag)) > REAL_TOL:
        raise ValueError("Q is not real on the conjugacy class")
    X = Qc.real / 2 ** k
    lhs = float(np.mean(X ** 2))
    rhs = 0.0 + 0.0j
    Q2 = Q * Q
    for tau in irreps:
        chi = tau.character()
        chi_h = chi[h]
        rhs += chi_h * np.mean(chi.conj() * Q2)
    rhs /= 4 ** k
    if abs(rhs.imag) > REAL_TOL:
        raise ValueError("Fourier side of the identity is not real")
    return lhs, float(rhs.real)


# ---------------------------------------------------------------------------
# bound suite on simulated quantities

def _spectral_sets(irreps, h, eps):
    """(S_eps labels, D_eps, sum of d|chi(h)| over S_eps, sum of all degrees)."""
    s_labels = []
    d_eps = 0
    sum_dchi = 0.0
    sum_d = 0
    for tau in irreps:
        chi_h = tau.character()[h]
        if abs(chi_h.imag) > REAL_TOL:
            raise ValueError(f"character of {tau.label} not real at h")
        a = abs(chi_h.real)
        sum_d += tau.degree
        if a / tau.degree >= eps:
            s_labels.append(tau.label)
            d_eps += tau.degree ** 2
            sum_dchi += tau.degree * a
    return s_labels, d_eps, sum_dchi, sum_d


def _isotypic_screen(weights, a1, a2):
    """sum_ij |y_tau|^2 for every tau, y_tau = sum_g weights[tau, g]
    a1[g] a2[g]^T (the rank-one form of the isotypic projection), as one
    batched matmul: the screen only picks the cases for the exact re-check,
    so its summation order does not matter."""
    y = (weights[:, :, None] * a1[None]).transpose(0, 2, 1) @ a2
    return np.sum(np.abs(y) ** 2, axis=(1, 2))


def lemma_suite(group, irreps, h, k, eps, seed=0, kind="basis"):
    """Numerical check of the bound chain behind the distance theorem.

    Exact expectations over tuples, frame outcomes, and group elements;
    a small deterministic sample for the per-vector projector inequality
    and the second-moment identity. Returns one util.check_entry per check,
    {check, status, lhs, rhs, detail}; the distance check is a WARN with
    no lhs or rhs when its hypothesis 2 k eps < 1 fails.  Each detail names
    the check's tightest case, found by one max (the second moment's error)
    or min (the others' slack rhs - lhs) over its cases in enumeration
    order, so the first of tied cases is named.

    Each frame is drawn when it is used and dropped after: each picked
    tuple's once for the sampled checks, whose vectors are chosen first,
    then every tuple's once, stacked by shape (RegisterSpace.draws at |G|
    copies), for the diagonal-overlap terms, one _quadforms chain over the
    subsets per stack, and for the projected forms, computed once per tuple
    at every conjugate, which serve both the X moments and the distance
    check.  Results are kept at each tuple's index, summed in tuple order.

    The isotypic check screens every case with the rank-one form
    y_tau = (d_tau/N) sum_g conj(chi_tau(g)) (A_g b)(B_g b)^T, batched over
    tau, then re-evaluates the exact 4-operand einsum for each case whose
    screened slack is within 2 SCREEN_TOL (1 + s) of the running screened
    minimum, s the largest |rhs| or screened lhs so far, and takes the min
    over those. Many cases tie exactly, and float noise in the screen would
    pick which one is named; the re-check makes the reported case and
    numbers the exact argmin's.
    """
    N = group.order
    require_lemmas(group, h, k, kind, [r.label for r in irreps],
                   [r.degree for r in irreps],
                   [r.dtype.itemsize for r in irreps])
    space = RegisterSpace(group, irreps, k, h, kind=kind)
    s_labels, d_eps, sum_dchi, sum_d = _spectral_sets(irreps, h, eps)
    delta1 = eps + sum_d * sum_dchi / N
    entries = []
    rng = np.random.default_rng(seed + 987654321)

    # --- the second-moment identity and the isotypic-projector bound on
    # sampled (tuple, vector) pairs: the picks, then each check's vectors
    picks = rng.choice(len(space.tuples),
                       size=min(LEMMA_SAMPLES, len(space.tuples)),
                       replace=False)
    cols = [[rng.choice(space.sizes[ti],
                        size=min(LEMMA_SAMPLES, space.sizes[ti]),
                        replace=False) for ti in picks] for _ in range(2)]
    errors = []  # (|lhs - rhs|, tuple label), in enumeration order
    exact = []  # (slack, case, lhs, rhs) of each re-checked case, in order
    subsets = [s for r in range(1, k + 1)
               for s in itertools.combinations(range(k), r)]
    # one r x N array, filled in place: a list of rows would be freed
    # into the heap and stay resident under the screen's product
    weights = np.array([tau.character() for tau in irreps])
    np.conjugate(weights, out=weights)
    weights *= np.array([tau.degree / N for tau in irreps])[:, None]
    screen_min, screen_size = np.inf, 0.0
    for ti, moment_cols, iso_cols in zip(picks, *cols):
        tup = space.tuples[ti]
        f = space.frame(ti, seed)
        for bi in moment_cols:
            lhs, rhs = second_moment_check(group, irreps, tup,
                                           f.vectors[:, bi], h)
            errors.append((abs(lhs - rhs), space.label(ti)))
        stacks = {}
        for s in subsets:
            factors = [irreps[i] if pos in s else irreps[i].degree
                       for pos, i in enumerate(tup)]
            stacks[s] = factor_stack(group, factors)
        cases = []  # (screened slack, rhs, b, s1, s2, tau), enumeration order
        for bi in iso_cols:
            b = f.vectors[:, bi]
            qmean = {s: float(np.mean(np.abs(
                np.einsum("i,gij,j->g", b.conj(), stacks[s], b)) ** 2))
                for s in subsets}
            Ab = {s: stacks[s] @ b for s in subsets}
            for s1 in subsets:
                for s2 in subsets:
                    lhs = _isotypic_screen(weights, Ab[s1], Ab[s2])
                    for t, tau in enumerate(irreps):
                        rhs = (tau.degree ** 2 / 2) * (qmean[s1] + qmean[s2])
                        cases.append((rhs - lhs[t], rhs, b, s1, s2, tau))
                        screen_size = max(screen_size, abs(rhs), lhs[t])
        screen_min = min(screen_min, min(c[0] for c in cases))
        window = 2 * SCREEN_TOL * (1 + screen_size)
        for slack, rhs, b, s1, s2, tau in cases:
            if slack > screen_min + window:
                continue
            W = np.outer(b, b)
            y = (tau.degree / N) * np.einsum(
                "g,gik,kl,gjl->ij", tau.character().conj(), stacks[s1], W,
                stacks[s2])
            lhs = float(np.sum(np.abs(y) ** 2))
            exact.append((rhs - lhs, (space.label(ti), s1, s2, tau.label),
                          lhs, rhs))
    err, label = max(errors, key=lambda e: e[0])
    entries.append(check_entry(
        "second-moment identity", err <= MOMENT_TOL, lhs=err, rhs=MOMENT_TOL,
        detail=f"worst |class-avg - fourier| at tuple {label}"))
    slack, case, lhs, rhs = min(exact, key=lambda e: e[0])
    entries.append(check_entry(
        "isotypic projection bound", slack >= -SLACK_TOL, lhs=lhs, rhs=rhs,
        detail=f"tightest case {case}"))
    del f, b, cases  # the last picked frame and views of it

    # --- one pass over the tuples, each frame drawn once: the averaged
    # diagonal-overlap terms per nonempty register subset, and the X
    # moments and per-conjugate distances from one set of forms
    n = len(space.tuples)
    planch = [space.plancherel(ti) for ti in range(n)]
    overlap = {s: [None] * n for s in subsets}
    per_tuple = [None] * n
    for batch, frames in space.draws(range(n), seed, N):
        mats = [[irreps[space.tuples[ti][i]].mats for ti in batch]
                for i in range(k)]
        stacks = [np.stack(m) if len(m) > 1 else m[0][None] for m in mats]
        wd = frames.weights / space.dims[batch[0]]
        step = max(1, util.BLOCK_BYTES // (16 * N * space.dims[batch[0]]))
        per_b = {s: [] for s in subsets}  # vector blocks, for a batch of one
        for lo in range(0, wd.size, step):
            for s, q in _quadforms(stacks, frames.vectors[..., lo:lo + step],
                                   subsets):
                per_b[s].append(wd[lo:lo + step]
                                * np.mean(np.abs(q) ** 2, axis=2))
        per_b = {s: np.hstack(v).tolist() for s, v in per_b.items()}
        for j, (ti, f) in enumerate(zip(batch, frames)):
            for s in subsets:
                overlap[s][ti] = planch[ti] * pairwise_sum(per_b[s][j])
            forms = space.projected_forms(ti, f)
            X = forms - 0.5 ** k
            per_tuple[ti] = (
                np.array([float(np.dot(wd, x)) for x in X ** 2]),
                np.array([float(np.dot(wd, x)) for x in np.abs(X)]),
                l1_rows(tuple_distributions(space, ti, forms), space.ref[ti]))
    rhs = sum_d / N
    lhs, s = min(((pairwise_sum(overlap[s]), s) for s in subsets),
                 key=lambda e: rhs - e[0])
    entries.append(check_entry(
        "diagonal overlap bound", rhs - lhs >= -SLACK_TOL, lhs=lhs, rhs=rhs,
        detail=f"tightest register subset {s}"))

    planch = np.array(planch)
    xsq_mat = np.array([t[0] for t in per_tuple])   # (tuple, conjugate)
    xabs_mat = np.array([t[1] for t in per_tuple])
    lhs_delta1 = float(np.mean(planch @ xsq_mat))
    entries.append(check_entry(
        "x second moment below delta1", lhs_delta1 < delta1 + DELTA1_TOL,
        lhs=lhs_delta1, rhs=delta1, detail=f"S_eps={s_labels}, D_eps={d_eps}"))

    if 2 * k * eps >= 1:
        entries.append(check_entry(
            "distance against x first moment", None,
            detail=f"hypothesis 2*k*eps < 1 fails (2*{k}*{eps} >= 1)"))
    else:
        mu = planch @ xabs_mat                      # per-conjugate first moment
        l1s = pairwise_sum([t[2] for t in per_tuple]).tolist()
        lhs, rhs, c = min(
            ((l1, 2 ** k * (1 + 2 * k * eps) * float(m)
              + 3 * k * eps + 3 * k * d_eps / N, c)
             for l1, m, c in zip(l1s, mu, space.cls)),
            key=lambda e: e[1] - e[0])
        entries.append(check_entry(
            "distance against x first moment", rhs - lhs >= -SLACK_TOL,
            lhs=lhs, rhs=rhs, detail=f"tightest conjugate {group.pretty(c)}"))
    return entries


# ---------------------------------------------------------------------------
# multi-copy mixture of conjugate coset states

def require_mixed(order, degrees, conjugates, t):
    """Refuse mixed_conjugate_trace_distance on a listing: per tuple a loop
    step, conjugates D^2 for the Kronecker stack (sum D^2 = |G|^t) and D^3
    for eigvalsh; the largest stack and its last product."""
    degrees = np.array(degrees, dtype=float)
    with np.errstate(over="ignore"):  # past the float range an estimate is inf
        dmax = degrees.max() ** t
        require(f"t={t} mixed-state distance over {len(degrees)} irreps",
                bytes=32 * conjugates * dmax * dmax,
                work=STEP_WORK * np.float64(len(degrees)) ** t
                + conjugates * np.float64(order) ** t
                + np.sum(degrees ** 3) ** t)


def mixed_conjugate_trace_distance(group, irreps, h, t):
    """Trace distance between the conjugate-averaged t-fold coset state
    and the t-fold uniform state.

    Block form: (1/|G|^t) sum over t-tuples of d_rho times the trace norm
    of E_{x in class}[(x)_i (I + rho_i(x))] - I.  Permuting the registers
    conjugates that matrix by a permutation, so each multiset of irreps is
    solved once and weighted by its count of orderings.
    """
    N = group.order
    cls = list(group.class_of(h))
    require_mixed(N, [r.degree for r in irreps], len(cls), t)
    stacks = [r.at(cls) + np.eye(r.degree) for r in irreps]
    contrib = []
    for tup in itertools.combinations_with_replacement(range(len(irreps)), t):
        acc = functools.reduce(kron_stack, [stacks[i] for i in tup])
        M = acc.mean(axis=0) - np.eye(acc.shape[1])
        tn = float(np.sum(np.abs(np.linalg.eigvalsh(M))))
        orders = math.factorial(t) // math.prod(
            math.factorial(tup.count(i)) for i in set(tup))
        contrib.append(orders * acc.shape[1] * tn)
    return pairwise_sum(contrib) / N ** t

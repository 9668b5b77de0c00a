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

from .fourier import factor_stack, qft, rank_r
from .frames import random_frame
from .groups import Subgroup, order_two_subgroup
from .util import STEP_WORK, kron_apply, kron_stack, pairwise_sum, require

# the rank-one screen differs from the exact einsum by ~1e-15; far below this
SCREEN_TOL = 1e-9
# complex entries per batched block (1 MiB): batching moves no refusal
BLOCK_ENTRIES = 1 << 16
# rho(c) of an involution c: its eigenvalues' distance to +-1 and
# |rho(c) W - W| (numeric psl2:11 irreps reach 4e-15)
BASIS_TOL = 1e-9


# ---------------------------------------------------------------------------
# coset states and their Fourier form

def coset_state(group, H):
    """Density matrix (1/|G|) [y, z in the same left coset of H]."""
    N = group.order
    require(f"coset state of the {group.kind} group of order {N}",
            bytes=9 * N * N)  # a boolean and a float64 N x N matrix
    ids = np.arange(N)  # y is labelled by min(yH), the same on its coset
    coset = np.min([group.compose(ids, h) for h in H.elements], axis=0)
    return np.equal.outer(coset, coset) / N


def fourier_blocks(group, H, irreps):
    """Per-irrep weighted blocks of the Fourier-transformed coset state.

    The block for rho is (|H| d/|G|) conj(rho)(H), carried with
    multiplicity d; its trace is the probability of observing rho.
    """
    N = group.order
    hs = list(H.elements)
    out = []
    for r in irreps:
        P = np.mean(r.mats[hs].conj(), axis=0)
        out.append({
            "label": r.label,
            "multiplicity": r.degree,
            "block": (len(hs) * r.degree / N) * P,
        })
    return out


def fourier_roundtrip_error(group, H, irreps):
    """Max deviation between F sigma F^dag and the block expansion."""
    N = group.order
    # F, sigma, F sigma, both sides and their difference: six N x N
    # matrices; two N x N x N products
    require(f"round-trip check on the {group.kind} group of order {N}",
            bytes=96 * N * N, work=2 * N ** 3)
    F = qft(group, irreps)
    sigma = coset_state(group, H)
    lhs = F @ sigma @ F.conj().T
    rhs = np.zeros((N, N), dtype=np.complex128)
    pos = 0
    for entry in fourier_blocks(group, H, irreps):
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
        return (2 if kind == "fused" else 1) * np.float64(order) ** k


def require_sampling(labels, degrees, k, kind="basis", conjugates=0,
                     frames=1):
    """Refuse `frames` register spaces of k registers over the irreps with
    these labels and degrees, each evaluated at `conjugates` class
    elements, before a frame is drawn.

    A tuple holds about 1 KB of Python objects (cyclic:300 at k=2 peaked
    81 MB above cyclic:100) and its frame vectors.  Drawing a frame and
    each evaluation are steps.
    """
    degrees = np.array(degrees, dtype=float)
    big = int(np.argmax(degrees))
    lab = labels[big]
    largest = "|".join([lab] * k) if k <= 4 else f"{lab}|...|{lab}"
    vec = frame_entries(np.sum(degrees ** 2), k, kind)
    with np.errstate(over="ignore"):  # past the float range an estimate is inf
        n = np.float64(len(degrees)) ** k
        require(f"sampling k={k} registers over {len(degrees)} irreps "
                f"({n:.4g} tuples; largest tuple {largest} has dimension "
                f"{degrees[big] ** k:.4g})", bytes=1024 * n + 16 * vec,
                work=frames * (STEP_WORK * n * (1 + conjugates)
                               + conjugates * vec * k * degrees[big]))


def plus_bases(irreps, c):
    """({class element: row}, [W^dagger per irrep]): W (|class|, d, r) holds
    orthonormal bases of the +1 eigenspaces of rho(x) over the class of the
    involution c, r = (d + chi(c))/2.  Built once per irrep and class and
    kept on the irrep (Irrep.plus_bases), so all tuples and spaces share it."""
    todo = [r for r in irreps if c not in r.plus_bases]
    if todo:
        _store_plus_bases(todo, c)
    return irreps[0].plus_bases[c][0], [r.plus_bases[c][1] for r in irreps]


def _store_plus_bases(irreps, c):
    """One batched eigh per irrep over the class of c, real when rho is real
    there; checked: rho(x) W = W, r eigenvalues at +1 and the rest at -1."""
    group = irreps[0].group
    if group.compose(c, c) != group.identity:
        raise ValueError(f"class element {group.pretty(c)} is not an "
                         "involution")
    cls = group.class_of(c)
    rows = {x: i for i, x in enumerate(cls)}
    ranks = [round((r.degree + r.character()[c].real) / 2) for r in irreps]
    real = [not np.any(r.mats[list(cls)].imag) for r in irreps]
    require(f"+1 eigenbases of {len(irreps)} irreps at {len(cls)} "
            "involutions", bytes=len(cls) * sum(r.degree * n * (
                8 if re else 16) for r, n, re in zip(irreps, ranks, real)))
    for r, n, re in zip(irreps, ranks, real):
        M = r.mats[list(cls)]
        lam, vec = np.linalg.eigh(M.real if re else M)
        W = vec[..., r.degree - n:]
        if (np.max(np.abs(np.abs(lam) - 1)) > BASIS_TOL
                or np.any(np.sum(lam > 0, axis=1) != n)
                or np.max(np.abs(M @ W - W), initial=0) > BASIS_TOL):
            raise ValueError(f"{r.label} at the class of {group.pretty(c)} "
                             f"has no rank-{n} +1 eigenspace")
        Wh = np.ascontiguousarray(W.swapaxes(1, 2).conj())
        r.plus_bases.update(dict.fromkeys(cls, (rows, Wh)))


class RegisterSpace:
    """All k-tuples of irreps with a deterministic frame per tuple."""

    def __init__(self, group, irreps, k, seed=0, kind="basis"):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.irreps = list(irreps)
        self.degrees = [r.degree for r in self.irreps]
        require_sampling([r.label for r in self.irreps], self.degrees, k,
                         kind)
        self.group = group
        self.k = k
        self.kind = kind
        self.seed = seed
        self.tuples = list(itertools.product(range(len(irreps)), repeat=k))
        self.dims = [int(np.prod([self.degrees[i] for i in t]))
                     for t in self.tuples]
        self.labels = ["|".join(self.irreps[i].label for i in t)
                       for t in self.tuples]
        children = np.random.SeedSequence(seed).spawn(len(self.tuples))
        self.frames = [random_frame(d, s, kind)
                       for d, s in zip(self.dims, children)]

    def plancherel(self, ti):
        """Probability of tuple ti under the uniform-state measurement."""
        N = self.group.order
        p = 1.0
        for i in self.tuples[ti]:
            p *= self.degrees[i] ** 2 / N
        return p

    def tuple_ranks(self, H):
        """Per-tuple product of subgroup-average ranks (0 kills the tuple)."""
        per_irrep = [rank_r(r, H) for r in self.irreps]
        return [int(np.prod([per_irrep[i] for i in t])) for t in self.tuples]

    def subgroup_prob(self, ti, ranks):
        """|H|^k d r / |G|^k for H of order two."""
        N = self.group.order
        d = self.dims[ti]
        return (2 ** self.k) * d * ranks[ti] / N ** self.k

    def projected_forms(self, ti, c):
        """||(x)_i W_i(c)^dagger b||^2 = <b| (x)_i (I + rho_i(c))/2 |b> for
        every frame vector b, W_i(c) the +1 eigenbases of plus_bases.

        c is one involution, giving shape (m,), or a sequence of elements
        of its class, giving one row per element, shape (len(c), m).  The
        elements are taken in blocks of at most BLOCK_ENTRIES entries of
        the frame; a block applies its stacked W^dagger with one Kronecker
        apply, over the frame viewed as float64 (D, 2m) when every W of
        the tuple is real.  Every row equals the single-element call bit
        for bit, and is real and non-negative by construction.
        """
        cs = np.atleast_1d(c).tolist()
        rows, bases = plus_bases(self.irreps, cs[0])
        if not set(cs) <= rows.keys():
            raise ValueError("class elements must share one class")
        pos = np.array([rows[x] for x in cs])
        Wh = [bases[i] for i in self.tuples[ti]]
        V = self.frames[ti].vectors
        vals = np.empty((len(cs), V.shape[1]))
        step = max(1, BLOCK_ENTRIES // V.size)
        if all(w.dtype == np.float64 for w in Wh):
            V = V.view(np.float64)
        for lo in range(0, len(cs), step):
            Y = kron_apply([w[pos[lo:lo + step]] for w in Wh], V)
            Y = Y.view(np.float64)  # (re, im) pairs on either path
            sq = np.einsum("cim,cim->cm", Y, Y)
            vals[lo:lo + step] = sq[:, 0::2] + sq[:, 1::2]
        return vals if np.ndim(c) else vals[0]


def reference_distribution(space):
    """Joint outcome probabilities for the uniform (trivial-subgroup) state."""
    out = []
    for ti in range(len(space.tuples)):
        f = space.frames[ti]
        out.append(space.plancherel(ti) * f.weights / space.dims[ti])
    return out


def tuple_distributions(space, ti, cs, ranks, forms=None):
    """Outcome probabilities of tuple ti for the coset states of
    H^g = {e, c}, one row per class element c of cs; forms, if given, are
    space.projected_forms(ti, cs)."""
    r = ranks[ti]
    f = space.frames[ti]
    if r == 0:
        return np.zeros((len(cs), f.size))
    if forms is None:
        forms = space.projected_forms(ti, cs)
    return space.subgroup_prob(ti, ranks) * f.weights * forms / r


def coset_distribution(space, c, ranks=None):
    """Joint outcome probabilities for the coset state of H^g = {e, c}."""
    if ranks is None:
        ranks = space.tuple_ranks(order_two_subgroup(space.group, c))
    return [tuple_distributions(space, ti, [c], ranks)[0]
            for ti in range(len(space.tuples))]


def l1_distance(dist_a, dist_b):
    """Full l1 sum over all (tuple, outcome) pairs."""
    per_tuple = [float(np.sum(np.abs(a - b)))
                 for a, b in zip(dist_a, dist_b)]
    return pairwise_sum(per_tuple)


def l1_rows(rows, ref):
    """The per-tuple term of l1_distance for each row of a tuple's
    distributions against its reference outcomes, bit for bit."""
    return np.sum(np.abs(rows - ref), axis=1)


def avg_tv_over_conjugates(space, h):
    """Distances to the uniform-state distribution, per conjugate and mean.

    The average over the conjugacy class of h equals the average over a
    uniformly random conjugating element.  Each tuple gives its l1 terms
    at every conjugate at once; each conjugate's l1 sums its terms over
    the tuples in tuple order, as l1_distance does.
    """
    group = space.group
    H = order_two_subgroup(group, h)
    ranks = space.tuple_ranks(H)  # ranks are conjugation-invariant
    ref = reference_distribution(space)
    cls = list(group.class_of(h))

    rows = [l1_rows(tuple_distributions(space, ti, cls, ranks), ref[ti])
            for ti in range(len(space.tuples))]
    l1s = pairwise_sum(rows).tolist()
    per_conj = [{"element": group.pretty(c), "l1": v, "tv": 0.5 * v}
                for c, v in zip(cls, l1s)]
    avg_l1 = pairwise_sum(l1s) / len(cls)
    return {
        "per_conjugate": per_conj,
        "avg_l1": avg_l1,
        "avg_tv": 0.5 * avg_l1,
        "max_tv": 0.5 * max(l1s),
    }


# ---------------------------------------------------------------------------
# the X deviation and its second moment

def _quadforms_all(stacks, dims, b):
    """<b| (x)_i A_i(g) |b> for all g; axis i uses stacks[i] or identity.

    b is one vector (D,), giving shape (N,), or a block (D, m) of them,
    giving one contiguous row per column, shape (m, N).
    """
    k = len(dims)
    N = next(s.shape[0] for s in stacks.values())
    b = np.asarray(b, dtype=np.complex128)
    lead = b.shape[1:]
    bt = np.ascontiguousarray(b.T).reshape(*lead, *dims)
    blk = [k + 2] * len(lead)  # the block axis, outermost
    cur = np.broadcast_to(np.expand_dims(bt, len(lead)), (*lead, N, *dims))
    axes = [a + 1 for a in range(k)]
    for i, S in sorted(stacks.items()):
        op_axes = [0, k + 1, i + 1]
        out_axes = [0] + [(k + 1 if a == i else a + 1) for a in range(k)]
        cur = np.einsum(S, op_axes, cur, blk + [0] + axes, blk + out_axes)
    return np.ascontiguousarray(
        np.einsum(cur, blk + [0] + axes, bt.conj(), blk + axes, blk + [0]))


def _tuple_mats(irreps, tup):
    return [irreps[i].mats for i in tup]


def q_subset_values(irreps, tup, b, subset):
    """q_I(g) = <b| rho^I(g) |b> for all g, identity on registers outside I.

    b is a vector (D,) or a block (D, m) of frame vectors; a block gives
    one row per vector, each equal to its single-vector call bit for bit.
    """
    mats = _tuple_mats(irreps, tup)
    dims = tuple(m.shape[1] for m in mats)
    stacks = {i: mats[i] for i in subset}
    if not stacks:
        raise ValueError("subset must be nonempty")
    return _quadforms_all(stacks, dims, b)


def q_total_values(irreps, tup, b):
    """Q(g) = <b| (x)_i (I + rho_i(g)) |b> - 1 for all g."""
    mats = _tuple_mats(irreps, tup)
    dims = tuple(m.shape[1] for m in mats)
    stacks = {i: m + np.eye(m.shape[1]) for i, m in enumerate(mats)}
    return _quadforms_all(stacks, dims, b) - 1.0


def second_moment_check(group, irreps, tup, b, h):
    """Class-average of X^2 versus its character-weighted Fourier form.

    Returns (lhs, rhs): lhs averages X^2 over the conjugacy class of h;
    rhs is 4^{-k} sum_tau chi_tau(h) E_g[conj(chi_tau(g)) Q(g)^2].
    """
    k = len(tup)
    cls = list(group.class_of(h))
    Q = q_total_values(irreps, tup, b)
    Qc = Q[cls]
    if np.max(np.abs(Qc.imag)) > 1e-8:
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
    if abs(rhs.imag) > 1e-8:
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
        if abs(chi_h.imag) > 1e-8:
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
    a1[g] a2[g]^T (the rank-one form of the isotypic projection)."""
    y = np.einsum("tg,gi,gj->tij", weights, a1, a2, optimize=True)
    return np.sum(np.abs(y) ** 2, axis=(1, 2))


def lemma_suite(group, irreps, h, k, eps, seed=0, kind="basis",
                n_sample_tuples=3, n_sample_vectors=3):
    """Numerical check of the bound chain behind the distance theorem.

    Exact expectations over tuples, frame outcomes, and group elements;
    a small deterministic sample for the per-vector projector inequality
    and the second-moment identity. Returns one entry per check.

    The projected forms of each tuple are computed once per (tuple, class
    block), and serve both the X moments and the distance check, whose l1
    terms come from the same forms.  The diagonal-overlap loop takes each
    tuple's frame vectors in blocks of BLOCK_ENTRIES.

    The isotypic check screens every case with the rank-one form
    y_tau = (d_tau/N) sum_g conj(chi_tau(g)) (A_g b)(B_g b)^T, batched over
    tau, then re-evaluates the exact 4-operand einsum, in enumeration order
    with a strict '<', for each case whose screened slack is within
    2 SCREEN_TOL (1 + s) of the running screened minimum, s the largest
    |rhs| or screened lhs so far. Many cases tie exactly, and float noise
    in the screen would pick which one is named; the re-check makes the
    reported case and numbers the exact argmin's.
    """
    N = group.order
    cls = list(group.class_of(h))
    degrees = [r.degree for r in irreps]
    require_sampling([r.label for r in irreps], degrees, k, kind,
                     conjugates=len(cls))
    # the diagonal-overlap loop: per nonempty register subset and frame
    # vector of a D-dimensional tuple, a q_subset_values pass over the
    # group of at most D k d_max multiply-adds per element; the vectors go
    # in blocks of BLOCK_ENTRIES, so the loop holds no more than that
    require(f"diagonal-overlap loop over k={k} registers of the "
            f"{group.kind} group of order {N}", work=(2 ** k - 1) * N
            * frame_entries(N, k, kind) * k * max(degrees))
    space = RegisterSpace(group, irreps, k, seed=seed, kind=kind)
    H = order_two_subgroup(group, h)
    ranks = space.tuple_ranks(H)
    s_labels, d_eps, sum_dchi, sum_d = _spectral_sets(irreps, h, eps)
    delta1 = eps + sum_d * sum_dchi / N
    entries = []
    rng = np.random.default_rng(seed + 987654321)

    # --- second-moment identity on sampled (tuple, vector) pairs
    worst = (-1.0, None)  # below any error, so the first case is named
    picks = rng.choice(len(space.tuples),
                       size=min(n_sample_tuples, len(space.tuples)),
                       replace=False)
    for ti in picks:
        f = space.frames[ti]
        cols = rng.choice(f.size, size=min(n_sample_vectors, f.size),
                          replace=False)
        for bi in cols:
            lhs, rhs = second_moment_check(group, irreps, space.tuples[ti],
                                           f.vectors[:, bi], h)
            err = abs(lhs - rhs)
            if err > worst[0]:
                worst = (err, space.labels[ti])
    entries.append({
        "check": "second-moment identity",
        "lhs": worst[0], "rhs": 1e-8, "slack": 1e-8 - worst[0],
        "detail": f"worst |class-avg - fourier| at tuple {worst[1]}",
        "pass": bool(worst[0] <= 1e-8),
    })

    # --- isotypic-projector bound on sampled (tuple, vector) pairs
    worst = (np.inf, None)
    subsets = [s for r in range(1, k + 1)
               for s in itertools.combinations(range(k), r)]
    weights = np.array([(tau.degree / N) * tau.character().conj()
                        for tau in irreps])
    screen_min, screen_size = np.inf, 0.0
    for ti in picks:
        tup = space.tuples[ti]
        f = space.frames[ti]
        stacks = {}
        for s in subsets:
            factors = [irreps[i] if pos in s else irreps[i].degree
                       for pos, i in enumerate(tup)]
            stacks[s] = factor_stack(group, factors)
        cols = rng.choice(f.size, size=min(n_sample_vectors, f.size),
                          replace=False)
        cases = []  # (screened slack, rhs, b, s1, s2, tau), enumeration order
        for bi in cols:
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
            if rhs - lhs < worst[0]:
                worst = (rhs - lhs, (space.labels[ti], s1, s2, tau.label),
                         lhs, rhs)
    entries.append({
        "check": "isotypic projection bound",
        "lhs": worst[2], "rhs": worst[3], "slack": worst[0],
        "detail": f"tightest case {worst[1]}",
        "pass": bool(worst[0] >= -1e-9),
    })

    # --- averaged diagonal-overlap bound, per nonempty register subset
    rhs_mub = sum_d / N
    worst = (np.inf, None)
    for s in subsets:
        contrib = []
        for ti in range(len(space.tuples)):
            f = space.frames[ti]
            step = max(1, BLOCK_ENTRIES // (N * space.dims[ti]))
            per_b = []
            for lo in range(0, f.size, step):
                q = q_subset_values(irreps, space.tuples[ti],
                                    f.vectors[:, lo:lo + step], s)
                per_b += (f.weights[lo:lo + step] / space.dims[ti]
                          * np.mean(np.abs(q) ** 2, axis=1)).tolist()
            contrib.append(space.plancherel(ti) * pairwise_sum(per_b))
        lhs = pairwise_sum(contrib)
        if rhs_mub - lhs < worst[0]:
            worst = (rhs_mub - lhs, s, lhs)
    entries.append({
        "check": "diagonal overlap bound",
        "lhs": worst[2], "rhs": rhs_mub, "slack": worst[0],
        "detail": f"tightest register subset {worst[1]}",
        "pass": bool(worst[0] >= -1e-9),
    })

    # --- X second moment against delta1, and per-conjugate distances; the
    # forms of each tuple at every conjugate are computed once, for both
    ref = reference_distribution(space)

    def tuple_work(ti):
        wd = space.frames[ti].weights / space.dims[ti]
        forms = space.projected_forms(ti, cls)
        X = forms - 0.5 ** k
        xsq = np.array([float(np.dot(wd, x)) for x in X ** 2])
        xabs = np.array([float(np.dot(wd, x)) for x in np.abs(X)])
        l1 = l1_rows(tuple_distributions(space, ti, cls, ranks, forms),
                     ref[ti])
        return xsq, xabs, l1

    per_tuple = [tuple_work(ti) for ti in range(len(space.tuples))]
    planch = np.array([space.plancherel(ti)
                       for ti in range(len(space.tuples))])
    xsq_mat = np.array([t[0] for t in per_tuple])   # (tuple, conjugate)
    xabs_mat = np.array([t[1] for t in per_tuple])
    lhs_delta1 = float(np.mean(planch @ xsq_mat))
    entries.append({
        "check": "x second moment below delta1",
        "lhs": lhs_delta1, "rhs": delta1, "slack": delta1 - lhs_delta1,
        "detail": f"S_eps={s_labels}, D_eps={d_eps}",
        "pass": bool(lhs_delta1 < delta1 + 1e-12),
    })

    if 2 * k * eps >= 1:
        entries.append({
            "check": "distance against x first moment",
            "lhs": None, "rhs": None, "slack": None,
            "detail": f"hypothesis 2*k*eps < 1 fails (2*{k}*{eps} >= 1)",
            "pass": None,
        })
    else:
        mu = planch @ xabs_mat                      # per-conjugate first moment
        l1s = pairwise_sum([t[2] for t in per_tuple]).tolist()
        worst = (np.inf, None)
        for ci, c in enumerate(cls):
            lhs = l1s[ci]
            rhs = (2 ** k * (1 + 2 * k * eps) * float(mu[ci])
                   + 3 * k * eps + 3 * k * d_eps / N)
            if rhs - lhs < worst[0]:
                worst = (rhs - lhs, group.pretty(c), lhs, rhs)
        entries.append({
            "check": "distance against x first moment",
            "lhs": worst[2], "rhs": worst[3], "slack": worst[0],
            "detail": f"tightest conjugate {worst[1]}",
            "pass": bool(worst[0] >= -1e-9),
        })
    return entries


# ---------------------------------------------------------------------------
# multi-copy mixture of conjugate coset states

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
    # per tuple: a loop step, |cls| D^2 for the Kronecker stack (sum D^2 =
    # |G|^t) and D^3 for eigvalsh; the largest stack and its last product
    degrees = np.array([r.degree for r in irreps], dtype=float)
    with np.errstate(over="ignore"):  # past the float range an estimate is inf
        dmax = degrees.max() ** t
        require(f"t={t} mixed-state distance over {len(irreps)} irreps",
                bytes=32 * len(cls) * dmax * dmax,
                work=STEP_WORK * np.float64(len(irreps)) ** t
                + len(cls) * np.float64(N) ** t + np.sum(degrees ** 3) ** t)
    stacks = [r.mats[cls] + np.eye(r.degree) for r in irreps]
    contrib = []
    for tup in itertools.combinations_with_replacement(range(len(irreps)), t):
        acc = functools.reduce(kron_stack, [stacks[i] for i in tup])
        M = acc.mean(axis=0) - np.eye(acc.shape[1])
        tn = float(np.sum(np.abs(np.linalg.eigvalsh(M))))
        orders = math.factorial(t) // math.prod(
            math.factorial(tup.count(i)) for i in set(tup))
        contrib.append(orders * acc.shape[1] * tn)
    return pairwise_sum(contrib) / N ** t


# ---------------------------------------------------------------------------
# transfer checks between related groups

def transfer_subgroup_report(big, mapping, small, h_small, tol=1e-9):
    """Coset-state spectra under an embedding small -> big.

    The nonzero spectrum of the big-group coset state is the small one
    repeated [big:small] times and scaled by 1/[big:small]; the zero
    multiplicities agree too, so full sorted spectra are compared.
    """
    mapping = np.asarray(mapping)
    if int(mapping[small.identity]) != big.identity:
        raise ValueError("embedding does not send identity to identity")
    index, rem = divmod(big.order, small.order)
    if rem:
        raise ValueError("small group order does not divide big group order")
    ev_big = np.sort(np.linalg.eigvalsh(
        coset_state(big, order_two_subgroup(big, int(mapping[h_small])))))
    ev_small = np.sort(np.linalg.eigvalsh(
        coset_state(small, order_two_subgroup(small, h_small))))
    expected = np.sort(np.repeat(ev_small, index) / index)
    diff = float(np.max(np.abs(ev_big - expected)))
    return {
        "mode": "subgroup",
        "index": index,
        "max_spectral_diff": diff,
        "pass": bool(diff <= tol),
    }


def transfer_quotient_report(big, projection, small, h_small, tol=1e-9):
    """Coset-state spectra under a quotient map big -> small.

    The subgroup upstairs is the full preimage of {e, h}; the nonzero
    spectra downstairs and upstairs coincide as multisets.
    """
    projection = np.asarray(projection)
    targets = {small.identity, h_small}
    pre = [x for x in range(big.order) if int(projection[x]) in targets]
    H_big = Subgroup(big, pre)
    ev_big = np.linalg.eigvalsh(coset_state(big, H_big))
    ev_small = np.linalg.eigvalsh(
        coset_state(small, order_two_subgroup(small, h_small)))
    nz_big = np.sort(ev_big[ev_big > 1e-12])
    nz_small = np.sort(ev_small[ev_small > 1e-12])
    if len(nz_big) != len(nz_small):
        return {
            "mode": "quotient",
            "nonzero_count": (len(nz_big), len(nz_small)),
            "max_spectral_diff": float("inf"),
            "pass": False,
        }
    diff = float(np.max(np.abs(nz_big - nz_small)))
    return {
        "mode": "quotient",
        "preimage_order": len(pre),
        "nonzero_count": len(nz_small),
        "zero_counts": (big.order - len(nz_big), small.order - len(nz_small)),
        "max_spectral_diff": diff,
        "pass": bool(diff <= tol),
    }

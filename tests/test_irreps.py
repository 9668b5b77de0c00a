import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hspsim.irreps as irrmod
from hspsim import util
from hspsim.bounds import partition_number
from hspsim.groups import (
    CyclicGroup, DihedralGroup, PSL2Group, SymmetricGroup, WreathS2Group,
    make_group,
)
from hspsim.irreps import (
    PRUNE_MAX_N, Irrep, canonical_order, canonical_sort, has_explicit_irreps,
    hook_length_degree,
    irreps_cyclic, irreps_for, irreps_generic, irreps_symmetric,
    irreps_wreath, partition_degrees, partition_label, partition_of,
    schur_orthogonality_error, standard_tableaux, hom_unitarity_error,
)

# degrees frozen from the hook length formula, computed independently
SYM_DEGREES = {3: [1, 2, 1], 4: [1, 3, 2, 3, 1], 5: [1, 4, 5, 6, 5, 4, 1]}


def partitions(n):
    """Every partition of n in descending lex order, from the reference
    enumeration below."""
    return [lam for lam, _ in reversed(_reference_degrees(n))]


def test_partitions_descending_lex():
    # Young's form builds one irrep per partition, in descending lex order
    assert [r.label for r in irreps_symmetric(4)] == [
        "[4]", "[3,1]", "[2,2]", "[2,1,1]", "[1,1,1,1]"]
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partition_label((2, 1)) == "[2,1]"
    for lam in ((2, 1), (10, 2), (1,), ()):
        assert partition_of(partition_label(lam)) == lam
    assert len(partitions(5)) == len(irreps_symmetric(5)) == 7


def test_hook_degrees_and_tableaux():
    for n, degs in SYM_DEGREES.items():
        assert [hook_length_degree(lam) for lam in partitions(n)] == degs
        for lam, d in zip(partitions(n), degs):
            assert len(standard_tableaux(lam)) == d


def _hook_degree_per_cell(lam):
    """The hook length formula with each leg counted over the lower rows."""
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            leg = sum(1 for r in lam[i + 1:] if r > j)
            prod *= (row - j - 1) + leg + 1
    return math.factorial(sum(lam)) // prod


def test_hook_degree_matches_per_cell_formula():
    for n in range(19):
        for lam in partitions(n):
            assert hook_length_degree(lam) == _hook_degree_per_cell(lam), lam


def test_hook_degree_of_empty_partition():
    assert partitions(0) == [()]
    assert hook_length_degree(()) == 1


def test_hook_degree_sums_count_involutions():
    # partition_degrees gives every partition of n once, by its label,
    # with its hook-length degree; sum_lam d_lam is the number of
    # involutions (with the identity) of S_n, I(n) = I(n-1) + (n-1) I(n-2),
    # and sum_lam d_lam^2 = n!
    inv = [1, 1]
    for n in range(2, 26):
        inv.append(inv[n - 1] + (n - 1) * inv[n - 2])
    for n in range(26):
        pairs, seen = partition_degrees(n)
        degs = {partition_of(lab): d for lab, d in pairs}
        assert [partition_label(lam) for lam in degs] == \
            [lab for lab, _ in pairs]
        assert len(degs) == len(pairs) == seen == partition_number(n)
        assert all(sum(lam) == n and list(lam) == sorted(lam, reverse=True)
                   and 0 not in lam for lam in degs)
        assert degs == {lam: hook_length_degree(lam) for lam in partitions(n)}
        assert all(isinstance(d, int) for d in degs.values())
        assert sum(degs.values()) == inv[n]
        assert sum(d * d for d in degs.values()) == math.factorial(n)


@functools.cache
def _degrees_of(n):
    return partition_degrees(n)[0]


@functools.cache
def _reference_degrees(n):
    """Every partition of n, largest part first, each with its hook-length
    degree: an enumeration independent of the row-on-top search."""
    def parts(rem, mx):
        if rem == 0:
            return [()]
        return [(k,) + rest for k in range(min(rem, mx), 0, -1)
                for rest in parts(rem - k, k)]
    return sorted((lam, hook_length_degree(lam)) for lam in parts(n, n))


def _labelled(pairs):
    """(partition, degree) pairs as partition_degrees gives them, sorted:
    (label, degree)."""
    return sorted((partition_label(lam), d) for lam, d in pairs)


def _conjugate(lam):
    """The conjugate partition: its column lengths."""
    cols = [0] * (lam[0] if lam else 0)
    for row in lam:
        cols[:row] = map((1).__add__, cols[:row])
    return tuple(cols)


def test_degree_sums_over_the_whole_wreath_range():
    # sum_lam d_lam = I(n) and sum_lam d_lam^2 = n! for every n <= 40: the
    # completeness check wreath_params once made at run time, over all the
    # n it admits
    inv = [1, 1]
    for n in range(2, PRUNE_MAX_N + 1):
        inv.append(inv[n - 1] + (n - 1) * inv[n - 2])
    for n in range(PRUNE_MAX_N + 1):
        degs = [d for _, d in _degrees_of(n)]
        assert sum(degs) == inv[n], n
        assert sum(d * d for d in degs) == math.factorial(n), n


def test_pruned_search_equals_the_reference_enumeration():
    # every cap from the trivial irreps alone to no pruning at all, with
    # the wreath cutoff d^4 <= n^n between: the pairs are those without a
    # cap whose degree is at most the cap, in the same order, and the
    # visited leaves and the skipped subtrees account for every partition.
    # Up to n = 25, and past PRUNE_MAX_N, where no subtree bound is
    # checked and only the search without a cap runs, the pairs are the
    # reference's; test_degree_sums_over_the_whole_wreath_range checks the
    # degree sums of the search without a cap in between.
    for n in range(PRUNE_MAX_N + 1):
        full = _degrees_of(n)
        if n <= 25:
            assert sorted(full) == _labelled(_reference_degrees(n)), n
        conj = {lab: partition_label(_conjugate(partition_of(lab)))
                for lab, _ in full}
        for cap in (1, 2, 5, 10 ** 6, math.isqrt(math.isqrt(n ** n)),
                    10 ** 30):
            got, seen = partition_degrees(n, cap)
            assert got == [pair for pair in full if pair[1] <= cap], (n, cap)
            assert seen == partition_number(n), (n, cap)
            # closed under conjugation, with equal degrees
            assert {(conj[lab], d) for lab, d in got} == set(got), (n, cap)
    with pytest.raises(ValueError):
        partition_degrees(PRUNE_MAX_N + 1, 1)
    full, seen = partition_degrees(PRUNE_MAX_N + 1)
    assert sorted(full) == _labelled(_reference_degrees(PRUNE_MAX_N + 1))
    assert seen == partition_number(PRUNE_MAX_N + 1)


def _log_floor_per_column(n, left, hooks, height, k):
    """The log of partition_degrees' subtree bound, summed over all k
    columns of the child by the formula in its docstring."""
    j, lg = left // k, math.lgamma
    total = lg(n + 1) - lg(left + 1) - math.log(hooks)
    for c in range(k):  # log rising(a, j) - log rising(b, j)
        a, b = k - c, k - c + height[c]
        total += lg(a + j) - lg(a) - lg(b + j) + lg(b)
    return total


def test_subtree_floor_grows_with_the_row_width():
    # partition_degrees ends a node's loop at its first skipped
    # child, which is sound only if the bound never falls as k grows, at
    # every node for every n it admits; float rounding of equal bounds
    # may dip far less than the search's 1e-9 margin
    for n in range(1, PRUNE_MAX_N + 1):
        floor = irrmod._log_degree_floor(n)
        height = [0] * n

        def walk(rem, lo, hooks, width):
            last = -math.inf
            for k in range(lo, rem // 2 + 1):
                below = height[:k]
                hooks_k = hooks * math.prod(k - c + below[c]
                                            for c in range(k))
                bound = floor(rem - k, hooks_k, height, k, width)
                height[:k] = [h + 1 for h in below]
                assert bound >= last - 1e-12, (n, rem, k)
                assert abs(bound - _log_floor_per_column(
                    n, rem - k, hooks_k, height, k)) < 1e-9, (n, rem, k)
                last = bound
                walk(rem - k, k, hooks_k, k)
                height[:k] = below

        walk(n, 1, 1, 0)


@st.composite
def _partitions_up_to_30(draw):
    rem, parts = draw(st.integers(1, 30)), []
    while rem:
        parts.append(draw(st.integers(1, rem)))
        rem -= parts[-1]
    return tuple(sorted(parts, reverse=True))


@given(_partitions_up_to_30())
def test_hook_degree_branching_rule(lam):
    # d_lam is the sum of d_mu over the mu obtained by removing one corner
    below = 0
    for i, row in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < row:
            mu = lam[:i] + ((row - 1,) if row > 1 else ()) + lam[i + 1:]
            below += hook_length_degree(mu)
    assert hook_length_degree(lam) == below


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_irreps_sound(n):
    G = SymmetricGroup(n)
    reps = irreps_symmetric(n)
    assert [r.label for r in reps] == [partition_label(p) for p in partitions(n)]
    assert sum(r.degree ** 2 for r in reps) == G.order
    for r in reps:
        assert hom_unitarity_error(r) < 1e-9
        # YOR matrices are real orthogonal
        assert np.abs(r.mats.imag).max() < 1e-12


def _reference_listing(G):
    """(label, degree) of G's explicit irreps, in their construction's
    order, from the reference enumeration and the family rules alone."""
    if isinstance(G, CyclicGroup):
        return [(f"chi{j}", 1) for j in range(G.n)]
    base = [(partition_label(lam), hook_length_degree(lam))
            for lam in partitions(G.n)]
    if isinstance(G, SymmetricGroup):
        return base
    # theta and theta' per partition, then kappa per pair of partitions
    return ([(tag + a, d * d) for tag in ("theta", "theta'")
             for a, d in base]
            + [(f"kappa{a}x{b}", 2 * da * db)
               for (a, da), (b, db) in itertools.combinations(base, 2)])


@pytest.mark.parametrize("spec", [f"s{n}" for n in range(1, 9)]
                         + [f"cyclic:{n}" for n in range(1, 13)]
                         + [f"wreath:{n}" for n in range(2, 5)])
def test_explicit_irreps_keep_the_reference_listing(spec):
    # each builder labels its irreps itself, in the order and with the
    # degrees the family rules give; the identity row has that degree
    G = make_group(spec)
    assert has_explicit_irreps(G)
    irr = irreps_for(G)
    assert [(r.label, r.degree) for r in irr] == _reference_listing(G)
    for r in irr:
        assert np.array_equal(r.at(G.identity), np.eye(r.degree)), r.label


@pytest.mark.parametrize("spec", ["psl2:5", "dihedral:4", "wreath:5"])
def test_no_explicit_irreps_without_a_construction(spec):
    assert not has_explicit_irreps(make_group(spec))


def test_symmetric_characters_are_class_functions():
    G = SymmetricGroup(4)
    for r in irreps_symmetric(4):
        chi = r.character()
        for cls in G.conjugacy_classes():
            assert np.abs(chi[list(cls)] - chi[cls[0]]).max() < 1e-9


def test_wreath_irreps():
    W = WreathS2Group(3)
    reps = irreps_wreath(3)
    # count 2 p(n) + C(p(n), 2) with p(3) = 3
    assert len(reps) == 9
    assert sum(r.degree ** 2 for r in reps) == W.order
    t = W.swap_element()
    for r in reps:
        assert hom_unitarity_error(r) < 1e-9
        chi_t = r.character()[t]
        if r.label.startswith("theta'"):
            assert abs(chi_t + np.sqrt(r.degree)) < 1e-9
        elif r.label.startswith("theta"):
            assert abs(chi_t - np.sqrt(r.degree)) < 1e-9
        else:
            assert abs(chi_t) < 1e-9


def test_wreath_irrep_count_n4():
    reps = irreps_wreath(4)
    # p(4) = 5 partitions: 2*5 + C(5,2) = 20
    assert len(reps) == 20
    assert sum(r.degree ** 2 for r in reps) == WreathS2Group(4).order


def _symmetric_irreps_complex(n):
    """Complex128 stacks of Young's orthogonal form for S_n: each element
    reached by breadth-first search over the adjacent transpositions, its
    matrix one complex product with a generator."""
    G = SymmetricGroup(n)
    gens = [G.from_perm(tuple(range(k - 1)) + (k, k - 1)
                        + tuple(range(k + 1, n))) for k in range(1, n)]
    out = []
    for lam in partitions(n):
        tabs = standard_tableaux(lam)
        gen_mats = [irrmod._yor_generator(lam, tabs, k).astype(np.complex128)
                    for k in range(1, n)]
        mats = np.zeros((G.order, len(tabs), len(tabs)), dtype=np.complex128)
        mats[G.identity] = np.eye(len(tabs))
        frontier, seen = [G.identity], {G.identity}
        while frontier:
            nxt = []
            for x in frontier:
                for g, M in zip(gens, gen_mats):
                    y = int(G.compose(x, g))
                    if y not in seen:
                        mats[y] = mats[x] @ M
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        out.append(mats)
    return out


def _wreath_irreps_per_element(n):
    """Complex128 stacks of irreps_wreath(n), one np.kron per group element
    over the complex S_n stacks."""
    W = WreathS2Group(n)
    base = [Irrep(SymmetricGroup(n), "", m)
            for m in _symmetric_irreps_complex(n)]
    packed = [W.unpack(x) for x in range(W.order)]
    out = []
    for sign in (1.0, -1.0):
        for rho in base:
            d = rho.degree
            swap = np.zeros((d * d, d * d))
            for i in range(d):
                for j in range(d):
                    swap[j * d + i, i * d + j] = 1.0
            S = sign * swap
            mats = np.empty((W.order, d * d, d * d), dtype=np.complex128)
            for x, (p, s, b) in enumerate(packed):
                M = np.kron(rho.mats[p], rho.mats[s])
                mats[x] = M @ S if b else M
            out.append(mats)
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            ri, rj = base[i], base[j]
            half = ri.degree * rj.degree
            mats = np.zeros((W.order, 2 * half, 2 * half), dtype=np.complex128)
            for x, (p, s, b) in enumerate(packed):
                A = np.kron(ri.mats[p], rj.mats[s])
                B = np.kron(ri.mats[s], rj.mats[p])
                if b:
                    mats[x, :half, half:] = A
                    mats[x, half:, :half] = B
                else:
                    mats[x, :half, :half] = A
                    mats[x, half:, half:] = B
            out.append(mats)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wreath_irreps_bit_identical_to_per_element_kron(n):
    # the lemma suite's tightest-case text breaks exact ties, so the batched
    # construction must reproduce the per-element matrices exactly
    got = irreps_wreath(n)
    want = _wreath_irreps_per_element(n)
    assert len(got) == len(want)
    for r, mats in zip(got, want):
        assert np.array_equal(r.mats, mats), r.label


@pytest.mark.parametrize("spec", ["s1", "s2", "s3", "s4", "s5", "wreath:2",
                                  "wreath:3", "wreath:4"])
def test_explicit_real_irreps_are_float64_and_equal_complex_ones(spec):
    # Young's form is real: its float64 stacks, and the wreath stacks built
    # on them, hold the complex construction's values, bit for bit, in half
    # the bytes; the characters stay complex128
    G = make_group(spec)
    got = irreps_for(G)
    if isinstance(G, SymmetricGroup):
        want = _symmetric_irreps_complex(G.n)
    else:
        want = _wreath_irreps_per_element(G.n)
    assert len(got) == len(want)
    for r, mats in zip(got, want):
        assert r.mats.dtype == np.float64 and mats.dtype == np.complex128
        assert np.array_equal(r.mats, mats), r.label
        chi = r.character()
        assert chi.dtype == np.complex128
        assert np.array_equal(chi, np.einsum("gii->g", mats)), r.label


def test_wreath_kappa_restriction():
    # restricted to b=0 elements, kappa splits as the two conjugate
    # tensor-product characters: chi(p,s,0) = xi(p)xj(s) + xi(s)xj(p)
    W = WreathS2Group(3)
    base = irreps_symmetric(3)
    reps = irreps_wreath(3)
    kap = next(r for r in reps if r.label == "kappa[3]x[2,1]")
    xi, xj = base[0], base[1]
    for x in range(W.order):
        p, s, b = W.unpack(x)
        if b:
            continue
        want = (xi.character()[p] * xj.character()[s]
                + xi.character()[s] * xj.character()[p])
        assert abs(kap.character()[x] - want) < 1e-9


def test_cyclic_irreps():
    reps = irreps_cyclic(6)
    assert [r.degree for r in reps] == [1] * 6
    for r in reps:
        assert hom_unitarity_error(r) < 1e-9


def test_cyclic_irreps_refused_past_byte_budget():
    from hspsim.util import MEMORY_LIMIT, ResourceCap
    # what the listing holds, CYCLIC_IRREP_BYTES and a label per irrep,
    # refused before the group is built
    n = 1180702
    assert n * (irrmod.CYCLIC_IRREP_BYTES + len(f"chi{n}")) <= MEMORY_LIMIT
    with pytest.raises(ResourceCap, match=(
            r"^irrep listing of the cyclic group of order 1180703 needs "
            r"8.81e\+08 bytes \(limit 8.81e\+08\)$")):
        irreps_cyclic(n + 1)


@pytest.mark.parametrize("make,arg,degrees", [
    (CyclicGroup, 4, [1, 1, 1, 1]),
    (SymmetricGroup, 3, [1, 1, 2]),
    (DihedralGroup, 4, [1, 1, 1, 1, 2]),
    (PSL2Group, 5, [1, 3, 3, 4, 5]),
])
def test_generic_decomposition(make, arg, degrees):
    G = make(arg)
    reps = irreps_generic(G)
    assert sorted(r.degree for r in reps) == degrees
    assert sum(r.degree ** 2 for r in reps) == G.order
    for r in reps:
        assert hom_unitarity_error(r) < 1e-9
    # labels follow the canonical order
    assert [r.label for r in reps] == [f"rho{i}" for i in range(len(reps))]


def _split_old(mats, tol, rng, depth=0):
    """_split_unitary_rep before repeated copies were skipped."""
    m = mats.shape[1]
    if m == 1 or abs(irrmod._char_norm(mats) - 1.0) < 1e-6:
        return [mats]
    if depth > 12:
        raise RuntimeError("representation failed to split")
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    M = (A + A.conj().T) / 2
    C = np.einsum("gij,jk,glk->il", mats, M, mats.conj()) / mats.shape[0]
    C = (C + C.conj().T) / 2
    w, V = np.linalg.eigh(C)
    segs = irrmod._cluster(w, tol)
    if len(segs) == 1:
        return _split_old(mats, tol, rng, depth + 1)
    out = []
    for a, b in segs:
        U = V[:, a:b]
        sub = np.einsum("ji,gjk,kl->gil", U.conj(), mats, U)
        out.extend(_split_old(sub, tol, rng, depth + 1))
    return out


def _decompose_old(group, table, invs, tol, rng):
    """_decompose_regular building every eigenspace segment, and keeping the
    first piece of each character."""
    N = group.order
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    M = (A + A.conj().T) / 2
    m = np.empty(N, dtype=np.complex128)
    rows = np.arange(N)
    for z in range(N):
        m[z] = M[rows, table[:, z]].mean()
    C = m[table[invs, :]]
    C = (C + C.conj().T) / 2
    w, V = np.linalg.eigh(C)
    segs = irrmod._cluster(w, tol)
    if len(segs) < 2 and N > 1:
        raise RuntimeError("commutant average did not split")
    out = []
    for a, b in segs:
        U = V[:, a:b]
        Uh = U.conj().T
        sub = np.empty((N, b - a, b - a), dtype=np.complex128)
        for g in range(N):
            sub[g] = Uh @ U[table[invs[g], :], :]
        out.extend(_split_old(sub, tol, rng))
    kept, chars = [], []
    for p in out:
        chi = np.einsum("gii->g", p)
        if not any(abs(np.vdot(c, chi).real / N - 1.0) < irrmod.CHAR_INNER_TOL
                   for c in chars):
            kept.append(p)
            chars.append(chi)
    return kept


@pytest.mark.parametrize("spec, tol", [
    ("psl2:5", 1e-6), ("psl2:7", 1e-6), ("sl2:5", 1e-6), ("dihedral:6", 1e-6),
    ("power:s3^2", 1e-6),
    # a coarse tolerance merges eigenspaces of different irreps, so some
    # segments are reducible and split again, drawing from the generator
    ("psl2:5", 0.1), ("sl2:5", 0.1),
])
def test_generic_same_as_building_every_segment(monkeypatch, spec, tol):
    G = make_group(spec)
    got = irreps_generic(G, tol=tol)
    monkeypatch.setattr(irrmod, "_decompose_regular", _decompose_old)
    want = irreps_generic(G, tol=tol)
    assert [r.label for r in got] == [r.label for r in want]
    for r, w in zip(got, want):
        assert np.array_equal(r.mats, w.mats), r.label


def test_generic_builds_each_irrep_once(monkeypatch):
    # psl2:7 has irreps of degrees 1, 3, 3, 6, 7, 8: 28 eigenspace segments,
    # of which only the first copy of each irrep is built
    calls = []
    split = irrmod._split_unitary_rep

    def counting(mats, *args, **kwargs):
        calls.append(mats.shape[1])
        return split(mats, *args, **kwargs)

    monkeypatch.setattr(irrmod, "_split_unitary_rep", counting)
    reps = irreps_generic(PSL2Group(7))
    assert sorted(calls) == sorted(r.degree for r in reps) == [1, 3, 3, 6, 7, 8]


def test_generic_deterministic():
    a = irreps_generic(DihedralGroup(4), seed=0)
    b = irreps_generic(DihedralGroup(4), seed=0)
    for r1, r2 in zip(a, b):
        assert np.array_equal(r1.mats, r2.mats)


def test_schur_orthogonality():
    assert schur_orthogonality_error(SymmetricGroup(3),
                                     irreps_symmetric(3)) < 1e-8
    assert schur_orthogonality_error(WreathS2Group(3), irreps_wreath(3)) < 1e-8


def test_canonical_sort_trivial_first():
    G = SymmetricGroup(3)
    reps = canonical_sort(G, irreps_symmetric(3))
    assert reps[0].degree == 1
    assert np.abs(reps[0].character() - 1).max() < 1e-12
    # degree ascending
    assert [r.degree for r in reps] == sorted(r.degree for r in reps)


def character_key(degree, chi):
    """The row sort key canonical_order must reproduce: the degree, then
    the values, descending lex and rounded to 8 places by numpy's round (a
    numpy scalar's, not Python float's correctly rounded one)."""
    return (degree, tuple((-round(z.real, 8), -round(z.imag, 8)) for z in chi))


def _key_order(degrees, values):
    return sorted(range(len(degrees)),
                  key=lambda i: character_key(degrees[i], values[i]))


@pytest.mark.parametrize("spec", ["cyclic:12", "dihedral:6", "s5", "psl2:7",
                                  "power:s3^2"])
def test_canonical_order_is_the_tuple_key_order(spec):
    G = make_group(spec)
    irr = irreps_for(G)
    reps = [c[0] for c in G.conjugacy_classes()]
    # built rows come sorted; a shuffle makes the order do work
    shuffle = np.random.default_rng(0).permutation(len(irr))
    values = np.array([irr[i].character()[reps] for i in shuffle])
    degrees = [irr[i].degree for i in shuffle]
    assert canonical_order(degrees, values).tolist() \
        == _key_order(degrees, values)


def test_canonical_order_on_ties_signed_zeros_and_rounding_edges():
    # values that round to +-0, that sit at the 8th decimal's rounding
    # edge, or that differ only past it; rows repeat, so ties keep order
    edges = np.array([0.0, -0.0, 1e-9, -1e-9, 5e-9, -5e-9, 4.9999999e-9,
                      1.5e-8, -1.5e-8, 2.5e-8, 0.123456785, -0.123456785,
                      0.123456775, 0.1234567850001, 1.0, -1.0, 1 + 5e-9,
                      1 - 5e-9, 1 + 4e-9])
    rng = np.random.default_rng(1)
    values = np.empty((400, 3), dtype=np.complex128)
    values.real = rng.choice(edges, values.shape)
    values.imag = rng.choice(edges, values.shape)
    degrees = rng.integers(1, 3, len(values))
    values[7], degrees[7] = values[3], degrees[3]
    keys = [character_key(d, chi) for d, chi in zip(degrees, values)]
    assert len(set(keys)) < len(keys)
    assert canonical_order(degrees, values).tolist() \
        == _key_order(degrees, values)


def test_irrep_keeps_its_dtype():
    G = CyclicGroup(2)
    assert Irrep(G, "r", np.ones((2, 1, 1))).mats.dtype == np.float64
    assert Irrep(G, "r", np.ones((2, 1, 1), int)).mats.dtype == np.float64
    z = Irrep(G, "z", np.ones((2, 1, 1), np.complex128))
    assert z.mats.dtype == np.complex128  # a zero imaginary part is kept
    assert z.character().dtype == np.complex128


def test_hom_check_in_row_blocks_matches_one_block(monkeypatch):
    rho = irreps_symmetric(4)[1]
    whole = hom_unitarity_error(rho)
    monkeypatch.setattr(util, "BLOCK_BYTES", 1)  # one row per block
    assert hom_unitarity_error(rho) == whole
    last = rho.group.order - 1
    bad = Irrep(rho.group, "bad", rho.mats.copy())
    bad.mats[last] = bad.mats[last] @ np.diag([1, 1, -1])
    assert hom_unitarity_error(bad) > 0.5


@pytest.mark.parametrize("spec", ["psl2:5", "s4", "wreath:3", "cyclic:6"])
def test_hom_check_block_budget_changes_no_bit(monkeypatch, spec):
    # 1 KiB blocks, the default, and one block holding the whole group,
    # against both halves taken whole, the unitarity half element by element
    G = make_group(spec)
    irr = irreps_for(G)
    default = [hom_unitarity_error(r) for r in irr]
    for r, err in zip(irr, default):
        m, eye = r.mats, np.eye(r.degree)
        unit = max(float(np.abs(x.conj().T @ x - eye).max()) for x in m)
        hom = np.abs(m[:, None] @ m[None] - m[G.table()]).max()
        assert err == max(unit, float(hom))
    for budget in (1 << 10, 1 << 62):
        monkeypatch.setattr(util, "BLOCK_BYTES", budget)
        assert [hom_unitarity_error(r) for r in irr] == default


@pytest.mark.parametrize("budget", [1, None])
@pytest.mark.parametrize("spec", ["psl2:5", "s4"])
def test_hom_check_flags_a_perturbed_or_scaled_row(monkeypatch, spec,
                                                    budget):
    # complex and real stacks, in blocks of one row and in the default
    # blocks: a unitary rho(g) that breaks the homomorphism, and a scaled
    # rho(e), whose unitarity error 2t + t^2 exceeds its homomorphism
    # error t + t^2
    if budget is not None:
        monkeypatch.setattr(util, "BLOCK_BYTES", budget)
    G = make_group(spec)
    rho = max(irreps_for(G), key=lambda r: r.degree)
    assert hom_unitarity_error(rho) < 1e-9
    for g in (G.order // 2, G.order - 1):
        bad = Irrep(G, "bad", rho.mats.copy())
        bad.mats[g] = -bad.mats[g]
        assert hom_unitarity_error(bad) > 0.5, g
    t = 1e-3
    scaled = Irrep(G, "scaled", rho.mats.copy())
    scaled.mats[G.identity] *= 1 + t
    assert abs(hom_unitarity_error(scaled) - (2 * t + t * t)) < 1e-12


def test_hom_check_peak_within_two_blocks():
    # the products and the gathered rho(xy) of one block of rows; the
    # parent's 4 MiB blocks peaked at about 4 MB here
    rho = max(irreps_for(make_group("psl2:7")), key=lambda r: r.degree)
    assert rho.degree == 8
    rho.group.table()
    rho.mats
    tracemalloc.start()
    try:
        hom_unitarity_error(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * util.BLOCK_BYTES + (1 << 19)


def test_hom_check_refused_past_work_limit():
    from hspsim.util import WORK_LIMIT, ResourceCap
    kappa = max(irreps_wreath(4), key=lambda r: r.degree)
    assert kappa.group.order ** 2 * kappa.degree ** 3 > WORK_LIMIT
    with pytest.raises(ResourceCap, match="multiply-adds"):
        hom_unitarity_error(kappa)


def test_irrep_shape_validation():
    G = CyclicGroup(2)
    with pytest.raises(ValueError):
        Irrep(G, "bad", np.zeros((3, 1, 1)))


# ---------------------------------------------------------------------------
# rows evaluated where they are read

ROW_SPECS = ["cyclic:12", "wreath:2", "wreath:3", "wreath:4", "s4", "s5",
             "psl2:5", "dihedral:4"]


def _row_sets(G):
    """e and the class of the default involution, as sampling reads them,
    and ids drawn with repeats, unsorted, a third as many as the elements."""
    h = G.default_involution()
    drawn = np.random.default_rng(G.order).integers(G.order,
                                                    size=G.order // 3)
    return [[G.identity, *G.class_of(h)], drawn.tolist()]


@pytest.mark.parametrize("spec", ROW_SPECS)
def test_row_built_irreps_equal_the_whole_rows(spec):
    # cyclic, symmetric and wreath irreps evaluate only the rows read, the
    # others hold their whole stacks; either way each row is the whole
    # stack's
    G = make_group(spec)
    whole = irreps_for(G)
    for xs in _row_sets(G):
        fresh = irreps_for(G)
        assert [r.label for r in fresh] == [r.label for r in whole]
        for w, r in zip(whole, fresh):
            assert r.at(xs).dtype == w.mats.dtype
            assert np.array_equal(r.at(xs), w.mats[xs]), r.label
            assert np.array_equal(r.character_at(xs), w.character()[xs])
            x = xs[-1]
            assert r.character_at(x) == w.character()[x]
            assert np.array_equal(r.at(x), w.mats[x])
            assert np.array_equal(r.at(tuple(xs)), w.mats[xs])
            assert np.array_equal(r.character_at(tuple(xs)),
                                  w.character()[xs])
            with pytest.raises(IndexError):
                r.at([G.identity, G.order])


@pytest.mark.parametrize("spec", ["cyclic:12", "s4", "wreath:2"])
def test_row_ids_are_checked_as_the_stack_would(spec):
    # rows evaluated where they are read take their ids as the whole stack
    # does, in time of the ids read: a negative id counts from the end, an
    # id out of range or not an int is an IndexError
    G = make_group(spec)
    N = G.order
    for w, r in zip(irreps_for(G), irreps_for(G)):
        assert r._mats is None
        for xs in (-1, [0, -N, N - 1], np.array([[1, -2], [3, 0]])):
            assert np.array_equal(r.at(xs), w.mats[xs]), (r.label, xs)
        assert r.at([]).shape == (0, r.degree, r.degree)
        for xs in (N, -N - 1, [0, N], np.array([0.0])):
            with pytest.raises(IndexError):
                w.mats[xs]
            with pytest.raises(IndexError):
                r.at(xs)
        assert r._mats is None


def test_young_rows_of_s7_are_a_homomorphism():
    # Young's form read by reduced words needs no group-wide stack, so S_7
    # (5040 elements, degrees up to 35) is read at sampled rows only
    reps = irreps_symmetric(7)
    assert len(reps) == 15
    G = reps[0].group
    xs, ys = np.random.default_rng(7).integers(G.order, size=(2, 50))
    for r in reps:
        X, Y = r.at(xs), r.at(ys)
        assert np.abs(X @ Y - r.at(G.compose(xs, ys))).max() < 1e-12, r.label
        eye = np.eye(r.degree)
        assert np.abs(X @ X.transpose(0, 2, 1) - eye).max() < 1e-12, r.label
    assert all(r._mats is None and r._char is None for r in reps)


@pytest.mark.parametrize("spec", ["cyclic:3", "wreath:2"])
def test_rows_of_another_degree_than_listed_raise_when_read(spec):
    # a row function whose rows are not of the degree the irrep was given
    # raises on its first read, through each of the four readers
    G = make_group(spec)
    built = irreps_for(G)[-1]
    rho = Irrep(G, built.label, built.at, built.degree + 1)
    for read in (lambda: rho.at(G.identity), lambda: rho.character_at([0, 1]),
                 lambda: rho.mats, rho.character):
        with pytest.raises(RuntimeError, match="differs from its listed "
                                               f"degree {rho.degree}"):
            read()

"""Coset-state sampling: distributions, moment identities, distances."""
import functools
import itertools
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hspsim import cli, simulate, util
from hspsim.fourier import factor_stack, qft
from hspsim.groups import (
    make_group,
    make_psl2,
    make_sl2,
    order_two_subgroup,
    sl2_to_psl2_map,
    wreath_embedding,
)
from hspsim.irreps import (
    Irrep, irreps_for, irreps_generic, irreps_symmetric, irreps_wreath,
)
from hspsim.simulate import (
    RegisterSpace,
    _isotypic_screen,
    avg_tv_over_conjugates,
    coset_distribution,
    coset_state,
    fourier_blocks,
    fourier_roundtrip_error,
    l1_distance,
    lemma_suite,
    mixed_conjugate_trace_distance,
    plus_bases,
    q_subset_values,
    q_total_values,
    reference_distribution,
    require_sampling,
    second_moment_check,
    transfer_quotient_report,
    transfer_subgroup_report,
)
from hspsim.util import ResourceCap, kron_apply, kron_stack


def wreath3():
    G = make_group("wreath:3")
    return G, irreps_wreath(3), G.swap_element()


def test_coset_state_shape_and_spectrum():
    G = make_group("s3")
    h = G.involutions()[0]
    sigma = coset_state(G, order_two_subgroup(G, h))
    assert abs(np.trace(sigma) - 1) < 1e-12
    # sigma * (|G|/|H|) is a rank-[G:H] projector
    P = sigma * 3
    assert np.max(np.abs(P @ P - P)) < 1e-12
    ev = np.sort(np.linalg.eigvalsh(sigma))
    want = np.sort([0] * 3 + [1 / 3] * 3)
    assert np.max(np.abs(ev - want)) < 1e-12


def test_coset_state_order_cap():
    # 9 |G|^2 bytes: cyclic:9892 is the largest even order admitted
    G = make_group("cyclic:9894")
    with pytest.raises(ResourceCap, match="needs 8.81e"):
        coset_state(G, order_two_subgroup(G, 4947))


def test_fourier_blocks_trace_is_tuple_probability():
    G, irr, h = wreath3()
    H = order_two_subgroup(G, h)
    blocks = fourier_blocks(G, H, irr)
    sp = RegisterSpace(G, irr, 1, seed=0)
    ranks = sp.tuple_ranks(H)
    total = 0.0
    for ti, entry in enumerate(blocks):
        tr = float(np.trace(entry["block"]).real)
        assert abs(tr - sp.subgroup_prob(ti, ranks)) < 1e-12
        total += tr
    assert abs(total - 1) < 1e-12


@pytest.mark.parametrize("spec", ["s3", "dihedral:4", "wreath:2", "wreath:3"])
def test_fourier_roundtrip(spec):
    G = make_group(spec)
    if spec == "s3":
        irr = irreps_symmetric(3)
    elif spec.startswith("wreath"):
        irr = irreps_wreath(int(spec.split(":")[1]))
    else:
        irr = irreps_generic(G, seed=0)
    h = G.involutions()[0]
    assert fourier_roundtrip_error(G, order_two_subgroup(G, h), irr) < 1e-9


def test_roundtrip_order_cap():
    # 2 |G|^3 multiply-adds, refused before the (here empty) irreps are read
    G = make_group("cyclic:1358")
    with pytest.raises(ResourceCap, match="multiply-adds"):
        fourier_roundtrip_error(G, order_two_subgroup(G, 679), [])


def test_register_budget_cap():
    # psl2:13's degrees: the frame vectors hold 16 |G|^k bytes, 1.9e7 at
    # k = 2 and 2.1e10 at k = 3, past MEMORY_LIMIT
    degs = [1, 7, 7, 12, 12, 12, 13, 14, 14]
    labels = [f"rho{i}" for i in range(len(degs))]
    require_sampling(labels, degs, 2)
    with pytest.raises(ResourceCap, match=r"rho7\|rho7\|rho7 has "
                       r"dimension 2744\) needs 2.08e\+10 bytes"):
        require_sampling(labels, degs, 3)


def test_wreath3_tuple_probabilities_frozen():
    G, irr, h = wreath3()
    sp = RegisterSpace(G, irr, 1, seed=7)
    ranks = sp.tuple_ranks(order_two_subgroup(G, h))
    got = sorted(sp.subgroup_prob(ti, ranks) for ti in range(9))
    want = sorted([1 / 36, 1 / 36, 0, 0, 1 / 18, 1 / 3, 1 / 9, 2 / 9, 2 / 9])
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12


def conditional_distribution(space, ti, c, ranks):
    """Outcome probabilities within tuple ti, given tuple ti was observed."""
    r = ranks[ti]
    f = space.frames[ti]
    if r == 0:
        return np.zeros(f.size)
    return f.weights * space.projected_forms(ti, c) / r


@pytest.mark.parametrize("k,kind", [(1, "basis"), (2, "basis"), (1, "fused")])
def test_distributions_normalized(k, kind):
    G, irr, h = wreath3()
    sp = RegisterSpace(G, irr, k, seed=5, kind=kind)
    ref = reference_distribution(sp)
    assert abs(sum(float(v.sum()) for v in ref) - 1) < 1e-10
    H = order_two_subgroup(G, h)
    ranks = sp.tuple_ranks(H)
    dist = coset_distribution(sp, h, ranks)
    assert abs(sum(float(v.sum()) for v in dist) - 1) < 1e-10
    assert all(float(v.min()) >= -1e-12 for v in dist)
    for ti in range(len(sp.tuples)):
        cond = conditional_distribution(sp, ti, h, ranks)
        if ranks[ti] > 0:
            assert abs(float(cond.sum()) - 1) < 1e-10
        else:
            assert float(np.abs(cond).sum()) == 0.0


def distribution_rows(space, dist):
    """(label, outcome index, probability) rows of a joint distribution."""
    rows = []
    for ti, vec in enumerate(dist):
        lab = space.labels[ti]
        for bi, p in enumerate(vec):
            rows.append((lab, bi, float(p)))
    return rows


def test_distribution_rows_structure():
    G, irr, h = wreath3()
    sp = RegisterSpace(G, irr, 1, seed=0)
    rows = distribution_rows(sp, reference_distribution(sp))
    assert len(rows) == sum(f.size for f in sp.frames)
    labels = {r[0] for r in rows}
    assert len(labels) == 9
    assert abs(sum(r[2] for r in rows) - 1) < 1e-10


def _half_projectors(irreps, tup, c):
    """The dense register factors (I + rho_i(c))/2 of a tuple at class
    element c: the reference the projector-form kernel is checked against."""
    return [(np.eye(irreps[i].degree) + irreps[i].mats[c]) / 2 for i in tup]


def x_function(irreps, tup, b, c):
    """X = <b| (x)_i (I + rho_i(c))/2 |b> - 2^{-k} at the class element c."""
    b = np.asarray(b)
    val = complex(b.conj() @ kron_apply(_half_projectors(irreps, tup, c), b))
    if abs(val.imag) > 1e-8:
        raise ValueError(f"X has imaginary part {val.imag:.3g}")
    return val.real - 0.5 ** len(tup)


def test_x_function_matches_forms():
    G, irr, h = wreath3()
    sp = RegisterSpace(G, irr, 2, seed=3)
    ti = 40
    vals = sp.projected_forms(ti, h)
    f = sp.frames[ti]
    for bi in (0, 3):
        x = x_function(irr, sp.tuples[ti], f.vectors[:, bi], h)
        assert abs(x - (vals[bi] - 0.25)) < 1e-12


def _dense_kron(blocks):
    K = np.ones((1, 1))
    for A in blocks:
        K = np.kron(K, A)
    return K


@pytest.mark.parametrize("degrees", [
    ((1, 1),), ((4, 4),), ((2, 2), (3, 3)), ((3, 3), (1, 1)),
    ((1, 1), (2, 2), (3, 3)), ((3, 3), (2, 2), (2, 2)),
    ((2, 4),), ((1, 3), (2, 2)), ((3, 3), (0, 2)), ((2, 3), (1, 2), (2, 2))])
def test_kron_apply_matches_dense_kron(degrees):
    # square and rectangular r_i x d_i blocks, alone and stacked
    rng = np.random.default_rng([r * 7 + d for r, d in degrees])
    blocks = [rng.standard_normal((3, r, d))
              + 1j * rng.standard_normal((3, r, d)) for r, d in degrees]
    D = int(np.prod([d for _, d in degrees]))
    V = rng.standard_normal((D, 5)) + 1j * rng.standard_normal((D, 5))
    Ks = [_dense_kron([A[j] for A in blocks]) for j in range(3)]
    for j, K in enumerate(Ks):
        one = [A[j] for A in blocks]
        assert np.max(np.abs(kron_apply(one, V) - K @ V), initial=0) < 1e-12
        assert np.max(np.abs(kron_apply(one, V[:, 2]) - K @ V[:, 2]),
                      initial=0) < 1e-12
    got = kron_apply(blocks, V)
    assert got.shape == (3, Ks[0].shape[0], 5)
    for j, K in enumerate(Ks):
        assert np.array_equal(got[j], kron_apply([A[j] for A in blocks], V))
        assert np.max(np.abs(got[j] - K @ V), initial=0) < 1e-12
    assert kron_apply(blocks, V[:, 0]).shape == (3, Ks[0].shape[0])


@pytest.mark.parametrize("spec", ["s3", "dihedral:4", "psl2:5", "wreath:2"])
@pytest.mark.parametrize("k", [1, 2])
def test_projected_forms_match_dense_kron(spec, k):
    # the dense D x D product of the register factors, as an oracle
    G = make_group(spec)
    irr = irreps_for(G)
    sp = RegisterSpace(G, irr, k, seed=11)
    for c in G.class_of(G.default_involution()):
        for ti, tup in enumerate(sp.tuples):
            K = _dense_kron([(np.eye(irr[i].degree) + irr[i].mats[c]) / 2
                             for i in tup])
            V = sp.frames[ti].vectors
            want = np.einsum("im,ij,jm->m", V.conj(), K, V)
            assert np.max(np.abs(want.imag)) < 1e-12
            got = sp.projected_forms(ti, c)
            assert np.max(np.abs(got - want.real)) < 1e-12
            for bi in range(V.shape[1]):
                x = x_function(irr, tup, V[:, bi], c)
                assert abs(x - (want[bi].real - 0.5 ** k)) < 1e-12


# the groups whose irreps are real, conj(rho) = rho, with the largest k at
# which |G|^k stays small enough for dense N^k x N^k matrices
ORACLE_CASES = {"s3": 3, "wreath:2": 3, "s4": 2, "wreath:3": 1}


@functools.lru_cache(maxsize=None)
def _group_irreps(spec):
    G = make_group(spec)
    return G, irreps_for(G)


def _oracle_rows(G, irr, c, k, space):
    """Outcome probabilities per (tuple, frame vector) from dense matrix
    algebra: qft^(x)k sigma_H^(x)k qft^(x)k^dagger for H = {e, c},
    restricted to each tuple's block, with the multiplicity (row-index)
    registers traced out, measured on the tuple's frame."""
    N = G.order
    F = qft(G, irr)
    sigma = coset_state(G, order_two_subgroup(G, c))
    Fk, Sk = F, sigma
    for _ in range(k - 1):
        Fk, Sk = np.kron(Fk, F), np.kron(Sk, sigma)
    rho = Fk @ Sk @ Fk.conj().T
    offsets = np.cumsum([0] + [r.degree ** 2 for r in irr])
    # row (i_m, j_m) of register m: i_m is traced out, j_m is measured
    sub = ([a for m in range(k) for a in (m, k + m)]
           + [a for m in range(k) for a in (m, 2 * k + m)])
    out = []
    for ti, tup in enumerate(space.tuples):
        idx = np.zeros(1, dtype=np.intp)
        for i in tup:
            idx = (idx[:, None] * N
                   + np.arange(offsets[i], offsets[i + 1])).ravel()
        dims = [irr[i].degree for i in tup]
        block = rho[np.ix_(idx, idx)].reshape([d for d in dims
                                               for _ in (0, 1)] * 2)
        D = space.dims[ti]
        M = np.einsum(block, sub, list(range(k, 3 * k))).reshape(D, D)
        f = space.frames[ti]
        p = f.weights * np.einsum("im,ij,jm->m", f.vectors.conj(), M,
                                  f.vectors)
        assert np.max(np.abs(p.imag)) < 1e-12
        out.append(p.real)
    return out


@pytest.mark.parametrize("spec, k", [(spec, k) for spec, kmax
                                     in ORACLE_CASES.items()
                                     for k in range(1, kmax + 1)])
def test_dense_oracle_reproduces_coset_distribution(spec, k):
    # every involution c of the group, every tuple and frame vector
    G, irr = _group_irreps(spec)
    spaces = [RegisterSpace(G, irr, k, seed=17, kind=kind)
              for kind in ("basis", "fused")]
    for c in G.involutions():
        for sp in spaces:
            want = _oracle_rows(G, irr, c, k, sp)
            got = coset_distribution(sp, c)
            for ti in range(len(sp.tuples)):
                assert np.max(np.abs(got[ti] - want[ti])) < 1e-12


@settings(max_examples=40)
@given(spec=st.sampled_from(sorted(ORACLE_CASES)), k=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["basis", "fused"]), pick=st.integers(0, 99))
def test_outcome_rows_are_distributions(spec, k, seed, kind, pick):
    # non-negative as squared norms, and summing to one over every tuple
    # and outcome, at every conjugate of a drawn involution
    G, irr = _group_irreps(spec)
    k = min(k, ORACLE_CASES[spec])
    sp = RegisterSpace(G, irr, k, seed=seed, kind=kind)
    invs = G.involutions()
    h = invs[pick % len(invs)]
    for c in G.class_of(h):
        dist = coset_distribution(sp, c)
        assert all(float(row.min()) >= 0.0 for row in dist)
        assert abs(sum(float(row.sum()) for row in dist) - 1) < 1e-10


def test_plus_bases_are_checked_involution_eigenbases():
    # W^dagger W = I_r, rho(x) W = W and r = (d + chi(x))/2, real on real
    # irreps; a second call returns the same stored arrays
    for spec in ("wreath:3", "psl2:5"):
        G, irr = _group_irreps(spec)
        h = G.default_involution()
        rows, bases = plus_bases(irr, h)
        cls = G.class_of(h)
        assert rows == {x: i for i, x in enumerate(cls)}
        for r, Wh in zip(irr, bases):
            n = round((r.degree + r.character()[h].real) / 2)
            assert Wh.shape == (len(cls), n, r.degree)
            assert np.isrealobj(Wh) == (spec == "wreath:3")
            W = Wh.conj().swapaxes(1, 2)
            assert np.max(np.abs(Wh @ W - np.eye(n)), initial=0) < 1e-12
            assert np.max(np.abs(r.mats[list(cls)] @ W - W),
                          initial=0) < 1e-12
        again = plus_bases(irr, cls[-1])[1]
        assert all(a is b for a, b in zip(again, bases))


def test_plus_bases_name_a_non_involution():
    G, irr, _ = wreath3()
    sp = RegisterSpace(G, irr, 1)
    c = next(x for x in range(G.order)
             if G.compose(x, x) != G.identity and x != G.identity)
    with pytest.raises(ValueError, match=re.escape(
            f"class element {G.pretty(c)} is not an involution")):
        sp.projected_forms(0, c)


def test_plus_bases_reject_a_broken_irrep():
    # eigenvalues 1 + 1e-6 are past BASIS_TOL: no basis is stored
    G, irr, h = wreath3()
    bad = [Irrep(G, r.label, r.mats * (1 + 1e-6)) for r in irr]
    with pytest.raises(ValueError, match="has no rank-"):
        plus_bases(bad, h)


def test_plus_bases_memory_refusal(monkeypatch):
    # sum_i |class| d_i r_i entries of 8 bytes (real) or 16 bytes (complex);
    # fresh irreps, so nothing is stored yet
    cases = [(spec, make_group(spec)) for spec in ("wreath:3", "psl2:5")]
    for spec, G, irr in [(spec, G, irreps_for(G)) for spec, G in cases]:
        h = G.default_involution()
        n = len(G.class_of(h))
        need = sum(n * r.degree * round((r.degree + r.character()[h].real)
                                        / 2) for r in irr)
        need *= 8 if spec == "wreath:3" else 16
        monkeypatch.setattr(util, "MEMORY_LIMIT", need - 1)
        with pytest.raises(ResourceCap, match=re.escape(
                f"+1 eigenbases of {len(irr)} irreps at {n} involutions "
                f"needs {need:.3g} bytes")):
            plus_bases(irr, h)
        monkeypatch.setattr(util, "MEMORY_LIMIT", need)
        plus_bases(irr, h)


# complex irreps (psl2:5) and a wreath product among them
BATCH_SPECS = ("s3", "dihedral:4", "cyclic:6", "psl2:5", "wreath:2")


@pytest.mark.parametrize("kind", ["basis", "fused"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("spec", BATCH_SPECS)
def test_batched_forms_equal_per_element(spec, k, kind):
    G = make_group(spec)
    irr = irreps_for(G)
    cls = list(G.class_of(G.default_involution()))
    sp = RegisterSpace(G, irr, k, seed=13, kind=kind)
    for ti in range(0, len(sp.tuples), max(1, len(sp.tuples) // 16)):
        rows = sp.projected_forms(ti, cls)
        assert rows.shape == (len(cls), sp.frames[ti].size)
        for row, c in zip(rows, cls):
            assert np.array_equal(row, sp.projected_forms(ti, c))


@pytest.mark.parametrize("kind", ["basis", "fused"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("spec", BATCH_SPECS)
def test_q_subset_block_equals_per_column(spec, k, kind):
    G = make_group(spec)
    irr = irreps_for(G)
    sp = RegisterSpace(G, irr, k, seed=13, kind=kind)
    for ti in range(0, len(sp.tuples), max(1, len(sp.tuples) // 8)):
        V = sp.frames[ti].vectors
        for s in _subsets(k):
            q = q_subset_values(irr, sp.tuples[ti], V, s)
            assert q.shape == (V.shape[1], G.order) and q.flags.c_contiguous
            for j in range(V.shape[1]):
                assert np.array_equal(
                    q[j], q_subset_values(irr, sp.tuples[ti], V[:, j], s))


@pytest.mark.parametrize("spec, k, eps, kind", [
    ("wreath:3", 2, 0.2, "basis"), ("psl2:5", 2, 0.2, "fused"),
    ("dihedral:4", 3, 0.15, "basis")])
def test_distance_l1_equals_coset_distribution_l1(spec, k, eps, kind):
    # the lemma suite and avg_tv read l1 off the batched forms; the
    # reference builds each conjugate's whole distribution
    G = make_group(spec)
    irr = irreps_for(G)
    h = G.default_involution()
    cls = list(G.class_of(h))
    sp = RegisterSpace(G, irr, k, seed=0, kind=kind)
    ranks = sp.tuple_ranks(order_two_subgroup(G, h))
    ref = reference_distribution(sp)
    want = [l1_distance(coset_distribution(sp, c, ranks), ref) for c in cls]
    res = avg_tv_over_conjugates(sp, h)
    assert [e["l1"] for e in res["per_conjugate"]] == want
    out = lemma_suite(G, irr, h, k, eps, seed=0, kind=kind)
    got = next(e for e in out if e["check"] == "distance against x first moment")
    ci = [f"tightest conjugate {G.pretty(c)}" for c in cls].index(got["detail"])
    assert got["lhs"] == want[ci]


@pytest.mark.parametrize("entries", [1, 2048])
def test_block_size_changes_no_bit(monkeypatch, entries):
    # 2048 entries leave a short last block of class elements (D = 16) and
    # of frame vectors (D = 4, 8)
    G, irr, h = wreath3()
    cls = list(G.class_of(h))

    def results():
        sp = RegisterSpace(G, irr, 2, seed=3, kind="fused")
        return ([sp.projected_forms(ti, cls) for ti in range(len(sp.tuples))],
                avg_tv_over_conjugates(sp, h),
                lemma_suite(G, irr, h, 2, 0.2, seed=3, kind="fused"))

    forms, tv, suite = results()
    monkeypatch.setattr(simulate, "BLOCK_ENTRIES", entries)
    got_forms, got_tv, got_suite = results()
    assert all(np.array_equal(a, b) for a, b in zip(got_forms, forms))
    assert got_tv == tv and got_suite == suite


def test_q_decomposition():
    G, irr, h = wreath3()
    sp = RegisterSpace(G, irr, 2, seed=1)
    ti = 40
    b = sp.frames[ti].vectors[:, 2]
    Q = q_total_values(irr, sp.tuples[ti], b)
    S = sum(q_subset_values(irr, sp.tuples[ti], b, s)
            for r in (1, 2) for s in itertools.combinations(range(2), r))
    assert np.max(np.abs(Q - S)) < 1e-12
    # X at a class element equals Q(c)/2^k
    x = x_function(irr, sp.tuples[ti], b, h)
    assert abs(x - Q[h].real / 4) < 1e-12


def test_second_moment_identity_s3_all_tuples():
    G = make_group("s3")
    irr = irreps_symmetric(3)
    h = G.involutions()[0]
    rng = np.random.default_rng(2)
    for ti in range(3):
        d = irr[ti].degree
        for _ in range(5):
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            b /= np.linalg.norm(b)
            lhs, rhs = second_moment_check(G, irr, (ti,), b, h)
            assert abs(lhs - rhs) < 1e-10


def second_moment_terms(group, irreps, tup, b, h):
    """Per-subset-pair breakdown of the second-moment identity.

    For each pair (I1, I2) of nonempty register subsets, compares the
    class-average of q_I1 q_I2 with sum_tau chi_tau(h) E_g[conj(chi_tau) q_I1 q_I2].
    Summing either column over all pairs gives 4^k times the X^2 averages.
    """
    k = len(tup)
    cls = list(group.class_of(h))
    subsets = [s for r in range(1, k + 1)
               for s in itertools.combinations(range(k), r)]
    qs = {s: q_subset_values(irreps, tup, b, s) for s in subsets}
    chars = [(tau.character()[h], tau.character().conj()) for tau in irreps]
    out = {}
    for s1 in subsets:
        for s2 in subsets:
            prod = qs[s1] * qs[s2]
            lhs = complex(np.mean(prod[cls]))
            rhs = sum(ch * np.mean(cc * prod) for ch, cc in chars)
            out[(s1, s2)] = (lhs, complex(rhs))
    return out


def test_second_moment_terms_consistent():
    G, irr, h = wreath3()
    sp = RegisterSpace(G, irr, 2, seed=4)
    ti = 31
    b = sp.frames[ti].vectors[:, 1]
    lhs, rhs = second_moment_check(G, irr, sp.tuples[ti], b, h)
    assert abs(lhs - rhs) < 1e-10
    terms = second_moment_terms(G, irr, sp.tuples[ti], b, h)
    assert len(terms) == 9
    worst = max(abs(l - r) for l, r in terms.values())
    assert worst < 1e-10
    total = sum(l for l, _ in terms.values()) / 16
    assert abs(total - lhs) < 1e-10


def test_avg_tv_same_from_cold_and_warm_bases_store():
    # the first space fills the irreps' shared plus_bases store, the second
    # reads it back
    G, irr, h = wreath3()
    assert not any(r.plus_bases for r in irr)
    a = avg_tv_over_conjugates(RegisterSpace(G, irr, 1, seed=11), h)
    assert all(r.plus_bases for r in irr)
    b = avg_tv_over_conjugates(RegisterSpace(G, irr, 1, seed=11), h)
    assert a == b
    assert len(a["per_conjugate"]) == 6
    assert 0 < a["avg_tv"] <= 1


def test_sampling_starts_no_thread(capsys, monkeypatch):
    # --threads and HSPSIM_THREADS are validated and run nothing in
    # parallel, even with CPUs to spare
    monkeypatch.setenv("HSPSIM_TIMESTAMP", "0")

    def run(argv):
        rc = cli.main(argv)
        assert rc == 0
        return capsys.readouterr().out

    def refuse(thread):
        raise AssertionError(f"a thread was started: {thread!r}")

    sim = ["simulate", "--group", "psl2:5", "--k", "2", "--frame-kind",
           "fused"]
    lemmas = ["verify", "--suite", "lemmas", "--group", "wreath:3", "--k",
              "2"]
    serial = [run(argv + ["--threads", "1"]) for argv in (sim, lemmas)]
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run(sim + ["--threads", "8"]) == serial[0]
    assert run(lemmas + ["--threads", "8"]) == serial[1]
    monkeypatch.setenv("HSPSIM_THREADS", "8")
    assert run(sim) == serial[0]


def total_variation(dist_a, dist_b):
    """Half the l1 sum."""
    return 0.5 * l1_distance(dist_a, dist_b)


def test_tv_is_half_l1():
    G, irr, h = wreath3()
    sp = RegisterSpace(G, irr, 1, seed=2)
    ref = reference_distribution(sp)
    dist = coset_distribution(sp, h)
    assert total_variation(dist, ref) == 0.5 * l1_distance(dist, ref)
    assert total_variation(ref, ref) == 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_lemma_suite_wreath3(k):
    G, irr, h = wreath3()
    out = lemma_suite(G, irr, h, k=k, eps=0.2, seed=3)
    assert [e["check"] for e in out] == [
        "second-moment identity",
        "isotypic projection bound",
        "diagonal overlap bound",
        "x second moment below delta1",
        "distance against x first moment",
    ]
    for e in out:
        assert e["pass"] is True, e
    d1 = [e for e in out if e["check"] == "x second moment below delta1"][0]
    assert abs(d1["rhs"] - 6.311111111111111) < 1e-12


def test_lemma_suite_hypothesis_not_met():
    G = make_group("s3")
    irr = irreps_symmetric(3)
    h = G.involutions()[0]
    out = lemma_suite(G, irr, h, k=2, eps=0.3, seed=0)  # 2*2*0.3 >= 1
    tail = out[-1]
    assert tail["check"] == "distance against x first moment"
    assert tail["pass"] is None
    assert "hypothesis" in tail["detail"]
    for e in out[:-1]:
        assert e["pass"] is True


def _subsets(k):
    return [s for r in range(1, k + 1)
            for s in itertools.combinations(range(k), r)]


def _subset_stacks(G, irr, tup, subsets):
    return {s: factor_stack(G, [irr[i] if pos in s else irr[i].degree
                                for pos, i in enumerate(tup)])
            for s in subsets}


@pytest.mark.parametrize("spec, k", [
    *[(spec, k) for spec in ("s3", "dihedral:4", "psl2:5", "wreath:2")
      for k in (1, 2)],
    ("dihedral:4", 3)])
def test_isotypic_screen_matches_reference_einsum(spec, k):
    # every tuple, subset pair and tau, on each tuple's first frame vector;
    # the reference is the 4-operand einsum with tau as an output axis
    G = make_group(spec)
    irr = irreps_for(G)
    N = G.order
    sp = RegisterSpace(G, irr, k, seed=5)
    subsets = _subsets(k)
    chis = np.array([tau.character().conj() for tau in irr])
    scales = np.array([tau.degree / N for tau in irr])[:, None, None]
    weights = scales[:, :, 0] * chis
    for ti, tup in enumerate(sp.tuples):
        stacks = _subset_stacks(G, irr, tup, subsets)
        b = sp.frames[ti].vectors[:, 0]
        W = np.outer(b, b)
        Ab = {s: stacks[s] @ b for s in subsets}
        for s1 in subsets:
            for s2 in subsets:
                got = _isotypic_screen(weights, Ab[s1], Ab[s2])
                y = scales * np.einsum("tg,gik,kl,gjl->tij", chis, stacks[s1],
                                       W, stacks[s2], optimize=True)
                want = np.sum(np.abs(y) ** 2, axis=(1, 2))
                assert np.max(np.abs(got - want)) < 1e-12


def _isotypic_entry_reference(G, irr, h, k, seed, n_tuples=3, n_vectors=3):
    """The isotypic check as one exact 4-operand einsum per case, with the
    sampling draws of lemma_suite (the second-moment check draws first)."""
    N = G.order
    sp = RegisterSpace(G, irr, k, seed=seed)
    rng = np.random.default_rng(seed + 987654321)
    picks = rng.choice(len(sp.tuples), size=min(n_tuples, len(sp.tuples)),
                       replace=False)
    for ti in picks:
        f = sp.frames[ti]
        rng.choice(f.size, size=min(n_vectors, f.size), replace=False)
    worst = (np.inf, None)
    subsets = _subsets(k)
    for ti in picks:
        f = sp.frames[ti]
        stacks = _subset_stacks(G, irr, sp.tuples[ti], subsets)
        cols = rng.choice(f.size, size=min(n_vectors, f.size), replace=False)
        for bi in cols:
            b = f.vectors[:, bi]
            W = np.outer(b, b)
            qmean = {s: float(np.mean(np.abs(
                np.einsum("i,gij,j->g", b.conj(), stacks[s], b)) ** 2))
                for s in subsets}
            for s1 in subsets:
                for s2 in subsets:
                    for tau in irr:
                        chi = tau.character().conj()
                        y = (tau.degree / N) * np.einsum(
                            "g,gik,kl,gjl->ij", chi, stacks[s1], W, stacks[s2])
                        lhs = float(np.sum(np.abs(y) ** 2))
                        rhs = (tau.degree ** 2 / 2) * (qmean[s1] + qmean[s2])
                        if rhs - lhs < worst[0]:
                            worst = (rhs - lhs,
                                     (sp.labels[ti], s1, s2, tau.label),
                                     lhs, rhs)
    return {
        "check": "isotypic projection bound",
        "lhs": worst[2], "rhs": worst[3], "slack": worst[0],
        "detail": f"tightest case {worst[1]}",
        "pass": bool(worst[0] >= -1e-9),
    }


@pytest.mark.parametrize("spec, k, seed", [("dihedral:4", 3, 0),
                                           ("wreath:3", 2, 3)])
def test_isotypic_check_equals_exact_loop(spec, k, seed):
    # the two cases with the most exact ties among the screened cases
    G = make_group(spec)
    irr = irreps_for(G)
    h = G.default_involution()
    out = lemma_suite(G, irr, h, k, 0.2, seed=seed)
    got = next(e for e in out if e["check"] == "isotypic projection bound")
    assert got == _isotypic_entry_reference(G, irr, h, k, seed)


def test_second_moment_names_a_tuple_when_every_error_is_zero():
    G = make_group("cyclic:2")
    irr = irreps_for(G)
    out = lemma_suite(G, irr, G.default_involution(), k=1, eps=0.2)
    e = out[0]
    assert e["check"] == "second-moment identity"
    assert e["lhs"] == 0.0
    assert e["detail"] in {f"worst |class-avg - fourier| at tuple {r.label}"
                           for r in irr}


def _dense_mixture_distance(G, h, t):
    N = G.order
    cls = list(G.class_of(h))
    acc = np.zeros((N ** t, N ** t))
    for c in cls:
        sigma = coset_state(G, order_two_subgroup(G, c))
        M = sigma
        for _ in range(t - 1):
            M = np.kron(M, sigma)
        acc += M
    acc /= len(cls)
    acc -= np.eye(N ** t) / N ** t
    return float(np.sum(np.abs(np.linalg.eigvalsh(acc))))


@pytest.mark.parametrize("spec,t", [("s3", 1), ("s3", 2), ("dihedral:4", 1),
                                    ("dihedral:4", 2), ("dihedral:4", 3)])
def test_mixed_distance_matches_dense(spec, t):
    G = make_group(spec)
    irr = irreps_symmetric(3) if spec == "s3" else irreps_generic(G, seed=0)
    h = G.involutions()[0]
    block = mixed_conjugate_trace_distance(G, irr, h, t)
    dense = _dense_mixture_distance(G, h, t)
    assert abs(block - dense) < 1e-9


def _mixed_over_ordered_tuples(G, irr, h, t):
    # one eigensolve per ordered t-tuple, summed pairwise
    cls = list(G.class_of(h))
    stacks = [r.mats[cls] + np.eye(r.degree) for r in irr]
    contrib = []
    for tup in itertools.product(range(len(irr)), repeat=t):
        acc = functools.reduce(kron_stack, [stacks[i] for i in tup])
        M = acc.mean(axis=0) - np.eye(acc.shape[1])
        contrib.append(acc.shape[1] * np.sum(np.abs(np.linalg.eigvalsh(M))))
    return util.pairwise_sum(contrib) / G.order ** t


@pytest.mark.parametrize("spec,t", [("wreath:3", 2), ("wreath:3", 3),
                                    ("psl2:5", 3), ("dihedral:4", 4)])
def test_mixed_distance_multisets_equal_ordered_tuples(spec, t):
    G, irr = _group_irreps(spec)
    h = G.default_involution()
    got = mixed_conjugate_trace_distance(G, irr, h, t)
    assert abs(got - _mixed_over_ordered_tuples(G, irr, h, t)) < 1e-12


def test_mixed_distance_caps(monkeypatch):
    import hspsim.simulate as simmod

    def no_stack(*args):
        raise AssertionError("Kronecker stack built")

    monkeypatch.setattr(simmod, "kron_stack", no_stack)
    G, irr, h = wreath3()
    with pytest.raises(ResourceCap):
        mixed_conjugate_trace_distance(G, irr, h, 4)
    G4 = make_group("dihedral:4")  # 5^9 tuples
    with pytest.raises(ResourceCap, match="t=9"):
        mixed_conjugate_trace_distance(G4, irreps_for(G4), 4, 9)


def test_transfer_subgroup_wreath_into_s6():
    W, S6, emb = wreath_embedding(3)
    rep = transfer_subgroup_report(S6, emb, W, W.swap_element())
    assert rep["pass"] is True
    assert rep["index"] == 10
    assert rep["max_spectral_diff"] < 1e-9


def test_transfer_quotient_sl2_to_psl2():
    sl, psl = make_sl2(5), make_psl2(5)
    proj = sl2_to_psl2_map(sl, psl)
    h = psl.involutions()[0]
    rep = transfer_quotient_report(sl, proj, psl, h)
    assert rep["pass"] is True
    assert rep["preimage_order"] == 4
    assert rep["nonzero_count"] == 30
    assert rep["max_spectral_diff"] < 1e-9

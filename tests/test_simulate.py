"""Coset-state sampling: distributions, moment identities, distances."""
import functools
import itertools
import os
import re
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hspsim import bounds, cli, simulate, util
from hspsim.fourier import factor_stack, qft, rank_r
from hspsim.frames import random_frame
from hspsim.groups import (
    make_group,
    PSL2Group,
    SL2Group,
)
from hspsim.irreps import (
    Irrep, irreps_for, irreps_generic, irreps_symmetric, irreps_wreath,
    schur_orthogonality_error,
)
from hspsim.simulate import (
    RegisterSpace,
    _isotypic_screen,
    avg_tv_over_conjugates,
    coset_state,
    fourier_blocks,
    fourier_roundtrip_error,
    lemma_suite,
    mixed_conjugate_trace_distance,
    plus_bases,
    q_subset_values,
    q_total_values,
    require_sampling,
    second_moment_check,
)
from hspsim.util import ResourceCap, check_entry, kron_apply, kron_stack

from helpers import (
    coset_distribution, l1_distance, order_three_element,
    quadforms_per_subset, sl2_to_psl2_map, transfer_quotient_report,
    transfer_subgroup_report, wreath_embedding,
)


def wreath3():
    G = make_group("wreath:3")
    return G, irreps_wreath(3), G.swap_element()


def test_coset_state_shape_and_spectrum():
    G = make_group("s3")
    h = G.involutions()[0]
    sigma = coset_state(G, h)
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
        coset_state(G, 4947)


def test_fourier_blocks_trace_is_tuple_probability():
    G, irr, h = wreath3()
    blocks = fourier_blocks(G, h, irr)
    sp = RegisterSpace(G, irr, 1, h)
    total = 0.0
    for ti, entry in enumerate(blocks):
        tr = float(np.trace(entry["block"]).real)
        assert abs(tr - sp.subgroup_prob(ti)) < 1e-12
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
    assert fourier_roundtrip_error(G, h, irr) < 1e-9


def test_roundtrip_order_cap():
    # 2 |G|^3 multiply-adds, refused before the (here empty) irreps are read
    G = make_group("cyclic:1358")
    with pytest.raises(ResourceCap, match="multiply-adds"):
        fourier_roundtrip_error(G, 679, [])


def test_register_budget_cap():
    # psl2:13's degrees.  A space holds the largest frame and its draw, 16 (1 +
    # DRAW_MATRICES) D^2 bytes: 3.6e8 at D = 14^3 and 7.1e10 at D = 14^4.
    # At k = 3 the lemma suite's 91 conjugates of the involution bring the
    # evaluations to 5e12 multiply-adds.
    degs = [1, 7, 7, 12, 12, 12, 13, 14, 14]
    labels = [f"rho{i}" for i in range(len(degs))]
    require_sampling(labels, degs, 3)
    with pytest.raises(ResourceCap, match=r"rho7\|rho7\|rho7 has "
                       r"dimension 2744\) needs 4.98e\+12 multiply-adds"):
        require_sampling(labels, degs, 3, conjugates=91)
    with pytest.raises(ResourceCap, match=r"rho7\|rho7\|rho7\|rho7 has "
                       r"dimension 3.842e\+04\) needs 7.08e\+10 bytes"):
        require_sampling(labels, degs, 4)


def test_sampling_charges_each_irrep_beside_its_tuples():
    # an irrep holds about 1 KB beside its tuples, its listing and +1
    # eigenbasis: at k = 1 the largest cyclic group admitted is
    # cyclic:430078, which ran in a 1 GiB child (894 MiB, 84 s)
    def listing(n):
        return ["chi0"] * n, [1] * n

    require_sampling(*listing(430078), 1, conjugates=1)
    with pytest.raises(ResourceCap, match=r"\(4.301e\+05 tuples; largest "
                       r"tuple chi0 has dimension 1\) needs 8.81e\+08 bytes"):
        require_sampling(*listing(430080), 1, conjugates=1)


def test_wreath3_tuple_probabilities_frozen():
    G, irr, h = wreath3()
    sp = RegisterSpace(G, irr, 1, h)
    got = sorted(sp.subgroup_prob(ti) for ti in range(9))
    want = sorted([1 / 36, 1 / 36, 0, 0, 1 / 18, 1 / 3, 1 / 9, 2 / 9, 2 / 9])
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12


@pytest.mark.parametrize("kind", ["basis", "fused"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("spec", ["s3", "wreath:2", "psl2:5"])
def test_frame_is_the_tuples_own_draw(spec, k, kind):
    G = make_group(spec)
    sp = RegisterSpace(G, irreps_for(G), k, G.default_involution(), kind=kind)
    seeds = np.random.SeedSequence(9).spawn(len(sp.tuples))
    for ti, d in enumerate(sp.dims):
        want = random_frame(d, [seeds[ti]], kind)[0]
        got = sp.frame(ti, 9)
        assert np.array_equal(got.vectors, want.vectors)
        assert np.array_equal(got.weights, want.weights)
        assert got.size == sp.sizes[ti]
        assert np.all(got.weights == sp.weight)


@pytest.mark.parametrize("kind", ["basis", "fused"])
def test_frame_seeded_when_drawn_is_the_spawned_child(kind):
    # one space serves every seed: frame(ti, seed) is bit for bit the draw
    # from SeedSequence(seed).spawn(n)[ti], for every tuple of s4 at k = 2
    G = make_group("s4")
    sp = RegisterSpace(G, irreps_for(G), 2, G.default_involution(), kind=kind)
    for seed in (3, 2 ** 32 - 1):
        seeds = np.random.SeedSequence(seed).spawn(len(sp.tuples))
        for ti, d in enumerate(sp.dims):
            want = random_frame(d, [seeds[ti]], kind)[0]
            got = sp.frame(ti, seed)
            assert np.array_equal(got.vectors, want.vectors)
            assert np.array_equal(got.weights, want.weights)


def eager_avg_tv(space, seed):
    """avg_tv_over_conjugates with every frame drawn and held first, each
    rank-0 tuple's row sized and weighted from its frame: the reference."""
    frames = [space.frame(ti, seed) for ti in range(len(space.tuples))]
    cls, ranks = space.cls, space.ranks
    rows = []
    for ti, f in enumerate(frames):
        ref = space.plancherel(ti) * f.weights / space.dims[ti]
        dist = np.zeros((len(cls), f.size))
        if ranks[ti]:
            dist = (space.subgroup_prob(ti) * f.weights
                    * space.projected_forms(ti, f) / ranks[ti])
        rows.append(np.sum(np.abs(dist - ref), axis=1))
    l1s = util.pairwise_sum(rows).tolist()
    avg_l1 = util.pairwise_sum(l1s) / len(cls)
    return {
        "l1": l1s,
        "avg_l1": avg_l1, "avg_tv": 0.5 * avg_l1, "max_tv": 0.5 * max(l1s),
    }


@pytest.mark.parametrize("k,kind", [(1, "basis"), (2, "fused")])
def test_avg_tv_draws_each_used_frame_once(monkeypatch, k, kind):
    # wreath:3 has rank-0 tuples at both k; a space holds no frame, and the
    # distances equal, bit for bit, those of a reference holding every frame
    G, irr, h = wreath3()
    drawn = []  # the seed of every draw

    def counted(d, seeds, frame_kind):
        drawn.extend(seeds)
        return random_frame(d, seeds, frame_kind)

    monkeypatch.setattr(simulate, "random_frame", counted)
    sp = RegisterSpace(G, irr, k, h, kind=kind)
    assert drawn == []
    ranks = sp.ranks
    assert 0 in ranks
    got = avg_tv_over_conjugates(sp, 4)
    # drawn in stacks of one shape, so not in tuple order
    assert sorted((s.entropy, s.spawn_key) for s in drawn) == [
        (4, (ti,)) for ti, r in enumerate(ranks) if r]
    assert got == eager_avg_tv(sp, 4)


@pytest.mark.parametrize("spec, k, kind", [("s3", 2, "basis"),
                                           ("wreath:2", 2, "fused")])
def test_lemma_suite_holds_one_frame_at_a_time(monkeypatch, spec, k, kind):
    # the lemma suite draws each frame when it uses it: each picked
    # tuple's once for the second-moment and isotypic checks, then every
    # tuple's once, in stacks of one shape.
    # When it draws, the frames drawn before and still alive, whether as a
    # Frame or as a view of its vectors' memory, hold at most the larger of
    # one frame and util.BLOCK_BYTES.  A block of one complex entry makes
    # every stack one frame, none smaller than a block, so two alive fail
    G = make_group(spec)
    irr, h = irreps_for(G), G.default_involution()
    want = lemma_suite(G, irr, h, k, 0.1, seed=2, kind=kind)
    sp = RegisterSpace(G, irr, k, h, kind=kind)
    picks = np.random.default_rng(2 + 987654321).choice(
        len(sp.tuples), size=min(simulate.LEMMA_SAMPLES, len(sp.tuples)),
        replace=False)
    for block in (util.BLOCK_BYTES, 16):
        monkeypatch.setattr(util, "BLOCK_BYTES", block)
        drawn, vectors, held = [], [], []

        def tracked(d, seeds, frame_kind):
            live = [v for v in (ref() for ref in drawn) if v is not None]
            frame = random_frame(d, seeds, frame_kind)
            one = max([v.nbytes // len(v) for v in live], default=0)
            held.append((sum(v.nbytes for v in live), max(one, block)))
            v = frame.vectors
            drawn.append(weakref.ref(v if v.base is None else v.base))
            vectors.append(frame.size)
            return frame

        monkeypatch.setattr(simulate, "random_frame", tracked)
        assert lemma_suite(G, irr, h, k, 0.1, seed=2, kind=kind) == want
        assert sum(vectors) == (sum(sp.sizes[ti] for ti in picks)
                                + sum(sp.sizes))
        assert all(live <= bound for live, bound in held)
        assert max(live for live, _ in held) > 0


def conditional_distribution(space, ti, c, seed):
    """Outcome probabilities within tuple ti, given tuple ti was observed."""
    r = space.ranks[ti]
    f = space.frame(ti, seed)
    if r == 0:
        return np.zeros(f.size)
    return f.weights * space.projected_forms(ti, f)[space.cls.index(c)] / r


@pytest.mark.parametrize("k,kind", [(1, "basis"), (2, "basis"), (1, "fused")])
def test_distributions_normalized(k, kind):
    G, irr, h = wreath3()
    sp = RegisterSpace(G, irr, k, h, kind=kind)
    assert abs(sum(p * m for p, m in zip(sp.ref, sp.sizes)) - 1) < 1e-10
    dist = coset_distribution(sp, h, 5)
    assert abs(sum(float(v.sum()) for v in dist) - 1) < 1e-10
    assert all(float(v.min()) >= -1e-12 for v in dist)
    for ti in range(len(sp.tuples)):
        cond = conditional_distribution(sp, ti, h, 5)
        if sp.ranks[ti] > 0:
            assert abs(float(cond.sum()) - 1) < 1e-10
        else:
            assert float(np.abs(cond).sum()) == 0.0


def distribution_rows(space, dist):
    """(label, outcome index, probability) rows of a joint distribution."""
    rows = []
    for ti, vec in enumerate(dist):
        lab = space.label(ti)
        for bi, p in enumerate(vec):
            rows.append((lab, bi, float(p)))
    return rows


def test_distribution_rows_structure():
    G, irr, h = wreath3()
    sp = RegisterSpace(G, irr, 1, h)
    rows = distribution_rows(sp, [np.full(m, p) for p, m in
                                  zip(sp.ref, sp.sizes)])
    assert len(rows) == sum(sp.frame(ti, 0).size
                            for ti in range(len(sp.tuples)))
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
    sp = RegisterSpace(G, irr, 2, h)
    ti = 40
    f = sp.frame(ti, 3)
    vals = sp.projected_forms(ti, f)[sp.cls.index(h)]
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
    sp = RegisterSpace(G, irr, k, G.default_involution())
    for ti, tup in enumerate(sp.tuples):
        f = sp.frame(ti, 11)
        V = f.vectors
        for c, got in zip(sp.cls, sp.projected_forms(ti, f)):
            K = _dense_kron([(np.eye(irr[i].degree) + irr[i].mats[c]) / 2
                             for i in tup])
            want = np.einsum("im,ij,jm->m", V.conj(), K, V)
            assert np.max(np.abs(want.imag)) < 1e-12
            assert np.max(np.abs(got - want.real)) < 1e-12
            for bi in range(V.shape[1]):
                x = x_function(irr, tup, V[:, bi], c)
                assert abs(x - (want[bi].real - 0.5 ** k)) < 1e-12


# groups with the largest k at which |G|^k stays small enough for dense
# N^k x N^k matrices: those whose irreps are real, conj(rho) = rho, and
# cyclic:6, whose one-dimensional irreps agree with the oracle whether the
# measured register holds rho or conj(rho)
ORACLE_CASES = {"s3": 3, "wreath:2": 3, "s4": 2, "wreath:3": 1, "cyclic:6": 3}
# groups with irreps that are not real on a class of involutions, where
# fourier_blocks and qft put conj(rho)(H) in the measured register but
# projected_forms measures (I + rho(c))/2
CONJ_CASES = [("psl2:5", 1), ("dihedral:4", 1), ("dihedral:4", 2),
              ("dihedral:5", 1)]


@functools.lru_cache(maxsize=None)
def _group_irreps(spec):
    G = make_group(spec)
    return G, irreps_for(G)


def _oracle_rows(G, irr, c, k, space, seed):
    """Outcome probabilities per (tuple, frame vector) from dense matrix
    algebra: qft^(x)k sigma_H^(x)k qft^(x)k^dagger for H = {e, c},
    restricted to each tuple's block, with the multiplicity (row-index)
    registers traced out, measured on the tuple's frame of seed."""
    N = G.order
    F = qft(G, irr)
    sigma = coset_state(G, c)
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
        f = space.frame(ti, seed)
        p = f.weights * np.einsum("im,ij,jm->m", f.vectors.conj(), M,
                                  f.vectors)
        assert np.max(np.abs(p.imag)) < 1e-12
        out.append(p.real)
    return out


@pytest.mark.parametrize("spec, k", [(spec, k) for spec, kmax
                                     in ORACLE_CASES.items()
                                     for k in range(1, kmax + 1)] + [
    pytest.param(spec, k, marks=pytest.mark.xfail(strict=True, reason=(
        "the sampling kernel measures (I + rho(c))/2 where the transform "
        "puts conj(rho) in the register (the conj(rho) convention defect)")))
    for spec, k in CONJ_CASES])
def test_dense_oracle_reproduces_coset_distribution(spec, k):
    # every involution c of the group, every tuple and frame vector, on a
    # space sampled at c
    G, irr = _group_irreps(spec)
    for c in G.involutions():
        for kind in ("basis", "fused"):
            sp = RegisterSpace(G, irr, k, c, kind=kind)
            want = _oracle_rows(G, irr, c, k, sp, 17)
            got = coset_distribution(sp, c, 17)
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
    invs = G.involutions()
    sp = RegisterSpace(G, irr, k, invs[pick % len(invs)], kind=kind)
    for c in sp.cls:
        dist = coset_distribution(sp, c, seed)
        assert all(float(row.min()) >= 0.0 for row in dist)
        assert abs(sum(float(row.sum()) for row in dist) - 1) < 1e-10


def test_plus_bases_are_checked_involution_eigenbases():
    # W^dagger W = I_r, rho(x) W = W and r = (d + chi(x))/2, real on real
    # irreps; a space at h builds the same arrays, and its ranks from them
    for spec in ("wreath:3", "psl2:5"):
        G, irr = _group_irreps(spec)
        h = G.default_involution()
        cls, bases = plus_bases(irr, h)
        assert cls == G.class_of(h)
        for r, Wh in zip(irr, bases):
            n = round((r.degree + r.character()[h].real) / 2)
            assert Wh.shape == (len(cls), n, r.degree)
            assert np.isrealobj(Wh) == (spec == "wreath:3")
            W = Wh.conj().swapaxes(1, 2)
            assert np.max(np.abs(Wh @ W - np.eye(n)), initial=0) < 1e-12
            assert np.max(np.abs(r.mats[list(cls)] @ W - W),
                          initial=0) < 1e-12
        sp = RegisterSpace(G, irr, 1, h)
        assert sp.cls == cls and len(sp.bases) == len(bases)
        assert all(np.array_equal(a, b) for a, b in zip(sp.bases, bases))
        assert sp.ranks == [rank_r(r, h) for r in irr]


def test_plus_bases_name_a_non_involution():
    # the identity too, which squares to the identity
    G, irr, _ = wreath3()
    c = next(x for x in range(G.order)
             if G.compose(x, x) != G.identity and x != G.identity)
    for x in (c, G.identity):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"h = {G.pretty(x)} is not an involution") + "$"):
            plus_bases(irr, x)


def test_plus_bases_reject_a_broken_irrep():
    # chi(h) (1 + 1e-6) is past bounds.CHI_INTEGER_TOL: its rank is no
    # integer, and no basis is stored
    G, irr, h = wreath3()
    bad = [Irrep(G, r.label, r.mats * (1 + 1e-6)) for r in irr]
    with pytest.raises(ValueError, match="not an integer at h"):
        plus_bases(bad, h)


def test_plus_bases_reject_a_broken_eigenspace():
    # chi(h) (1 + 1e-7) passes bounds.CHI_INTEGER_TOL, but eigenvalues
    # 1 + 1e-7 are past BASIS_TOL: no basis is stored
    G, irr, h = wreath3()
    bad = [Irrep(G, r.label, r.mats * (1 + 1e-7)) for r in irr]
    with pytest.raises(ValueError, match="has no rank-"):
        plus_bases(bad, h)


def test_plus_bases_memory_refusal(monkeypatch):
    # sum_i |class| d_i r_i entries of 8 bytes (real) or 16 bytes (complex)
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
    # each row of the whole class's forms is the dense projector's form at
    # that row's element
    G = make_group(spec)
    irr = irreps_for(G)
    h = G.default_involution()
    cls = G.class_of(h)
    sp = RegisterSpace(G, irr, k, h, kind=kind)
    for ti in range(0, len(sp.tuples), max(1, len(sp.tuples) // 16)):
        f = sp.frame(ti, 13)
        V = f.vectors
        rows = sp.projected_forms(ti, f)
        assert rows.shape == (len(cls), f.size)
        for row, c in zip(rows, cls):
            K = _dense_kron([(np.eye(irr[i].degree) + irr[i].mats[c]) / 2
                             for i in sp.tuples[ti]])
            want = np.einsum("im,ij,jm->m", V.conj(), K, V)
            assert np.max(np.abs(row - want.real)) < 1e-12


@pytest.mark.parametrize("kind", ["basis", "fused"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("spec", BATCH_SPECS)
def test_q_subset_block_equals_per_column(spec, k, kind):
    G = make_group(spec)
    irr = irreps_for(G)
    sp = RegisterSpace(G, irr, k, G.default_involution(), kind=kind)
    for ti in range(0, len(sp.tuples), max(1, len(sp.tuples) // 8)):
        V = sp.frame(ti, 13).vectors
        for s in _subsets(k):
            q = q_subset_values(irr, sp.tuples[ti], V, s)
            assert q.shape == (V.shape[1], G.order) and q.flags.c_contiguous
            for j in range(V.shape[1]):
                assert np.array_equal(
                    q[j], q_subset_values(irr, sp.tuples[ti], V[:, j], s))


@pytest.mark.parametrize("kind", ["basis", "fused"])
@pytest.mark.parametrize("spec", ["s4", "wreath:3"])
def test_stacked_frames_are_each_tuples_own_draw(spec, kind):
    # the passes draw a batch's tuples in one stack: each is bit for bit
    # frame(ti, seed), a batch is one shape, and a stack of more than one
    # frame fits util.BLOCK_BYTES
    G = make_group(spec)
    sp = RegisterSpace(G, irreps_for(G), 2, G.default_involution(), kind=kind)
    seen = []
    for batch, stack in sp.draws(range(len(sp.tuples)), 7):
        assert len({tuple(sp.degrees[i] for i in sp.tuples[ti])
                    for ti in batch}) == 1
        assert len(batch) == 1 or stack.vectors.nbytes <= util.BLOCK_BYTES
        for j, ti in enumerate(batch):
            one = sp.frame(ti, 7)
            assert stack[j].vectors.tobytes() == one.vectors.tobytes()
            assert np.array_equal(stack[j].weights, one.weights)
        seen += batch
    assert sorted(seen) == list(range(len(sp.tuples)))


@pytest.mark.parametrize("kind", ["basis", "fused"])
@pytest.mark.parametrize("spec, k", [("wreath:3", 2), ("dihedral:4", 3),
                                     ("psl2:5", 2)])
def test_chained_kernel_equals_per_subset_reference(spec, k, kind):
    # on the lemma pass's stacked batches, each subset's q of each tuple,
    # which extends its prefix's apply, is bit for bit its own einsum chain
    # from b; so are q_subset_values and q_total_values (on the I + rho
    # stacks, less 1)
    G = make_group(spec)
    irr = irreps_for(G)
    sp = RegisterSpace(G, irr, k, G.default_involution(), kind=kind)
    subsets = _subsets(k)
    for batch, stack in sp.draws(range(len(sp.tuples)), 5, G.order):
        stacks = [np.stack([irr[sp.tuples[ti][i]].mats for ti in batch])
                  for i in range(k)]
        got = dict(simulate._quadforms(stacks, stack.vectors, subsets))
        assert list(got) == sorted(subsets)  # depth first
        for j, ti in enumerate(batch):
            mats = [irr[i].mats for i in sp.tuples[ti]]
            dims = tuple(m.shape[1] for m in mats)
            V = stack[j].vectors
            for s in subsets:
                want = quadforms_per_subset({i: mats[i] for i in s}, dims, V)
                assert np.array_equal(got[s][j], want)
                assert np.array_equal(
                    q_subset_values(irr, sp.tuples[ti], V, s), want)
            b = V[:, -1]
            want = quadforms_per_subset(
                {i: m + np.eye(m.shape[1]) for i, m in enumerate(mats)},
                dims, b) - 1.0
            assert np.array_equal(q_total_values(irr, sp.tuples[ti], b),
                                  want)


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
    sp = RegisterSpace(G, irr, k, h, kind=kind)
    want = [l1_distance(coset_distribution(sp, c, 0), sp.ref) for c in cls]
    res = avg_tv_over_conjugates(sp, 0)
    assert res["l1"] == want
    out = lemma_suite(G, irr, h, k, eps, seed=0, kind=kind)
    got = next(e for e in out if e["check"] == "distance against x first moment")
    ci = [f"tightest conjugate {G.pretty(c)}" for c in cls].index(got["detail"])
    assert got["lhs"] == want[ci]


@pytest.mark.parametrize("entries", [1, 2048])
def test_block_size_changes_no_bit(monkeypatch, entries):
    # blocks of 2048 complex entries leave a short last block of class
    # elements (D = 16) and of frame vectors (D = 4, 8)
    G, irr, h = wreath3()

    def results():
        sp = RegisterSpace(G, irr, 2, h, kind="fused")
        return ([sp.projected_forms(ti, sp.frame(ti, 3))
                 for ti in range(len(sp.tuples))],
                avg_tv_over_conjugates(sp, 3),
                lemma_suite(G, irr, h, 2, 0.2, seed=3, kind="fused"))

    forms, tv, suite = results()
    monkeypatch.setattr(util, "BLOCK_BYTES", 16 * entries)
    got_forms, got_tv, got_suite = results()
    assert all(np.array_equal(a, b) for a, b in zip(got_forms, forms))
    assert got_tv == tv and got_suite == suite


def test_q_decomposition():
    G, irr, h = wreath3()
    sp = RegisterSpace(G, irr, 2, h)
    ti = 40
    b = sp.frame(ti, 1).vectors[:, 2]
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
    sp = RegisterSpace(G, irr, 2, h)
    ti = 31
    b = sp.frame(ti, 4).vectors[:, 1]
    lhs, rhs = second_moment_check(G, irr, sp.tuples[ti], b, h)
    assert abs(lhs - rhs) < 1e-10
    terms = second_moment_terms(G, irr, sp.tuples[ti], b, h)
    assert len(terms) == 9
    worst = max(abs(l - r) for l, r in terms.values())
    assert worst < 1e-10
    total = sum(l for l, _ in terms.values()) / 16
    assert abs(total - lhs) < 1e-10


def test_avg_tv_reads_the_bases_built_with_the_space():
    # the space builds the +1 eigenbases at every element of the class of
    # h, and each call reads them: a second call gives the same distances
    G, irr, h = wreath3()
    sp = RegisterSpace(G, irr, 1, h)
    assert sp.cls == G.class_of(h)
    bases = [W.copy() for W in sp.bases]
    a = avg_tv_over_conjugates(sp, 11)
    assert all(np.array_equal(x, y) for x, y in zip(sp.bases, bases))
    b = avg_tv_over_conjugates(sp, 11)
    assert a == b
    assert len(a["l1"]) == 6
    assert 0 < a["avg_tv"] <= 1


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("spec", ["cyclic:12", "wreath:3", "psl2:5",
                                  "dihedral:4"])
def test_sampling_bit_identical_on_row_built_irreps(spec, k):
    # sampling reads fresh irreps at e and the class of h only; each reader
    # it runs gives the bits of irreps whose whole stacks were read first
    from hspsim.bounds import params_from_irreps
    G = make_group(spec)
    h = G.default_involution()
    whole = irreps_for(G)
    assert all(r.mats.shape[0] == G.order for r in whole)
    fresh = irreps_for(G)
    assert (avg_tv_over_conjugates(RegisterSpace(G, fresh, k, h), 4)
            == avg_tv_over_conjugates(RegisterSpace(G, whole, k, h), 4))
    assert (mixed_conjugate_trace_distance(G, fresh, h, 2)
            == mixed_conjugate_trace_distance(G, whole, h, 2))
    assert (params_from_irreps(G, fresh, h, 0.2)
            == params_from_irreps(G, whole, h, 0.2))


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
    sp = RegisterSpace(G, irr, 1, h)
    ref = sp.ref
    dist = coset_distribution(sp, h, 2)
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
        assert e["status"] == "PASS", e
    d1 = [e for e in out if e["check"] == "x second moment below delta1"][0]
    assert abs(d1["rhs"] - 6.311111111111111) < 1e-12


def test_lemma_suite_hypothesis_not_met():
    G = make_group("s3")
    irr = irreps_symmetric(3)
    h = G.involutions()[0]
    out = lemma_suite(G, irr, h, k=2, eps=0.3, seed=0)  # 2*2*0.3 >= 1
    tail = out[-1]
    assert tail == check_entry(
        "distance against x first moment", None,
        detail="hypothesis 2*k*eps < 1 fails (2*2*0.3 >= 1)")
    for e in out[:-1]:
        assert e["status"] == "PASS"


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
    sp = RegisterSpace(G, irr, k, G.default_involution())
    subsets = _subsets(k)
    chis = np.array([tau.character().conj() for tau in irr])
    scales = np.array([tau.degree / N for tau in irr])[:, None, None]
    weights = scales[:, :, 0] * chis
    for ti, tup in enumerate(sp.tuples):
        stacks = _subset_stacks(G, irr, tup, subsets)
        b = sp.frame(ti, 5).vectors[:, 0]
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
    sampling draws of lemma_suite (the second-moment check's vectors are
    chosen first)."""
    N = G.order
    sp = RegisterSpace(G, irr, k, h)
    rng = np.random.default_rng(seed + 987654321)
    picks = rng.choice(len(sp.tuples), size=min(n_tuples, len(sp.tuples)),
                       replace=False)
    for ti in picks:
        f = sp.frame(ti, seed)
        rng.choice(f.size, size=min(n_vectors, f.size), replace=False)
    worst = (np.inf, None)
    subsets = _subsets(k)
    for ti in picks:
        f = sp.frame(ti, seed)
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
                                     (sp.label(ti), s1, s2, tau.label),
                                     lhs, rhs)
    return check_entry("isotypic projection bound", worst[0] >= -1e-9,
                       lhs=worst[2], rhs=worst[3],
                       detail=f"tightest case {worst[1]}")


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
        sigma = coset_state(G, c)
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


@pytest.mark.parametrize("spec", ["s3", "s4", "dihedral:5", "psl2:5",
                                  "cyclic:6", "wreath:3"])
def test_mixed_distance_from_the_character_table(spec):
    # by Schur's lemma a class average of rho is a I, a = chi(h)/d.  So at
    # t = 1 the distance is (1/|G|) sum d |chi(h)|, bounds.char_eta.  At
    # t = 2 the block of (i, j) is (a_i + a_j) I + sum_sigma a_sigma P_sigma,
    # P_sigma the sigma-isotypic projector of rho_i (x) rho_j, of rank
    # m_sigma d_sigma with m_sigma = <chi_i chi_j, chi_sigma>
    G, irr = _group_irreps(spec)
    h = G.default_involution()
    N = G.order
    chi = np.array([r.character() for r in irr])
    d = np.array([r.degree for r in irr])
    a = chi[:, h].real / d
    eta = bounds.char_eta(N, d, np.abs(chi[:, h]))
    assert abs(mixed_conjugate_trace_distance(G, irr, h, 1) - eta) < 1e-12
    m = np.einsum("ig,jg,sg->ijs", chi, chi, chi.conj()) / N
    assert np.max(np.abs(m - np.round(m.real))) < 1e-9
    gaps = np.abs(a[:, None, None] + a[None, :, None] + a[None, None, :])
    want = np.einsum("i,j,ijs,s,ijs->", d, d, np.round(m.real), d,
                     gaps) / N ** 2
    assert abs(mixed_conjugate_trace_distance(G, irr, h, 2) - want) < 1e-12


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


@pytest.mark.parametrize("spec", ["s3", "s4", "s5", "wreath:2", "wreath:3",
                                  "wreath:4"])
def test_real_checks_match_their_complex_reference(spec):
    # the checks compute in the float64 of Young's form and the wreath
    # irreps; the same sums on the stacks cast to complex128 are the
    # reference (the Schur sums as one BLAS product over every pair)
    G = make_group(spec)
    N, h, irr = G.order, G.default_involution(), irreps_for(G)
    assert all(r.mats.dtype == np.float64 for r in irr)
    cx = [Irrep(G, r.label, r.mats.astype(np.complex128)) for r in irr]
    A = np.concatenate([r.mats.reshape(N, -1) for r in cx], axis=1)
    delta = np.concatenate([np.full(r.degree ** 2, 1 / r.degree) for r in cx])
    schur = float(np.abs(A.T @ A.conj() / N - np.diag(delta)).max())
    assert abs(schur_orthogonality_error(G, irr) - schur) < 1e-12
    assert abs(fourier_roundtrip_error(G, h, irr)
               - fourier_roundtrip_error(G, h, cx)) < 1e-12
    for t in (1, 2) if spec == "wreath:4" else (1, 2, 3):  # t=3 is refused
        assert abs(mixed_conjugate_trace_distance(G, irr, h, t)
                   - mixed_conjugate_trace_distance(G, cx, h, t)) < 1e-12


@pytest.mark.parametrize("bad", ["identity", "order 3"])
def test_every_reader_of_h_refuses_a_non_involution(bad):
    # each function that takes the hidden involution h checks it through
    # groups.involution, as the order-two subgroup it replaces did
    G, irr, _ = wreath3()
    x = G.identity if bad == "identity" else order_three_element(G)
    W, S6, emb = wreath_embedding(3)
    calls = {
        "coset_state": lambda: coset_state(G, x),
        "fourier_blocks": lambda: fourier_blocks(G, x, irr),
        "fourier_roundtrip_error": lambda: fourier_roundtrip_error(G, x, irr),
        "rank_r": lambda: rank_r(irr[0], x),
        "plus_bases": lambda: plus_bases(irr, x),
        "RegisterSpace": lambda: RegisterSpace(G, irr, 1, x),
        "lemma_suite": lambda: lemma_suite(G, irr, x, 1, 0.2),
        "transfer_subgroup_report":
            lambda: transfer_subgroup_report(S6, emb, W, x),
    }
    for name, call in calls.items():
        # the transfer check reads h at its image in S_6
        y = int(emb[x]) if name == "transfer_subgroup_report" else x
        group = S6 if name == "transfer_subgroup_report" else G
        try:
            call()
        except ValueError as e:
            assert str(e) == f"h = {group.pretty(y)} is not an involution", \
                name
        else:
            raise AssertionError(f"{name} accepted the {bad} as h")


def test_lemma_verify_refuses_a_non_involution(capsys, monkeypatch):
    # refused on --h, and by the library past it: the lemma suite and the
    # round trip both read h
    argv = ["verify", "--suite", "lemmas", "--group", "wreath:3", "--h"]
    G = make_group("wreath:3")
    x = order_three_element(G)
    want = f"hspsim verify: error: h = {G.pretty(x)} is not an involution\n"
    assert cli.main(argv + [f"id:{x}"]) == 64
    assert capsys.readouterr().err == want
    monkeypatch.setattr(cli, "resolve_h", lambda group, text: x)
    assert cli.main(argv + [f"id:{x}"]) == 64
    assert capsys.readouterr().err == want


def test_transfer_subgroup_wreath_into_s6():
    W, S6, emb = wreath_embedding(3)
    rep = transfer_subgroup_report(S6, emb, W, W.swap_element())
    assert rep["pass"] is True
    assert rep["index"] == 10
    assert rep["max_spectral_diff"] < 1e-9


def test_transfer_quotient_sl2_to_psl2():
    sl, psl = SL2Group(5), PSL2Group(5)
    proj = sl2_to_psl2_map(sl, psl)
    h = psl.involutions()[0]
    rep = transfer_quotient_report(sl, proj, psl, h)
    assert rep["pass"] is True
    assert rep["preimage_order"] == 4
    assert rep["nonzero_count"] == 30
    assert rep["max_spectral_diff"] < 1e-9

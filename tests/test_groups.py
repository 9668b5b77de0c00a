import itertools
import math
import random

import numpy as np
import pytest

from hspsim.groups import (
    CyclicGroup, DihedralGroup, DirectPowerGroup, FiniteGroup, PSL2Group,
    SL2Group, SymmetricGroup, WreathS2Group, cycle_notation, involution,
    make_group, parse_cycles,
)

from helpers import order_three_element, sl2_to_psl2_map, wreath_embedding

# frozen, derived independently: (constructor args -> expected order)
PSL_ORDERS = {4: 60, 5: 60, 7: 168, 8: 504, 9: 360, 11: 660, 13: 1092}


def check_associativity(group, samples=1000):
    """Exhaustive on the table for order <= 200, else random sampled triples."""
    if group.order <= 200:
        t = group.table()
        return bool(np.array_equal(t[t], t[:, t]))  # (xy)z and x(yz)
    rng = np.random.default_rng(0)
    x, y, z = rng.integers(0, group.order, (3, samples))
    c = group.compose
    return bool(np.array_equal(c(c(x, y), z), c(x, c(y, z))))


def element_order(group, x):
    k, acc = 1, x
    while acc != group.identity:
        acc = group.compose(acc, x)
        k += 1
    return k


def centralizer_order(group, x):
    """The number of ids that commute with x."""
    ids = np.arange(group.order)
    return int(np.sum(group.compose(ids, x) == group.compose(x, ids)))


def center_order(group):
    """The number of one-element conjugacy classes."""
    return sum(len(c) == 1 for c in group.conjugacy_classes())


def test_symmetric_ids_follow_itertools_permutations():
    for n in (1, 2, 3, 4, 5):
        S = SymmetricGroup(n)
        for x, p in enumerate(itertools.permutations(range(n))):
            assert S.perm(x) == p
            assert S.from_perm(p) == x
    assert SymmetricGroup(4).perm(0) == (0, 1, 2, 3)


def test_symmetric_compose_left_to_right():
    # apply (0 1) then (1 2): 0 -> 1 -> 2
    S = SymmetricGroup(3)
    a = S.from_perm((1, 0, 2))
    b = S.from_perm((0, 2, 1))
    ab = S.compose(a, b)
    assert type(ab) is int
    assert S.perm(ab) == (2, 0, 1)
    assert S.compose(a, S.inverse(a)) == S.identity


def test_cycle_notation_parse_roundtrip():
    rnd = random.Random(3)
    for _ in range(50):
        p = list(range(6))
        rnd.shuffle(p)
        p = tuple(p)
        assert parse_cycles(cycle_notation(p), 6) == p
    assert cycle_notation((0, 1, 2)) == "e"
    with pytest.raises(ValueError):
        parse_cycles("(1 9)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1 1)", 4)


@pytest.mark.parametrize("make,arg,order", [
    (SymmetricGroup, 3, 6),
    (SymmetricGroup, 4, 24),
    (SymmetricGroup, 6, 720),
    (CyclicGroup, 6, 6),
    (DihedralGroup, 4, 8),
    (WreathS2Group, 2, 8),
    (WreathS2Group, 3, 72),
    (PSL2Group, 5, 60),
    (SL2Group, 5, 120),
])
def test_orders_identity_inverses(make, arg, order):
    G = make(arg)
    assert G.order == order
    e = G.identity
    for x in range(G.order):
        assert G.compose(e, x) == x
        assert G.compose(x, e) == x
        assert G.compose(x, G.inverse(x)) == e
        assert G.compose(G.inverse(x), x) == e


@pytest.mark.parametrize("make,arg", [
    (SymmetricGroup, 4),          # 24 <= 200: exhaustive
    (DihedralGroup, 4),
    (CyclicGroup, 12),
    (WreathS2Group, 2),
    (PSL2Group, 5),               # 60 <= 200: exhaustive
    (PSL2Group, 13),              # sampled
    (WreathS2Group, 4),          # sampled
    (SL2Group, 9),                # sampled
])
def test_associativity(make, arg):
    assert check_associativity(make(arg))


def test_psl_orders():
    for q, order in PSL_ORDERS.items():
        assert PSL2Group(q).order == order


@pytest.mark.parametrize("make,arg", [
    (SymmetricGroup, 4), (DihedralGroup, 4), (WreathS2Group, 3),
    (PSL2Group, 5), (PSL2Group, 7),
])
def test_class_size_times_centralizer(make, arg):
    G = make(arg)
    for cls in G.conjugacy_classes():
        cent = centralizer_order(G, cls[0])
        assert len(cls) * cent == G.order
    assert sum(len(c) for c in G.conjugacy_classes()) == G.order


def test_involution_counts():
    # counts enumerated independently (S3: 3, S4: 9, D4: 5, PSL(2,5): 15)
    assert len(SymmetricGroup(3).involutions()) == 3
    assert len(SymmetricGroup(4).involutions()) == 9
    assert len(DihedralGroup(4).involutions()) == 5
    P = PSL2Group(5)
    inv = P.involutions()
    assert len(inv) == 15
    assert len(P.class_of(inv[0])) == 15  # a single class


def test_psl2_13_involution_class():
    P = PSL2Group(13)
    h = P.involutions()[0]
    assert len(P.class_of(h)) == 91
    assert centralizer_order(P, h) == 12


def test_psl2_pretty_is_matrix():
    P = PSL2Group(5)
    assert P.pretty(P.identity) == "[[1,0],[0,1]]"
    for x in range(P.order):
        a, b, c, d = P.matrix(x)
        assert (a * d - b * c) % 5 == 1
        assert P.from_matrix((a, b, c, d)) == x


def test_wreath_multiplication_rule():
    W = WreathS2Group(3)
    S = W.base
    pi1 = S.from_perm((1, 0, 2))
    s1 = S.from_perm((0, 2, 1))
    pi2 = S.from_perm((2, 0, 1))
    s2 = S.from_perm((1, 2, 0))
    # (p1,s1,0)(p2,s2,b) = (p1p2, s1s2, b)
    z = W.compose(W.pack(pi1, s1, 0), W.pack(pi2, s2, 1))
    assert W.unpack(z) == (S.compose(pi1, pi2), S.compose(s1, s2), 1)
    # (p1,s1,1)(p2,s2,b) = (p1s2, s1p2, 1+b)
    z = W.compose(W.pack(pi1, s1, 1), W.pack(pi2, s2, 1))
    assert W.unpack(z) == (S.compose(pi1, s2), S.compose(s1, pi2), 0)
    t = W.swap_element()
    assert W.compose(t, t) == W.identity
    assert W.pretty(t) == "(e|e|1)"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wreath_swap_class_shape(n):
    W = WreathS2Group(n)
    cls = W.class_of(W.swap_element())
    assert len(cls) == math.factorial(n)
    for x in cls:
        p, s, b = W.unpack(x)
        assert b == 1
        assert W.base.compose(p, s) == W.base.identity  # s = p^{-1}


def test_wreath_embedding_homomorphism():
    W, S, emb = wreath_embedding(3)
    assert len(set(int(v) for v in emb)) == W.order  # injective
    rnd = random.Random(11)
    for _ in range(300):
        x, y = rnd.randrange(W.order), rnd.randrange(W.order)
        assert int(emb[W.compose(x, y)]) == S.compose(int(emb[x]), int(emb[y]))
    assert S.pretty(int(emb[W.swap_element()])) == "(1 4)(2 5)(3 6)"


def test_sl2_to_psl2_quotient_map():
    SL, P = SL2Group(5), PSL2Group(5)
    mp = sl2_to_psl2_map(SL, P)
    assert center_order(SL) == 2
    rnd = random.Random(5)
    for _ in range(300):
        x, y = rnd.randrange(SL.order), rnd.randrange(SL.order)
        assert int(mp[SL.compose(x, y)]) == P.compose(int(mp[x]), int(mp[y]))
    # two-to-one and onto
    assert len(set(int(v) for v in mp)) == P.order


def test_subgroup_validation():
    S4 = SymmetricGroup(4)
    h = S4.from_perm(parse_cycles("(1 2)", 4))
    assert involution(S4, h) == sorted((S4.identity, h))
    g = S4.from_perm(parse_cycles("(2 3)", 4))
    hg = S4.compose(S4.compose(g, h), S4.inverse(g))
    assert hg == S4.from_perm(parse_cycles("(1 3)", 4))
    assert involution(S4, hg) == sorted((S4.identity, hg))


@pytest.mark.parametrize("spec", ["s4", "psl2:5", "wreath:3", "sl2:5"])
def test_involution_refuses_the_identity_and_a_3_cycle(spec):
    G = make_group(spec)
    for bad in (G.identity, order_three_element(G)):
        with pytest.raises(ValueError) as e:
            involution(G, bad)
        assert str(e.value) == f"h = {G.pretty(bad)} is not an involution"


def test_direct_power():
    S3 = SymmetricGroup(3)
    P = DirectPowerGroup(S3, 2)
    assert P.order == 36
    assert check_associativity(P, samples=300)
    x = P.pack((1, 4))
    y = P.pack((3, 2))
    assert P.unpack(P.compose(x, y)) == (S3.compose(1, 3), S3.compose(4, 2))
    d = P.diagonal(S3.from_perm((1, 0, 2)))
    assert P.compose(d, d) == P.identity
    # power of 1 behaves like the base group
    P1 = DirectPowerGroup(S3, 1)
    for a in range(6):
        for b in range(6):
            assert P1.compose(a, b) == S3.compose(a, b)
    with pytest.raises(ValueError):
        DirectPowerGroup(CyclicGroup(101), 3)  # exceeds order cap


def test_cyclic_large_table_free():
    G = CyclicGroup(1_000_000)
    assert G.compose(999_999, 2) == 1
    assert G.inverse(123) == 1_000_000 - 123
    with pytest.raises(ValueError):
        G.table()


def test_dihedral_relations():
    D = DihedralGroup(5)
    r, s = 1, D.n
    assert element_order(D, r) == 5
    assert element_order(D, s) == 2
    # s r s = r^{-1}
    srs = D.compose(D.compose(s, r), s)
    assert srs == D.inverse(r)


def test_center():
    assert center_order(SymmetricGroup(4)) == 1
    assert center_order(DihedralGroup(4)) == 2
    assert center_order(SL2Group(5)) == 2


# ---------------------------------------------------------------------------
# tables against references written from each family's definition

def _gf_ops(q):
    """Addition, negation and multiplication tables of GF(q), written out.

    GF(8) is bit polynomials reduced by x^3 + x + 1; GF(9) is a0 + a1 x
    (id a0 + 3 a1) with x^2 = 2 over GF(3); prime q is arithmetic mod q.
    """
    def add(a, b):
        if q == 8:
            return a ^ b
        if q == 9:
            return (a + b) % 3 + 3 * ((a // 3 + b // 3) % 3)
        return (a + b) % q

    def mul(a, b):
        if q == 8:
            r = 0
            for i in range(3):
                if b >> i & 1:
                    r ^= a << i
            for k in (4, 3):
                if r >> k & 1:
                    r ^= 0b1011 << (k - 3)
            return r
        if q == 9:
            a0, a1, b0, b1 = a % 3, a // 3, b % 3, b // 3
            return (a0 * b0 + 2 * a1 * b1) % 3 + 3 * ((a0 * b1 + a1 * b0) % 3)
        return a * b % q

    def neg(a):
        if q == 8:
            return a
        if q == 9:
            return -a % 3 + 3 * (-(a // 3) % 3)
        return -a % q

    return ([[add(a, b) for b in range(q)] for a in range(q)], neg,
            [[mul(a, b) for b in range(q)] for a in range(q)])


def _matrix_reference(G):
    """Matrix products over GF(q); PSL2 ids match a product up to sign."""
    add, neg, mul = _gf_ops(G.q)
    mats = [G.matrix(x) for x in range(G.order)]
    ids = {m: x for x, m in enumerate(mats)}
    if isinstance(G, PSL2Group):
        ids.update({tuple(neg(v) for v in m): x for x, m in enumerate(mats)})

    def product(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return (add[mul[a][e]][mul[b][g]], add[mul[a][f]][mul[b][h]],
                add[mul[c][e]][mul[d][g]], add[mul[c][f]][mul[d][h]])

    return [[ids[product(m, n)] for n in mats] for m in mats]


def _tuple_product(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def _symmetric_reference(G):
    perms = [G.perm(x) for x in range(G.order)]
    ids = {p: x for x, p in enumerate(perms)}
    return [[ids[_tuple_product(p, q)] for q in perms] for p in perms]


def _wreath_reference(W):
    """(p1,s1,0)(p2,s2,b) = (p1p2, s1s2, b); (p1,s1,1)(p2,s2,b) =
    (p1s2, s1p2, 1+b), with ids b f^2 + p f + s over f = |S_n|."""
    base = [W.base.perm(x) for x in range(W.base.order)]
    ids = {p: x for x, p in enumerate(base)}
    f = len(base)

    def mul(x, y):
        b1, p1, s1 = x // (f * f), x // f % f, x % f
        b2, p2, s2 = y // (f * f), y // f % f, y % f
        if b1:
            p2, s2 = s2, p2
        p = ids[_tuple_product(base[p1], base[p2])]
        s = ids[_tuple_product(base[s1], base[s2])]
        return (b1 ^ b2) * f * f + p * f + s

    return [[mul(x, y) for y in range(W.order)] for x in range(W.order)]


def _dihedral_reference(D):
    """r^a s^b r^c s^d = r^(a + (-1)^b c) s^(b + d); id = b n + a."""
    n = D.n
    return [[(b ^ d) * n + (a + (-c if b else c)) % n
             for d in range(2) for c in range(n)]
            for b in range(2) for a in range(n)]


def _power_reference(P):
    """Componentwise tuple products; ids little-endian in base |S_3|."""
    base = [P.base.perm(x) for x in range(P.base.order)]
    ids = {p: x for x, p in enumerate(base)}
    f = len(base)

    def mul(x, y):
        return sum(ids[_tuple_product(base[x // f ** i % f],
                                      base[y // f ** i % f])] * f ** i
                   for i in range(P.n))

    return [[mul(x, y) for y in range(P.order)] for x in range(P.order)]


REFERENCES = {
    "s4": _symmetric_reference,
    "psl2:5": _matrix_reference,
    "psl2:8": _matrix_reference,
    "sl2:5": _matrix_reference,
    "sl2:9": _matrix_reference,
    "wreath:3": _wreath_reference,
    "dihedral:6": _dihedral_reference,
    "power:s3^2": _power_reference,
}


@pytest.mark.parametrize("spec", REFERENCES)
def test_table_and_classes_match_definition(spec):
    G = make_group(spec)
    ref = np.array(REFERENCES[spec](G))
    assert np.array_equal(G.table(), ref)
    # classes: conjugation orbits in the reference, by (size, smallest id)
    e = G.identity
    inv = np.argmax(ref == e, axis=1)
    orbits = {tuple(np.unique(ref[ref[:, x], inv]).tolist())
              for x in range(G.order)}
    assert G.conjugacy_classes() == sorted(orbits, key=lambda c: (len(c), c[0]))
    # the rule without the table gives the same entries
    H = make_group(spec)
    ids = np.arange(G.order)
    assert np.array_equal(H.compose(ids[:, None], ids), ref)
    assert np.array_equal(H.inverse(ids), inv)


def test_psl2_from_perm_refuses_non_members():
    P = PSL2Group(5)
    assert P.from_perm(P.perm(7)) == 7
    with pytest.raises(ValueError, match="not an element of psl2:5"):
        P.from_perm((1, 0, 2, 3, 4, 5))   # odd, so outside PSL(2,5) < A_6
    with pytest.raises(ValueError, match="not an element"):
        P.from_perm((5, 4, 3, 2, 1, 0))   # past the largest code


def test_class_search_estimate_boundary(monkeypatch):
    from hspsim.groups import DihedralGroup
    from hspsim.util import WORK_LIMIT, ResourceCap
    # 4 |G|^2 multiply-adds: dihedral:17677 (order 35354, about 30 s) is the
    # largest dihedral group admitted; dihedral:17678 is refused before any
    # composition
    assert 4 * 35354 ** 2 <= WORK_LIMIT < 4 * 35356 ** 2

    def composed(*args):
        raise AssertionError("composition ran")

    monkeypatch.setattr(DihedralGroup, "_compose", composed)
    with pytest.raises(ResourceCap, match="search of dihedral:17678 needs"):
        make_group("dihedral:17678").conjugacy_classes()


def test_cyclic_classes_are_the_searched_singletons():
    # CyclicGroup lists its |G| singleton classes with no orbit search
    for n in range(1, 41):
        G = CyclicGroup(n)
        assert G.conjugacy_classes() == \
            FiniteGroup.conjugacy_classes(CyclicGroup(n))
        assert [G.class_of(x) for x in range(n)] == \
            [FiniteGroup.class_of(G, x) for x in range(n)]
        with pytest.raises(ValueError, match="out of range"):
            G.class_of(n)

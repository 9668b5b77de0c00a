"""Finite groups with integer element ids and lazy multiplication tables.

Permutations are 0-based image tuples and compose left-to-right:
(x then y)(i) = y(x(i)).  That is the unique order under which the
two-block wreath multiplication rule and the embedding into S_{2n}
agree.  Matrix groups (SL2/PSL2) multiply in matrix order instead; the
projective-line action is arranged to match, and the two conventions
never mix inside one group.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

from .fields import GF
from .util import ResourceCap

TABLE_LIMIT = 10_000
ORDER_LIMIT = 1_000_000


# ---------------------------------------------------------------------------
# permutation helpers

def perm_compose(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def perm_inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_rank(p):
    """Lexicographic rank of a permutation (identity -> 0)."""
    n = len(p)
    rest = list(range(n))
    r = 0
    for i, x in enumerate(p):
        r += rest.index(x) * math.factorial(n - 1 - i)
        rest.remove(x)
    return r


def perm_unrank(n, r):
    rest = list(range(n))
    out = []
    for i in range(n):
        f = math.factorial(n - 1 - i)
        out.append(rest.pop(r // f))
        r %= f
    return tuple(out)


def cycle_notation(p, shift=1):
    """1-based disjoint-cycle string; 'e' for the identity."""
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(str(c + shift) for c in cyc) + ")")
    return "".join(parts) if parts else "e"


def parse_cycles(text, n):
    """Parse 1-based cycle notation like '(1 4)(2 5)' into an image tuple."""
    text = text.strip()
    img = list(range(n))
    if text in ("e", "()", ""):
        return tuple(img)
    if not text.startswith("("):
        raise ValueError(f"bad cycle notation: {text!r}")
    for chunk in text.replace(")", ")|").split("|"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"bad cycle notation: {text!r}")
        pts = [int(tok) - 1 for tok in chunk[1:-1].replace(",", " ").split()]
        if len(pts) < 2 or any(not 0 <= p < n for p in pts) or len(set(pts)) != len(pts):
            raise ValueError(f"bad cycle {chunk} for degree {n}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a] = b
    return tuple(img)


# ---------------------------------------------------------------------------
# base class

class FiniteGroup:
    """Elements are 0..order-1; subclasses supply composition and display."""

    def __init__(self, kind, params, order, identity=0):
        self.kind = kind
        self.params = params
        self.order = order
        self.identity = identity
        self._table = None
        self._inverses = None
        self._classes = None

    # -- subclass hooks -----------------------------------------------------
    def _compose(self, x, y):
        raise NotImplementedError

    def _inverse(self, x):
        # generic fallback: walk powers of x until x^k = e, return x^(k-1)
        prev, acc = x, x
        while acc != self.identity:
            prev, acc = acc, self._compose(acc, x)
        return prev

    def pretty(self, x):
        return str(x)

    def parse_element(self, text):
        """Element from the text 'id:<n>'; subclasses add their notation."""
        head, _, num = text.strip().partition(":")
        if head != "id" or not num.isdigit() or int(num) >= self.order:
            raise ValueError(f"element {text.strip()!r} not understood for "
                             f"{spec_of(self)}; use 'id:<n>' with n < "
                             f"{self.order}")
        return int(num)

    def default_involution(self):
        """The hidden involution when none is named: the smallest one."""
        invs = self.involutions()
        if not invs:
            raise ValueError(f"{spec_of(self)} has no involution")
        return min(invs)

    # -- generic machinery --------------------------------------------------
    def __repr__(self):
        return f"<{self.kind}{self.params} order={self.order}>"

    def elements(self):
        return range(self.order)

    def compose(self, x, y):
        if self._table is not None:
            return int(self._table[x, y])
        return self._compose(x, y)

    def inverse(self, x):
        if self._inverses is None:
            self._inverses = np.full(self.order, -1, dtype=np.int64)
        cached = int(self._inverses[x])
        if cached >= 0:
            return cached
        inv = self._inverse(x)
        self._inverses[x] = inv
        self._inverses[inv] = x
        return inv

    def table(self):
        """Full multiplication table (built lazily; capped at TABLE_LIMIT)."""
        if self._table is None:
            if self.order > TABLE_LIMIT:
                raise ResourceCap(
                    f"order {self.order} exceeds table limit {TABLE_LIMIT}")
            t = np.empty((self.order, self.order), dtype=np.int32)
            for x in range(self.order):
                for y in range(self.order):
                    t[x, y] = self._compose(x, y)
            self._table = t
        return self._table

    def conjugacy_classes(self):
        """Classes as sorted id tuples, ordered by (size, smallest member)."""
        if self._classes is None:
            seen = [False] * self.order
            classes = []
            invs = [self.inverse(g) for g in range(self.order)]
            for x in range(self.order):
                if seen[x]:
                    continue
                orbit = set()
                for g in range(self.order):
                    y = self.compose(self.compose(g, x), invs[g])
                    orbit.add(y)
                for y in orbit:
                    seen[y] = True
                classes.append(tuple(sorted(orbit)))
            classes.sort(key=lambda c: (len(c), c[0]))
            self._classes = classes
        return self._classes

    def class_of(self, x):
        for c in self.conjugacy_classes():
            if x in c:
                return c
        raise ValueError(f"element {x} out of range")

    def centralizer(self, x):
        els = [g for g in range(self.order)
               if self.compose(g, x) == self.compose(x, g)]
        return Subgroup(self, els)

    def center(self):
        els = [g for g in range(self.order)
               if all(self.compose(g, x) == self.compose(x, g)
                      for x in range(self.order))]
        return Subgroup(self, els)

    def involutions(self):
        e = self.identity
        return [x for x in range(self.order)
                if x != e and self.compose(x, x) == e]

    def element_order(self, x):
        k, acc = 1, x
        while acc != self.identity:
            acc = self.compose(acc, x)
            k += 1
        return k


class Subgroup:
    """A validated subgroup given by its sorted element ids."""

    def __init__(self, group, elements, check=True):
        self.group = group
        self.elements = tuple(sorted(set(elements)))
        self.order = len(self.elements)
        if check:
            self._validate()

    def _validate(self):
        G = self.group
        els = set(self.elements)
        if G.identity not in els:
            raise ValueError("subgroup must contain the identity")
        for x in self.elements:
            if G.inverse(x) not in els:
                raise ValueError("subgroup not closed under inverse")
            for y in self.elements:
                if G.compose(x, y) not in els:
                    raise ValueError("subgroup not closed under product")
        if G.order % self.order:
            raise ValueError("subgroup order must divide the group order")

    def __repr__(self):
        return f"<subgroup order={self.order} of {self.group!r}>"

    @classmethod
    def generated(cls, group, gens):
        els = {group.identity}
        frontier = list(gens)
        while frontier:
            nxt = []
            for g in frontier:
                for h in list(els):
                    for z in (group.compose(g, h), group.compose(h, g)):
                        if z not in els:
                            els.add(z)
                            nxt.append(z)
                if g not in els:
                    els.add(g)
                    nxt.append(g)
            frontier = nxt
        return cls(group, els)


def order_two_subgroup(group, h):
    if h == group.identity or group.compose(h, h) != group.identity:
        raise ValueError("h must be an involution")
    return Subgroup(group, [group.identity, h])


def conjugate_subgroup(group, sub, g):
    """g H g^{-1} as a Subgroup."""
    gi = group.inverse(g)
    return Subgroup(group, [group.compose(group.compose(g, x), gi)
                            for x in sub.elements], check=False)


def check_associativity(group, samples=1000, seed=0):
    """Exhaustive for order <= 200, else random sampled triples."""
    n = group.order
    if n <= 200:
        triples = product(range(n), repeat=3)
    else:
        rng = np.random.default_rng(seed)
        triples = (tuple(rng.integers(0, n, 3)) for _ in range(samples))
    for x, y, z in triples:
        if group.compose(group.compose(x, y), z) != group.compose(x, group.compose(y, z)):
            return False
    return True


# ---------------------------------------------------------------------------
# concrete families

class SymmetricGroup(FiniteGroup):
    def __init__(self, n):
        if not 1 <= n <= 8:
            raise ValueError("symmetric group supported for 1 <= n <= 8")
        self.n = n
        super().__init__("symmetric", (n,), math.factorial(n))
        self._perms = [perm_unrank(n, r) for r in range(self.order)]
        self._rank = {p: r for r, p in enumerate(self._perms)}

    def perm(self, x):
        return self._perms[x]

    def from_perm(self, p):
        return self._rank[tuple(p)]

    def _compose(self, x, y):
        return self._rank[perm_compose(self._perms[x], self._perms[y])]

    def _inverse(self, x):
        return self._rank[perm_inverse(self._perms[x])]

    def pretty(self, x):
        return cycle_notation(self._perms[x])

    def parse_element(self, text):
        """'id:<n>', or 1-based cycle notation such as '(1 2)(3 4)'."""
        if text.strip().startswith("id:"):
            return super().parse_element(text)
        return self.from_perm(parse_cycles(text, self.n))


class CyclicGroup(FiniteGroup):
    def __init__(self, n):
        if not 1 <= n <= ORDER_LIMIT:
            raise ValueError(f"cyclic order must be in 1..{ORDER_LIMIT}")
        self.n = n
        super().__init__("cyclic", (n,), n)

    def _compose(self, x, y):
        return (x + y) % self.n

    def _inverse(self, x):
        return (-x) % self.n

    def pretty(self, x):
        return f"g^{x}" if x else "e"


class DihedralGroup(FiniteGroup):
    """Order 2n; id = flip*n + rot encodes r^rot s^flip."""

    def __init__(self, n):
        if not 2 <= n <= ORDER_LIMIT // 2:
            raise ValueError("dihedral parameter out of range")
        self.n = n
        super().__init__("dihedral", (n,), 2 * n)

    def _split(self, x):
        return x % self.n, x // self.n

    def _compose(self, x, y):
        a, b = self._split(x)
        c, d = self._split(y)
        rot = (a + (c if b == 0 else -c)) % self.n
        return (b ^ d) * self.n + rot

    def _inverse(self, x):
        a, b = self._split(x)
        return x if b else (-a) % self.n

    def pretty(self, x):
        a, b = self._split(x)
        rot = "e" if a == 0 else ("r" if a == 1 else f"r^{a}")
        if not b:
            return rot
        return "s" if a == 0 else f"{rot} s"

    def default_involution(self):
        """The reflection s."""
        return self.n


class WreathS2Group(FiniteGroup):
    """Two copies of S_n swapped by an involution t.

    Elements are (pi, sigma, b); with left-to-right permutation products the
    multiplication is (p1,s1,0)(p2,s2,b) = (p1p2, s1s2, b) and
    (p1,s1,1)(p2,s2,b) = (p1s2, s1p2, 1+b).
    """

    def __init__(self, n):
        if not 2 <= n <= 5:
            raise ValueError("wreath product supported for 2 <= n <= 5")
        self.n = n
        self.base = SymmetricGroup(n)
        f = self.base.order
        super().__init__("wreath", (n,), 2 * f * f)

    def unpack(self, x):
        f = self.base.order
        b, rest = divmod(x, f * f)
        p, s = divmod(rest, f)
        return p, s, b

    def pack(self, p, s, b):
        f = self.base.order
        return b * f * f + p * f + s

    def _compose(self, x, y):
        p1, s1, b1 = self.unpack(x)
        p2, s2, b2 = self.unpack(y)
        c = self.base.compose
        if b1 == 0:
            return self.pack(c(p1, p2), c(s1, s2), b2)
        return self.pack(c(p1, s2), c(s1, p2), 1 ^ b2)

    def _inverse(self, x):
        p, s, b = self.unpack(x)
        i = self.base.inverse
        if b == 0:
            return self.pack(i(p), i(s), 0)
        return self.pack(i(s), i(p), 1)

    def swap_element(self):
        """The distinguished involution t = (e, e, 1)."""
        return self.pack(0, 0, 1)

    def default_involution(self):
        return self.swap_element()

    def parse_element(self, text):
        """'id:<n>', or 'swap' for the coordinate swap."""
        if text.strip() == "swap":
            return self.swap_element()
        return super().parse_element(text)

    def pretty(self, x):
        p, s, b = self.unpack(x)
        return f"({self.base.pretty(p)}|{self.base.pretty(s)}|{b})"


PSL2_SIZES = (4, 5, 7, 8, 9, 11, 13)


def _projective_points(field):
    """Index i < q is [x_i : 1]; index q is [1 : 0]."""
    return [(x, 1) for x in range(field.q)] + [(1, 0)]


def _matrix_to_point_perm(m, field, points):
    a, b, c, d = m
    img = []
    for x, y in points:
        u = field.add(field.mul(a, x), field.mul(b, y))
        v = field.add(field.mul(c, x), field.mul(d, y))
        if v == 0:
            img.append(field.q)
        else:
            img.append(field.mul(u, field.inv(v)))
    return tuple(img)


def _sl2_matrices(field):
    q = field.q
    out = []
    for a, b, c, d in product(range(q), repeat=4):
        det = field.sub(field.mul(a, d), field.mul(b, c))
        if det == 1:
            out.append((a, b, c, d))
    return out


class PSL2Group(FiniteGroup):
    """PSL(2, F_q) as permutations of the projective line (q+1 points)."""

    def __init__(self, q):
        if q not in PSL2_SIZES:
            raise ValueError(f"psl2 supported for q in {PSL2_SIZES}")
        self.q = q
        self.field = GF(q)
        points = _projective_points(self.field)
        rep = {}
        for m in _sl2_matrices(self.field):
            p = _matrix_to_point_perm(m, self.field, points)
            cur = rep.get(p)
            if cur is None or self._matrix_key(m) < self._matrix_key(cur):
                rep[p] = m
        self._perms = sorted(rep)
        self._rank = {p: i for i, p in enumerate(self._perms)}
        self._mats = [rep[p] for p in self._perms]
        super().__init__("psl2", (q,), len(self._perms))
        assert self._perms[0] == tuple(range(q + 1))

    def _matrix_key(self, m):
        # canonical class representative: make the first nonzero entry small
        for v in m:
            if v:
                return (0 if v <= (self.q - 1) // 2 or self.q % 2 == 0 else 1, m)
        return (2, m)

    def perm(self, x):
        return self._perms[x]

    def matrix(self, x):
        return self._mats[x]

    def from_matrix(self, m):
        points = _projective_points(self.field)
        return self._rank[_matrix_to_point_perm(tuple(m), self.field, points)]

    def _compose(self, x, y):
        # matrix order: (XY) acts by Y's permutation first
        px, py = self._perms[x], self._perms[y]
        return self._rank[tuple(px[py[i]] for i in range(len(px)))]

    def _inverse(self, x):
        return self._rank[perm_inverse(self._perms[x])]

    def pretty(self, x):
        a, b, c, d = self._mats[x]
        return f"[[{a},{b}],[{c},{d}]]"


class SL2Group(FiniteGroup):
    """SL(2, F_q) with matrix entries; used for quotient transfer checks."""

    def __init__(self, q):
        if q not in PSL2_SIZES:
            raise ValueError(f"sl2 supported for q in {PSL2_SIZES}")
        self.q = q
        self.field = GF(q)
        self._mats = sorted(_sl2_matrices(self.field))
        self._rank = {m: i for i, m in enumerate(self._mats)}
        ident = self._rank[(1, 0, 0, 1)]
        super().__init__("sl2", (q,), len(self._mats), identity=ident)

    def matrix(self, x):
        return self._mats[x]

    def from_matrix(self, m):
        return self._rank[tuple(m)]

    def _compose(self, x, y):
        a, b, c, d = self._mats[x]
        e, f, g, h = self._mats[y]
        F = self.field
        m = (F.add(F.mul(a, e), F.mul(b, g)), F.add(F.mul(a, f), F.mul(b, h)),
             F.add(F.mul(c, e), F.mul(d, g)), F.add(F.mul(c, f), F.mul(d, h)))
        return self._rank[m]

    def _inverse(self, x):
        a, b, c, d = self._mats[x]
        F = self.field
        return self._rank[(d, F.neg(b), F.neg(c), a)]

    def pretty(self, x):
        a, b, c, d = self._mats[x]
        return f"[[{a},{b}],[{c},{d}]]"


class DirectPowerGroup(FiniteGroup):
    """G^n with componentwise product; ids mixed-radix little-endian."""

    def __init__(self, base, n):
        if n < 1:
            raise ValueError("power must be >= 1")
        order = base.order ** n
        if order > ORDER_LIMIT:
            raise ResourceCap(f"order {order} exceeds {ORDER_LIMIT}")
        self.base = base
        self.n = n
        ident = 0
        for i in range(n):
            ident += base.identity * base.order ** i
        super().__init__("power", (base.kind, base.params, n), order, ident)

    def unpack(self, x):
        out = []
        for _ in range(self.n):
            x, r = divmod(x, self.base.order)
            out.append(r)
        return tuple(out)

    def pack(self, comps):
        v = 0
        for c in reversed(comps):
            v = v * self.base.order + c
        return v

    def _compose(self, x, y):
        xs, ys = self.unpack(x), self.unpack(y)
        return self.pack([self.base.compose(a, b) for a, b in zip(xs, ys)])

    def _inverse(self, x):
        return self.pack([self.base.inverse(a) for a in self.unpack(x)])

    def diagonal(self, g):
        return self.pack([g] * self.n)

    def pretty(self, x):
        return "(" + ", ".join(self.base.pretty(c) for c in self.unpack(x)) + ")"


# ---------------------------------------------------------------------------
# constructors

def make_symmetric(n):
    return SymmetricGroup(n)


def make_cyclic(n):
    return CyclicGroup(n)


def make_dihedral(n):
    return DihedralGroup(n)


def make_wreath_s2(n):
    return WreathS2Group(n)


def make_psl2(q):
    return PSL2Group(q)


def make_sl2(q):
    return SL2Group(q)


def make_direct_power(group, n):
    return DirectPowerGroup(group, n)


def make_group(spec):
    """Build a group from a spec string.

    Grammar: ``name[:param]`` with names ``s<N>`` (or ``symmetric:N``),
    ``cyclic:N``, ``dihedral:N``, ``wreath:N``, ``psl2:Q``, ``sl2:Q``;
    and ``power:<base>^<n>`` for a direct power of any of the above.
    """
    spec = spec.strip()
    if spec.startswith("power:"):
        body = spec[len("power:"):]
        if "^" not in body:
            raise ValueError(f"bad power spec {spec!r}: expected power:<base>^<n>")
        base_spec, _, exp = body.rpartition("^")
        try:
            n = int(exp)
        except ValueError:
            raise ValueError(f"bad power exponent in {spec!r}") from None
        return make_direct_power(make_group(base_spec), n)
    name, sep, param = spec.partition(":")
    name = name.lower()
    if not sep:
        if len(name) >= 2 and name[0] == "s" and name[1:].isdigit():
            return make_symmetric(int(name[1:]))
        if len(name) >= 2 and name[0] == "z" and name[1:].isdigit():
            return make_cyclic(int(name[1:]))
        raise ValueError(f"unknown group spec {spec!r}")
    try:
        p = int(param)
    except ValueError:
        raise ValueError(f"bad parameter in group spec {spec!r}") from None
    makers = {
        "symmetric": make_symmetric,
        "s": make_symmetric,
        "cyclic": make_cyclic,
        "z": make_cyclic,
        "dihedral": make_dihedral,
        "wreath": make_wreath_s2,
        "psl2": make_psl2,
        "sl2": make_sl2,
    }
    if name not in makers:
        raise ValueError(f"unknown group family {name!r} in spec {spec!r}")
    return makers[name](p)


def spec_of(group):
    """Canonical spec string for a group, parseable by make_group."""
    if group.kind == "power":
        return f"power:{spec_of(group.base)}^{group.n}"
    return f"{group.kind}:{group.params[0]}"


# ---------------------------------------------------------------------------
# morphisms used by the transfer checks

def wreath_embedding(n):
    """Embed S_n wr S_2 into S_{2n}.

    Returns (wreath, s2n, mapping) where mapping[x] is the image id.
    (pi,sigma,0) sends i -> pi(i), n+i -> n+sigma(i); (pi,sigma,1) sends
    i -> n+pi(i), n+i -> sigma(i).
    """
    W = WreathS2Group(n)
    if n > 4:
        raise ValueError("embedding target S_{2n} needs 2n <= 8")
    S = SymmetricGroup(2 * n)
    mapping = np.empty(W.order, dtype=np.int64)
    for x in range(W.order):
        p, s, b = W.unpack(x)
        pp, ps = W.base.perm(p), W.base.perm(s)
        img = [0] * (2 * n)
        for i in range(n):
            if b == 0:
                img[i] = pp[i]
                img[n + i] = n + ps[i]
            else:
                img[i] = n + pp[i]
                img[n + i] = ps[i]
        mapping[x] = S.from_perm(tuple(img))
    return W, S, mapping


def sl2_to_psl2_map(sl2, psl2):
    """The natural quotient map SL(2,q) -> PSL(2,q) as an id array."""
    if sl2.q != psl2.q:
        raise ValueError("field sizes differ")
    points = _projective_points(sl2.field)
    out = np.empty(sl2.order, dtype=np.int64)
    for x in range(sl2.order):
        p = _matrix_to_point_perm(sl2.matrix(x), sl2.field, points)
        out[x] = psl2._rank[p]
    return out

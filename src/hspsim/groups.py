"""Finite groups with integer element ids and array-valued composition rules.

Each family gives one composition rule and one inverse rule acting on
integer arrays of ids with numpy broadcasting (a Python int is a 0-d
array).  Multiplication tables, inverses, conjugacy classes and
involutions all derive from those two rules with array operations.

Permutations are 0-based image arrays and compose left-to-right:
(x then y)(i) = y(x(i)).  That is the unique order under which the
two-block wreath multiplication rule and the embedding into S_{2n}
(which the tests build) agree.  Matrix groups (SL2/PSL2) multiply in
matrix order instead; the projective-line action is arranged to match,
and the two conventions never mix inside one group.
"""
from __future__ import annotations

from itertools import permutations

import numpy as np

from .fields import GF
from .util import ResourceCap, require

ORDER_LIMIT = 1_000_000
# table() composes this many pairs per row block: a 14-point permutation
# product holds about 230 bytes of int64 temporaries per pair (psl2:13
# peaks near 60 MB)
TABLE_BLOCK = 1 << 18


# ---------------------------------------------------------------------------
# permutation helpers

def cycle_notation(p):
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
        parts.append("(" + " ".join(str(c + 1) for c in cyc) + ")")
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

def _result(ids):
    """A 0-d id result as a Python int; id arrays pass through."""
    return int(ids) if np.ndim(ids) == 0 else ids


class FiniteGroup:
    """Elements are 0..order-1; subclasses supply the composition and
    inverse rules on id arrays, and the display."""

    def __init__(self, kind, params, order, identity=0):
        self.kind = kind
        self.params = params
        self.order = order
        self.identity = identity
        self._table = None
        self._classes = None

    # -- subclass hooks -----------------------------------------------------
    def _compose(self, x, y):
        """x times y, elementwise over broadcastable int arrays of ids."""
        raise NotImplementedError

    def _inverse(self, x):
        """Inverses of an int array of ids."""
        raise NotImplementedError

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

    def compose(self, x, y):
        """x times y for ids or broadcastable id arrays (int in, int out);
        read from the table once it is built, else from the rule."""
        if self._table is not None:
            return _result(self._table[x, y])
        return _result(self._compose(np.asarray(x), np.asarray(y)))

    def inverse(self, x):
        return _result(self._inverse(np.asarray(x)))

    def table(self):
        """Full multiplication table, built lazily as int32 ids."""
        if self._table is None:
            require(f"multiplication table of {spec_of(self)}",
                    bytes=4 * self.order ** 2 + 230 * TABLE_BLOCK)
            ids = np.arange(self.order)
            t = np.empty((self.order, self.order), dtype=np.int32)
            step = max(1, TABLE_BLOCK // self.order)
            for a in range(0, self.order, step):
                t[a:a + step] = self._compose(ids[a:a + step, None], ids)
            self._table = t
        return self._table

    def conjugacy_classes(self):
        """Classes as sorted id tuples, ordered by (size, smallest member)."""
        if self._classes is None:
            # at most |G| classes, each two composition passes and a bincount
            # of |G| ids (dihedral:20000, 1e4 classes of 4e4 ids, took 46 s),
            # not np.unique, whose first call imports numpy.ma (+0.75 MB)
            require(f"conjugacy-class search of {spec_of(self)}",
                    work=4 * self.order ** 2)
            ids = np.arange(self.order)
            invs = self.inverse(ids)
            seen = np.zeros(self.order, dtype=bool)
            classes = []
            while not seen.all():
                x = int(np.argmin(seen))  # smallest id in no class yet
                conj = self.compose(self.compose(ids, x), invs)
                orbit = np.flatnonzero(np.bincount(conj))
                seen[orbit] = True
                classes.append(tuple(orbit.tolist()))
            classes.sort(key=lambda c: (len(c), c[0]))
            self._classes = classes
        return self._classes

    def class_of(self, x):
        """Sorted ids of the class of x: one orbit g x g^-1, as in
        conjugacy_classes, which finds every class."""
        if not 0 <= x < self.order:
            raise ValueError(f"element {x} out of range")
        ids = np.arange(self.order)
        conj = self.compose(self.compose(ids, x), self.inverse(ids))
        return tuple(np.flatnonzero(np.bincount(conj)).tolist())

    def involutions(self):
        ids = np.arange(self.order)
        return np.flatnonzero((self.compose(ids, ids) == self.identity)
                              & (ids != self.identity)).tolist()


def involution(group, h):
    """The sorted ids of the hidden subgroup {e, h}; h must be an
    involution."""
    if h == group.identity or group.compose(h, h) != group.identity:
        raise ValueError(f"h = {group.pretty(h)} is not an involution")
    return sorted((group.identity, h))


# ---------------------------------------------------------------------------
# concrete families

class _RowGroup(FiniteGroup):
    """Elements are the rows of a lexicographically sorted int array.

    A row's id is found by np.searchsorted on mixed-radix int64 codes
    (big-endian in the given base, so code order is row order); rows that
    are not elements raise ValueError.
    """

    def __init__(self, kind, params, rows, base):
        self._rows = rows
        self._radix = base ** np.arange(rows.shape[1] - 1, -1, -1)
        self._codes = rows @ self._radix
        super().__init__(kind, params, len(rows))

    def _id(self, rows):
        codes = np.asarray(rows) @ self._radix
        ids = np.minimum(np.searchsorted(self._codes, codes), self.order - 1)
        if np.any(self._codes[ids] != codes):
            raise ValueError(f"not an element of {spec_of(self)}")
        return ids


class _PermutationGroup(_RowGroup):
    """Rows are 0-based image arrays; x times y applies x, then y."""

    def __init__(self, kind, params, perms):
        super().__init__(kind, params, perms, perms.shape[1])

    def perm(self, x):
        return tuple(self._rows[x].tolist())

    def from_perm(self, p):
        return _result(self._id(p))

    def _compose(self, x, y):
        m = self._rows.shape[1]
        return self._id(self._rows.ravel()[y[..., None] * m + self._rows[x]])

    def _inverse(self, x):
        return self._id(np.argsort(self._rows[x], axis=-1))


class SymmetricGroup(_PermutationGroup):
    def __init__(self, n):
        if not 1 <= n <= 8:
            raise ValueError("symmetric group supported for 1 <= n <= 8")
        self.n = n
        super().__init__("symmetric", (n,),
                         np.array(list(permutations(range(n)))))

    def pretty(self, x):
        return cycle_notation(self.perm(x))

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
        return -x % self.n

    def conjugacy_classes(self):  # abelian: |G| singletons, no search
        return [(x,) for x in range(self.n)]

    def class_of(self, x):
        return (int(x),) if 0 <= x < self.n else super().class_of(x)

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
        return (b ^ d) * self.n + (a + np.where(b, -c, c)) % self.n

    def _inverse(self, x):
        a, b = self._split(x)
        return np.where(b, x, -a % self.n)

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
        return self.pack(c(p1, np.where(b1, s2, p2)),
                         c(s1, np.where(b1, p2, s2)), b1 ^ b2)

    def _inverse(self, x):
        p, s, b = self.unpack(x)
        i = self.base.inverse
        return self.pack(i(np.where(b, s, p)), i(np.where(b, p, s)), b)

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


def _sl2_matrices(field):
    """Rows (a, b, c, d) with ad - bc = 1, in lexicographic order."""
    q = field.q
    mats = np.indices((q,) * 4).reshape(4, -1).T
    a, b, c, d = mats.T
    return mats[field.add[field.mul[a, d], field.neg[field.mul[b, c]]] == 1]


def _point_images(field, mats):
    """Images of the q+1 projective points under matrix rows (a, b, c, d).

    Index i < q is [x_i : 1]; index q is [1 : 0].
    """
    q = field.q
    x = np.append(np.arange(q), 1)
    y = np.append(np.ones(q, dtype=np.int64), 0)
    a, b, c, d = (mats[..., i, None] for i in range(4))
    u = field.add[field.mul[a, x], field.mul[b, y]]
    v = field.add[field.mul[c, x], field.mul[d, y]]
    return np.where(v == 0, q, field.mul[u, field.inv[v]])


class PSL2Group(_PermutationGroup):
    """PSL(2, F_q) as permutations of the projective line (q+1 points)."""

    def __init__(self, q):
        if q not in PSL2_SIZES:
            raise ValueError(f"psl2 supported for q in {PSL2_SIZES}")
        self.q = q
        self.field = GF(q)
        mats = _sl2_matrices(self.field)
        # canonical class representative: prefer a small first nonzero
        # entry (odd q), then the lexicographically first matrix
        first = mats[np.arange(len(mats)), np.argmax(mats != 0, axis=1)]
        pick = np.argsort((q % 2 == 1) & (first > (q - 1) // 2), kind="stable")
        perms, keep = np.unique(_point_images(self.field, mats[pick]),
                                axis=0, return_index=True)
        self._mats = mats[pick[keep]]
        super().__init__("psl2", (q,), perms)

    def matrix(self, x):
        return tuple(self._mats[x].tolist())

    def from_matrix(self, m):
        return self.from_perm(_point_images(self.field, np.asarray(m)))

    def _compose(self, x, y):
        # matrix order: (XY) acts by Y's permutation first
        return super()._compose(y, x)

    def pretty(self, x):
        a, b, c, d = self.matrix(x)
        return f"[[{a},{b}],[{c},{d}]]"


class SL2Group(_RowGroup):
    """SL(2, F_q) with matrix entries; used for quotient transfer checks."""

    def __init__(self, q):
        if q not in PSL2_SIZES:
            raise ValueError(f"sl2 supported for q in {PSL2_SIZES}")
        self.q = q
        self.field = GF(q)
        super().__init__("sl2", (q,), _sl2_matrices(self.field), q)
        self.identity = self.from_matrix((1, 0, 0, 1))

    def matrix(self, x):
        return tuple(self._rows[x].tolist())

    def from_matrix(self, m):
        return _result(self._id(m))

    def _compose(self, x, y):
        F = self.field
        X = self._rows[x].reshape(x.shape + (2, 2, 1))
        Y = self._rows[y].reshape(y.shape + (1, 2, 2))
        P = F.mul[X, Y]  # P[..., i, k, j] = X_ik Y_kj
        prod = F.add[P[..., 0, :], P[..., 1, :]]
        return self._id(prod.reshape(prod.shape[:-2] + (4,)))

    def _inverse(self, x):
        a, b, c, d = np.moveaxis(self._rows[x], -1, 0)
        neg = self.field.neg
        return self._id(np.stack([d, neg[b], neg[c], a], axis=-1))

    pretty = PSL2Group.pretty


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
        super().__init__("power", (base.kind, base.params, n), order,
                         self.diagonal(base.identity))

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
        return DirectPowerGroup(make_group(base_spec), n)
    name, sep, param = spec.partition(":")
    name = name.lower()
    if not sep:
        if len(name) >= 2 and name[0] == "s" and name[1:].isdigit():
            return SymmetricGroup(int(name[1:]))
        if len(name) >= 2 and name[0] == "z" and name[1:].isdigit():
            return CyclicGroup(int(name[1:]))
        raise ValueError(f"unknown group spec {spec!r}")
    try:
        p = int(param)
    except ValueError:
        raise ValueError(f"bad parameter in group spec {spec!r}") from None
    families = {
        "symmetric": SymmetricGroup, "s": SymmetricGroup,
        "cyclic": CyclicGroup, "z": CyclicGroup,
        "dihedral": DihedralGroup, "wreath": WreathS2Group,
        "psl2": PSL2Group, "sl2": SL2Group,
    }
    if name not in families:
        raise ValueError(f"unknown group family {name!r} in spec {spec!r}")
    return families[name](p)


def spec_of(group):
    """Canonical spec string for a group, parseable by make_group."""
    if group.kind == "power":
        return f"power:{spec_of(group.base)}^{group.n}"
    return f"{group.kind}:{group.params[0]}"

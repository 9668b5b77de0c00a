"""Character tables: from explicit irreps, or numerically from class sums."""
from __future__ import annotations

import csv
import io

import numpy as np

from .irreps import canonical_order, has_explicit_irreps, irreps_for
from .util import ResourceCap, fmt_complexes, require

# Peak bytes per entry of a table and its export text, r^2 entries for r
# classes, charged on both routes and measured on explicit tables (r = |G|
# for cyclic groups): the VmHWM of chartable --group cyclic:N above the
# interpreter's 33 MB was 97 bytes per entry in csv (N = 1000, 1500, 2000)
# and 325 in json (N = 1000, 1500), whose strings and text chunks are most
# of it.  Charged with 8 % and 5 % margin, they admit cyclic:2896 and
# cyclic:1609; under a 1 GiB address limit json ran at cyclic:1700 (949 MB)
# and failed at 1750.
TABLE_ENTRY_BYTES = {"csv": 105, "json": 340}
EIGEN_GAP_TOL = 1e-6  # closer eigenvalues of T could mix two rows: redraw
LEAD_TOL = 1e-12  # an identity-class entry this small would scale noise
DEGREE_TOL = 1e-6  # degrees are integers up to an r-term sum's rounding
ORTHOGONALITY_TOL = 1e-8  # r-term sums of entries at most a degree in size


class CharacterTable:
    """Rows are irreps (canonical order), columns conjugacy classes."""

    def __init__(self, group, labels, degrees, values):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.class_reps = [c[0] for c in self.classes]
        self.class_sizes = [len(c) for c in self.classes]
        self.labels = list(labels)
        self.degrees = [int(d) for d in degrees]
        self.values = np.asarray(values, dtype=np.complex128)
        if self.values.shape != (len(self.labels), len(self.classes)):
            raise ValueError("table shape mismatch")

    @classmethod
    def from_irreps(cls, group, irreps):
        reps = [c[0] for c in group.conjugacy_classes()]
        values = np.array([r.character_at(reps) for r in irreps])
        order = canonical_order([r.degree for r in irreps], values)
        return cls(group, [irreps[i].label for i in order],
                   [irreps[i].degree for i in order], values[order])

    def column_of(self, x):
        """The column of the class holding x."""
        return self.classes.index(self.group.class_of(x))

    # -- checks -------------------------------------------------------------
    def row_orthogonality_error(self):
        sizes = np.array(self.class_sizes, dtype=float)
        gram = (self.values * sizes) @ self.values.conj().T / self.group.order
        return float(np.abs(gram - np.eye(len(self.labels))).max())

    def column_orthogonality_error(self):
        """Columns satisfy sum_rho chi(x) conj(chi(y)) = |C_G(x)| delta_xy."""
        gram = self.values.conj().T @ self.values
        cent = np.array([self.group.order / s for s in self.class_sizes])
        return float(np.abs(gram - np.diag(cent)).max())

    def sum_of_squared_degrees(self):
        return sum(d * d for d in self.degrees)

    # -- export -------------------------------------------------------------
    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["class_rep", "class_size"] + self.labels)
        for j, (rep, size) in enumerate(zip(self.class_reps, self.class_sizes)):
            row = [self.group.pretty(rep), size]
            row += fmt_complexes(self.values[:, j])
            w.writerow(row)
        return buf.getvalue()

    def to_json_obj(self):
        return {
            "group": repr(self.group),
            "class_reps": [self.group.pretty(r) for r in self.class_reps],
            "class_sizes": list(self.class_sizes),
            "labels": list(self.labels),
            "degrees": list(self.degrees),
            "values": [fmt_complexes(row) for row in self.values],
        }


def character_table_numeric(group, seed=0):
    """Character table from the class-sum algebra, no irrep matrices.

    The class constants a_{ijk} (K_i K_j = sum_k a_{ijk} K_k) give
    matrices M_i = a[i,:,:] whose simultaneous eigenvectors are the central
    characters |C_k| chi(g_k)/chi(1) (Burnside; Dixon, Numer. Math. 10,
    1967); a random real combination T = sum_i c_i M_i, one weighted
    bincount per column and no r x r x r array, separates them.  Rows come
    back canonically sorted.  Purely numeric - this is an independent path
    from any irrep construction.  A table that fails its checks in every
    draw is refused (ResourceCap).
    """
    G = group
    classes = G.conjugacy_classes()
    r = len(classes)
    what = (f"class-sum character table of the {G.kind} group of order "
            f"{G.order} ({r} classes)")
    # T, eig's output, the table and its checks' products peaked 98 and 117
    # bytes per r^2 (r = 900, and 1183 with a failed draw's table beside the
    # next draw's arrays), with four group-length arrays; r bincounts over
    # the group, and eig at 3 multiply-adds per r^3 (it took 1.7-4 ns per
    # r^3 at r = 256-1024, a multiply-add of WORK_LIMIT about 1.2 ns)
    require(what, bytes=128 * r * r + 32 * G.order,
            work=r * G.order + 3 * r ** 3)
    cls_index = np.empty(G.order, dtype=np.int64)
    for i, c in enumerate(classes):
        cls_index[list(c)] = i
    reps = [c[0] for c in classes]
    sizes = np.array([len(c) for c in classes], dtype=float)
    ident_cls = int(cls_index[G.identity])
    invs = G.inverse(np.arange(G.order))

    last = None
    for attempt in range(5):
        rng = np.random.default_rng(seed + attempt)
        # T[j, k] = sum_i c_i a_{ijk}: each x of class i adds c_i at the
        # class j of x^{-1} z_k
        weights = rng.standard_normal(r)[cls_index]
        T = np.empty((r, r))
        for k, z in enumerate(reps):
            T[:, k] = np.bincount(cls_index[G.compose(invs, z)],
                                  weights=weights, minlength=r)
        w, V = np.linalg.eig(T)
        del T
        # reject nearly repeated eigenvalues: eigenvectors would mix rows
        if r > 1 and np.abs(np.diff(np.sort_complex(w))).min() < EIGEN_GAP_TOL:
            last = "degenerate eigenvalues"
            continue
        # column v scaled to v / v[e] holds |C_k| chi(g_k) / chi(1), and
        # sum_k |chi(g_k)|^2 |C_k| = |G| fixes chi(1)
        lead = V[ident_cls]
        if np.abs(lead).min() < LEAD_TOL:
            last = "eigenvector did not normalize to a character"
            continue
        V /= lead  # in place, as the rows below: r x r arrays are the peak
        d = np.sqrt(G.order / np.sum(np.abs(V.T) ** 2 / sizes, axis=1))
        if np.abs(d - np.round(d)).max() > DEGREE_TOL:
            last = "eigenvector did not normalize to a character"
            continue
        values = V.T
        values *= np.round(d)[:, None]
        values /= sizes
        degrees = np.round(d).astype(int)
        order = canonical_order(degrees, values)
        tab = CharacterTable(G, [f"rho{i}" for i in range(r)],
                             degrees[order], values[order])
        if tab.row_orthogonality_error() < ORTHOGONALITY_TOL and \
                tab.column_orthogonality_error() < ORTHOGONALITY_TOL:
            return tab
        last = "orthogonality check failed"
    raise ResourceCap(f"{what} failed its checks in 5 draws: {last}")


def best_character_table(group, seed=0, export="csv"):
    """Character table with the most informative labels available.

    Groups with explicit irreps (see irreps.has_explicit_irreps) get
    their labelled rows, read at the class representatives only; the rest
    get the purely numeric class-sum table with rho<i> labels.  Either is
    refused past TABLE_ENTRY_BYTES[export] per entry before it is built,
    on the irrep listing or on the class count.
    """
    explicit = has_explicit_irreps(group)
    rows = irreps_for(group) if explicit else group.conjugacy_classes()
    require(f"character table of the {group.kind} group of order "
            f"{group.order}", bytes=TABLE_ENTRY_BYTES[export] * len(rows) ** 2)
    if explicit:
        return CharacterTable.from_irreps(group, rows)
    return character_table_numeric(group, seed=seed)

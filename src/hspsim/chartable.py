"""Character tables: from explicit irreps, or numerically from class sums."""
from __future__ import annotations

import csv
import io

import numpy as np

from .irreps import canonical_order, has_explicit_irreps, irreps_for
from .util import fmt_complexes, require

# Peak bytes per entry of an explicit table and its export text, r^2 entries
# for r irreps (r = |G| for cyclic groups): the VmHWM of chartable --group
# cyclic:N above the interpreter's 33 MB was 97 bytes per entry in csv
# (N = 1000, 1500, 2000) and 325 in json (N = 1000, 1500), whose strings
# and text chunks are most of it.  Charged with 8 % and
# 5 % margin, they admit cyclic:2896 and cyclic:1609; under a 1 GiB address
# limit json ran at cyclic:1700 (949 MB) and failed at 1750.
TABLE_ENTRY_BYTES = {"csv": 105, "json": 340}


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

    The structure constants a_{ijk} (K_i K_j = sum_k a_{ijk} K_k) give
    matrices M_i = a[i,:,:] whose simultaneous eigenvectors are the central
    characters |C_k| chi(g_k)/chi(1); a random real combination separates
    them.  Rows come back canonically sorted.  Purely numeric - this is an
    independent path from any irrep construction.
    """
    G = group
    classes = G.conjugacy_classes()
    r = len(classes)
    # the class constants are one r x r x r float64 array
    require(f"class-constant array of the {G.kind} group of order "
            f"{G.order} ({r} classes)", bytes=8 * r ** 3)
    cls_index = np.empty(G.order, dtype=np.int64)
    for i, c in enumerate(classes):
        cls_index[list(c)] = i
    reps = [c[0] for c in classes]
    sizes = np.array([len(c) for c in classes], dtype=float)
    ident_cls = int(cls_index[G.identity])

    # a[i, j, k] counts the x in K_i with x^{-1} z_k in K_j
    a = np.zeros((r, r, r))
    invs = G.inverse(np.arange(G.order))
    for k, z in enumerate(reps):
        pair = cls_index * r + cls_index[G.compose(invs, z)]
        a[:, :, k] = np.bincount(pair, minlength=r * r).reshape(r, r)

    last = None
    for attempt in range(5):
        rng = np.random.default_rng(seed + attempt)
        T = np.tensordot(rng.standard_normal(r), a, axes=1)
        w, V = np.linalg.eig(T)
        # reject nearly repeated eigenvalues: eigenvectors would mix rows
        ws = np.sort_complex(w)
        if r > 1 and min(abs(ws[i + 1] - ws[i]) for i in range(r - 1)) < 1e-6:
            last = "degenerate eigenvalues"
            continue
        rows = []
        ok = True
        for v in V.T:
            if abs(v[ident_cls]) < 1e-12:
                ok = False
                break
            u = v / v[ident_cls]
            d2 = G.order / float(np.sum(np.abs(u) ** 2 / sizes))
            d = np.sqrt(d2)
            if abs(d - round(d)) > 1e-6:
                ok = False
                break
            chi = np.round(d) * u / sizes
            rows.append((int(round(d)), chi))
        if not ok:
            last = "eigenvector did not normalize to a character"
            continue
        degrees = np.array([d for d, _ in rows])
        values = np.array([chi for _, chi in rows])
        order = canonical_order(degrees, values)
        tab = CharacterTable(G, [f"rho{i}" for i in range(r)],
                             degrees[order], values[order])
        if tab.row_orthogonality_error() < 1e-8 and tab.column_orthogonality_error() < 1e-8:
            return tab
        last = "orthogonality check failed"
    raise RuntimeError(f"class-sum character table failed: {last}")


def best_character_table(group, seed=0, export="csv"):
    """Character table with the most informative labels available.

    Groups with explicit irreps (see irreps.has_explicit_irreps) get
    their labelled rows, read at the class representatives only and
    refused on the listing past TABLE_ENTRY_BYTES[export] per entry; the
    rest get the purely numeric class-sum table with rho<i> labels.
    """
    if not has_explicit_irreps(group):
        return character_table_numeric(group, seed=seed)
    irreps = irreps_for(group)
    require(f"character table of the {group.kind} group of order "
            f"{group.order}", bytes=TABLE_ENTRY_BYTES[export] * len(irreps) ** 2)
    return CharacterTable.from_irreps(group, irreps)

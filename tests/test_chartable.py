import re

import numpy as np
import pytest

from hspsim import chartable, util
from hspsim.chartable import (CharacterTable, best_character_table,
                              character_table_numeric)
from hspsim.groups import (
    CyclicGroup, DihedralGroup, PSL2Group, SymmetricGroup, WreathS2Group,
    make_group,
)
from hspsim.irreps import (irreps_for, irreps_generic, irreps_symmetric,
                           irreps_wreath)
from hspsim.util import ResourceCap, fmt_complexes, fmt_float

from helpers import (NUMERIC_GROUPS, class_sum_combination,
                     tables_match_up_to_rows)

# the standard S4 table, rows in canonical order; classes ordered
# (size, smallest member): e, (12)(34) x3, (12) x6, (1234) x6, (123) x8
S4_TABLE = np.array([
    [1, 1, 1, 1, 1],
    [1, 1, -1, -1, 1],
    [2, 2, 0, 0, -1],
    [3, -1, 1, -1, 0],
    [3, -1, -1, 1, 0],
], dtype=float)


def test_s4_class_order():
    G = SymmetricGroup(4)
    sizes = [len(c) for c in G.conjugacy_classes()]
    assert sizes == [1, 3, 6, 6, 8]
    reps = [G.pretty(c[0]) for c in G.conjugacy_classes()]
    assert reps[0] == "e"
    assert reps[1] == "(1 2)(3 4)"


def test_s4_table_frozen():
    t = CharacterTable.from_irreps(SymmetricGroup(4), irreps_symmetric(4))
    assert np.abs(t.values - S4_TABLE).max() < 1e-9
    assert t.degrees == [1, 1, 2, 3, 3]


@pytest.mark.parametrize("make,arg,use", [
    (SymmetricGroup, 3, "sym"),
    (SymmetricGroup, 4, "sym"),
    (DihedralGroup, 4, "gen"),
    (CyclicGroup, 6, "gen"),
    (WreathS2Group, 3, "wreath"),
    (PSL2Group, 5, "gen"),
])
def test_numeric_matches_irrep_table(make, arg, use):
    G = make(arg)
    reps = {"sym": lambda: irreps_symmetric(arg),
            "wreath": lambda: irreps_wreath(arg),
            "gen": lambda: irreps_generic(G)}[use]()
    t1 = character_table_numeric(G)
    t2 = CharacterTable.from_irreps(G, reps)
    assert t1.row_orthogonality_error() < 1e-8
    assert t1.column_orthogonality_error() < 1e-8
    assert tables_match_up_to_rows(t1, t2)
    assert t1.degrees == t2.degrees
    assert t1.sum_of_squared_degrees() == G.order


def test_numeric_table_psl2_13():
    t = character_table_numeric(PSL2Group(13))
    assert t.degrees == [1, 7, 7, 12, 12, 12, 13, 14, 14]
    assert t.sum_of_squared_degrees() == 1092


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("spec", NUMERIC_GROUPS + ["power:z2^6"])
def test_class_sum_combination_matches_the_class_constants(monkeypatch, spec,
                                                           seed):
    # each column of T is one weighted bincount over the group; the whole
    # r x r x r array of class constants is the reference
    G = make_group(spec)
    seen, eig = [], np.linalg.eig

    def recorded(T):
        seen.append(T.copy())
        return eig(T)

    monkeypatch.setattr(np.linalg, "eig", recorded)
    character_table_numeric(G, seed=seed)
    want = class_sum_combination(G, seed)
    assert np.abs(seen[0] - want).max() <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("spec", NUMERIC_GROUPS)
def test_class_sum_listing_is_the_numeric_irreps(spec):
    # cli.listed_irreps checks a group without explicit irreps on its
    # table's labels and degrees, and then builds its numeric irreps
    G = make_group(spec)
    table = character_table_numeric(G)
    irr = irreps_generic(G)
    assert table.labels == [r.label for r in irr]
    assert table.degrees == [r.degree for r in irr]


def test_csv_export():
    t = CharacterTable.from_irreps(SymmetricGroup(3), irreps_symmetric(3))
    lines = t.to_csv().splitlines()
    # labels containing commas get standard CSV quoting
    assert lines[0] == 'class_rep,class_size,[3],"[1,1,1]","[2,1]"'
    assert lines[1].startswith("e,1,")
    # one line per class plus the header
    assert len(lines) == 1 + len(t.classes)
    # 12-significant-digit complex rendering
    assert "1+0i" in lines[1]


def test_bulk_format_matches_per_value_rule():
    # fmt_float on each part, '+' before an imaginary part with no '-'
    def one(z):
        re, im = fmt_float(z.real), fmt_float(z.imag)
        return f"{re}{'' if im.startswith('-') else '+'}{im}i"
    parts = [0.0, -0.0, 1.0, -2.5e-17, 5e-324, -5e-324, 1e16, 1 / 3,
             123456789012345.0, np.inf, -np.inf, np.nan, -np.nan]
    z = np.array([complex(a, b) for a in parts for b in parts]
                 + list(np.exp(2j * np.pi * np.arange(97) / 97)))
    assert fmt_complexes(z) == [one(v) for v in z]
    assert fmt_complexes(z[::-3]) == [one(v) for v in z[::-3]]


def test_csv_quotes_matrix_reps():
    t = character_table_numeric(PSL2Group(5))
    line = t.to_csv().splitlines()[1]
    assert line.startswith('"[[1,0],[0,1]]",1,')


def test_json_mirror():
    t = CharacterTable.from_irreps(SymmetricGroup(3), irreps_symmetric(3))
    obj = t.to_json_obj()
    assert obj["labels"] == t.labels
    assert obj["degrees"] == [1, 1, 2]
    assert len(obj["values"]) == 3 and len(obj["values"][0]) == 3
    assert obj["class_sizes"] == [1, 2, 3]


def test_tables_match_rejects_different():
    t1 = CharacterTable.from_irreps(SymmetricGroup(3), irreps_symmetric(3))
    t2 = character_table_numeric(CyclicGroup(6))
    assert not tables_match_up_to_rows(t1, t2)


@pytest.mark.parametrize("n", [6, 7])
def test_young_tables_match_the_class_sum_table(n):
    # Young's form read at the class representatives: every value lies
    # within 1e-14 of the integer it stands for (2.2e-16 and 1.8e-15
    # measured), where the class-sum table of S_7 misses by up to 7.2e-14
    G = SymmetricGroup(n)
    t = best_character_table(G)
    assert t.labels[0] == f"[{n}]"
    assert tables_match_up_to_rows(t, character_table_numeric(G))
    assert np.abs(t.values - np.round(t.values.real)).max() < 1e-14


@pytest.mark.parametrize("spec", ["wreath:4", "s7"])
def test_explicit_table_reads_only_the_class_representatives(monkeypatch,
                                                             spec):
    # no irrep holds a whole stack or character once the table is built
    listed = []

    def listing(group):
        listed.extend(irreps_for(group))
        return listed

    monkeypatch.setattr(chartable, "irreps_for", listing)
    t = best_character_table(make_group(spec))
    assert len(listed) == len(t.labels)
    assert all(r._mats is None and r._char is None for r in listed)


@pytest.mark.parametrize("spec", ["dihedral:6", "psl2:7", "power:z2^3"])
def test_numeric_table_export_charged_before_the_table(monkeypatch, spec):
    # TABLE_ENTRY_BYTES[export] per entry, r^2 entries for r classes, as
    # on the explicit route, before the class-sum table is formed
    G = make_group(spec)
    r = len(G.conjugacy_classes())
    need = chartable.TABLE_ENTRY_BYTES["json"] * r * r
    built = []
    monkeypatch.setattr(chartable, "character_table_numeric",
                        lambda group, seed=0: built.append(group))
    monkeypatch.setattr(util, "MEMORY_LIMIT", need - 1)
    text = (f"character table of the {G.kind} group of order {G.order} "
            f"needs {need:.3g} bytes")
    with pytest.raises(ResourceCap, match="^" + re.escape(text)):
        best_character_table(G, export="json")
    assert built == []
    best_character_table(G, export="csv")  # 105 bytes per entry fit
    monkeypatch.setattr(util, "MEMORY_LIMIT", need)
    best_character_table(G, export="json")
    assert built == [G, G]

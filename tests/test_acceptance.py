"""Acceptance gate: every criterion as one test, at its stated tolerance
and time cap, printing one pass/fail line each (visible under pytest -v).
"""
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from hspsim import bounds, fourier, groups, simulate
from hspsim import irreps as irrmod
from hspsim.chartable import CharacterTable, character_table_numeric

from helpers import (
    sl2_to_psl2_map, tables_match_up_to_rows, transfer_quotient_report,
    transfer_subgroup_report, wreath_embedding,
)

GROUPS_UNDER_TEST = ["s3", "s4", "dihedral:4", "cyclic:6", "wreath:3", "psl2:5"]


def _finish(name, t0, cap):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
    if cap is not None:
        assert elapsed < cap, f"{name} exceeded the {cap}s time cap"


def _unit_vectors(rng, m, d):
    v = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_criterion_01_representation_soundness():
    t0 = time.time()
    for spec in GROUPS_UNDER_TEST:
        G = groups.make_group(spec)
        irr = irrmod.irreps_for(G)
        assert sum(r.degree ** 2 for r in irr) == G.order, spec
        for r in irr:
            assert irrmod.hom_unitarity_error(r) <= 1e-9, (spec, r.label)
        F = fourier.qft(G, irr)
        assert np.abs(F.conj().T @ F - np.eye(G.order)).max() <= 1e-9, spec
    _finish("1 representation soundness", t0, 30)


def test_criterion_02_facts_suite():
    t0 = time.time()
    for spec in GROUPS_UNDER_TEST:
        G = groups.make_group(spec)
        irr = irrmod.irreps_for(G)
        rng = np.random.default_rng(42)
        for r in irr:
            vecs = _unit_vectors(rng, 20, r.degree)
            assert fourier.check_likemub(r, vecs) <= 1e-10, (spec, r.label)
            assert fourier.check_expected_multiplicity(G, irr, 1, r) <= 1e-10, \
                (spec, r.label)
    for dim, sub in ((4, 1), (6, 3), (9, 5)):
        assert fourier.check_projection_length(dim, sub, seed=7,
                                               n_frames=20) <= 1e-10
    _finish("2 facts suite", t0, 60)


def test_criterion_03_second_moment_identity():
    t0 = time.time()
    W = groups.WreathS2Group(3)
    irr = irrmod.irreps_for(W)
    h = W.swap_element()
    rng = np.random.default_rng(3)
    checked = 0
    for k in (1, 2):
        space = simulate.RegisterSpace(W, irr, k, h)
        for ti, tup in enumerate(space.tuples):
            dim = space.dims[ti]
            if dim > 16:
                continue
            for _ in range(20):
                b = _unit_vectors(rng, 1, dim)[0]
                lhs, rhs = simulate.second_moment_check(W, irr, tup, b, h)
                assert abs(lhs - rhs) <= 1e-8, (k, tup)
                checked += 1
    assert checked == (9 + 81) * 20
    _finish("3 second-moment identity", t0, 300)


def test_criterion_04_distance_bound_soundness():
    t0 = time.time()
    W = groups.WreathS2Group(3)
    irr = irrmod.irreps_for(W)
    h = W.swap_element()
    bp = bounds.params_from_irreps(W, irr, h, 0.2)
    for k in (1, 2):
        d2 = bounds.delta2(bp, k)
        for kind in ("basis", "fused"):
            space = simulate.RegisterSpace(W, irr, k, h, kind=kind)
            for seed in range(50):
                res = simulate.avg_tv_over_conjugates(space, seed)
                assert res["avg_l1"] <= d2, (k, kind, seed)
                assert res["max_tv"] <= math.sqrt(d2), (k, kind, seed)
    _finish("4 distance bound soundness", t0, 600)


def test_criterion_05_trace_norm_bound_strict():
    t0 = time.time()
    cases = [("dihedral:4", None, (1, 2, 3)),
             ("wreath:3", None, (1, 2)),
             ("psl2:5", None, (1, 2))]
    for spec, h, ts in cases:
        G = groups.make_group(spec)
        irr = irrmod.irreps_for(G)
        if h is None:
            h = G.swap_element() if G.kind == "wreath" else \
                (G.params[0] if G.kind == "dihedral" else min(G.involutions()))
        chi = [abs(r.character()[h]) for r in irr]
        eta = bounds.char_eta(G.order, [r.degree for r in irr], chi)
        for t in ts:
            lhs = simulate.mixed_conjugate_trace_distance(G, irr, h, t)
            assert lhs < bounds.trace_norm_bound(eta, t), (spec, t)
    _finish("5 trace-norm bound strict", t0, 300)


def test_criterion_06_psl_table_reproduction():
    t0 = time.time()
    for q in (5, 7, 8, 13):
        G = groups.PSL2Group(q)
        tab = character_table_numeric(G)
        assert tab.sum_of_squared_degrees() == G.order
        assert tab.row_orthogonality_error() <= 1e-8
        assert tab.column_orthogonality_error() <= 1e-8
        want_degrees = sorted(d for _, d, count, _ in bounds.psl_rows(q)
                              for _ in range(count))
        assert sorted(tab.degrees) == want_degrees, q
        # character magnitudes at an involution follow the closed-form rows
        h = min(G.involutions())
        ci = next(i for i, c in enumerate(tab.classes) if h in c)
        got = sorted((d, round(abs(v), 8))
                     for d, v in zip(tab.degrees, tab.values[:, ci]))
        want = sorted((d, float(c)) for _, d, count, c in bounds.psl_rows(q)
                      for _ in range(count))
        assert got == want, q
    # independent paths agree at q = 5
    G5 = groups.PSL2Group(5)
    t_irr = CharacterTable.from_irreps(G5, irrmod.irreps_generic(G5))
    assert tables_match_up_to_rows(character_table_numeric(G5), t_irr)
    # the involution-count discrepancy surfaces as a WARN, never a failure
    actual, formula, note = bounds.involution_count_note(5)
    assert (actual, formula) == (15, 15)
    assert note is not None and "15" in note and "10" in note
    from hspsim import cli
    assert cli.main(["verify", "--suite", "tables", "--group", "psl2:5",
                     "--out", os.devnull]) == 0
    _finish("6 psl table reproduction", t0, None)


def test_criterion_07_corollary_arithmetic():
    t0 = time.time()
    # psl: delta1 = 1/6 + 92/1092 at 1e-12
    rep13 = bounds.psl_bound(13)
    assert abs(rep13["delta1"] - float(Fraction(1, 6) + Fraction(92, 1092))) \
        <= 1e-12
    # wreath: closed form equals the enumerated-irrep path exactly
    W = groups.WreathS2Group(3)
    h = W.swap_element()
    enum = bounds.params_from_irreps(W, irrmod.irreps_wreath(3), h,
                                     float(3) ** (-3 / 4))
    rep3 = bounds.wreath_bound(3)
    assert bounds.wreath_params(3) == enum
    assert rep3["delta1"] == enum.delta1
    assert rep3["d_epsilon"] == enum.d_epsilon
    assert sorted(rep3["s_epsilon_labels"]) == sorted(enum.s_epsilon_labels)
    # direct power: both gates and the character dichotomy
    S4 = groups.SymmetricGroup(4)
    hs = S4.from_perm((1, 0, 2, 3))
    assert math.sqrt(24) > 2 * math.sqrt(5)  # the reported root gate
    power = bounds.direct_power_bound(S4, hs, 10)
    gates = [n for n in power["interpretation_notes"] if "sqrt|G|" in n]
    assert len(gates) == 1 and "fails" not in gates[0]
    gal = bounds.gallagher_check(
        CharacterTable.from_irreps(S4, irrmod.irreps_symmetric(4)), hs)
    assert gal["lambda"] == 2 and gal["threshold"] == Fraction(2, 3)
    others = sorted(round(v, 9) for k, v in gal["ratios"].items()
                    if k not in gal["lambda_labels"])
    assert others == [0.0, round(1 / 3, 9), round(1 / 3, 9)]
    assert all(v < 2 / 3 for v in others)
    _finish("7 corollary arithmetic", t0, 10)


def test_criterion_08_binomial_tail():
    t0 = time.time()
    worked = bounds.binomial_tail(1, 1, 4, 2)
    assert worked["exact"] == 11
    assert abs(worked["bound"] - 16 * math.e ** 2) < 1e-9
    assert float(worked["exact"]) <= worked["bound"]
    rng = random.Random(8)
    for _ in range(200):
        alpha = rng.randint(1, 30)
        beta = rng.randint(1, 30)
        n = rng.randint(1, 14)
        c = math.ceil((alpha + beta) / beta) + rng.randint(1, 5)
        r = bounds.binomial_tail(alpha, beta, n, c)
        assert r["hypothesis_met"] is True
        assert float(r["exact"]) <= r["bound"] * (1 + 1e-12)
    _finish("8 binomial tail", t0, 5)


def test_criterion_09_transfer_lemma():
    t0 = time.time()
    W, S6, mapping = wreath_embedding(3)
    rep = transfer_subgroup_report(S6, mapping, W, W.swap_element())
    assert rep["pass"] and rep["max_spectral_diff"] <= 1e-9
    assert rep["index"] == 10
    sl2 = groups.SL2Group(5)
    psl2 = groups.PSL2Group(5)
    proj = sl2_to_psl2_map(sl2, psl2)
    rep = transfer_quotient_report(sl2, proj, psl2, min(psl2.involutions()))
    assert rep["pass"] and rep["max_spectral_diff"] <= 1e-9
    assert rep["preimage_order"] == 4
    _finish("9 transfer lemma", t0, 120)


def test_criterion_10_cli_determinism():
    t0 = time.time()
    env = dict(os.environ, HSPSIM_TIMESTAMP="1755820800")
    outs = []
    for threads in ("1", "2", "8"):
        p = subprocess.run(
            [sys.executable, "-m", "hspsim.cli", "simulate", "--group",
             "wreath:3", "--k", "1", "--seed", "7", "--threads", threads],
            capture_output=True, env=env)
        assert p.returncode == 0, p.stderr
        outs.append(p.stdout)
    assert outs[0] == outs[1] == outs[2]
    _finish("10 cli determinism", t0, None)

import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from hspsim import bounds, cli, groups, irreps, simulate
from hspsim.chartable import (CharacterTable, best_character_table,
                              character_table_numeric)

from helpers import NUMERIC_GROUPS


def wreath_swap(n):
    W = groups.WreathS2Group(n)
    return W, W.swap_element()


def t_min(eta, threshold=bounds.DEFAULT_THRESHOLD):
    """Smallest t at which the t-copy trace-norm bound reaches threshold.

    Below this t the bound certifies that t averaged copies stay
    indistinguishable at the given advantage.
    """
    t = 1
    while bounds.trace_norm_bound(eta, t) < threshold:
        t += 1
        if t > 10000:
            raise ValueError("threshold unreachable")
    return t


# ---------------------------------------------------------------------------
# partition numbers

def test_partition_numbers():
    assert [bounds.partition_number(n) for n in (0, 1, 5, 10)] == [1, 1, 7, 42]
    assert bounds.partition_number(100) == 190569292
    assert bounds.partition_number(200) == 3972999029388
    with pytest.raises(ValueError):
        bounds.partition_number(-1)


# ---------------------------------------------------------------------------
# core parameters and the k-register bound

def test_bound_params_completeness_guard():
    with pytest.raises(ValueError):
        bounds.bound_params(10, [("a", 1, 1, 1), ("b", 2, 1, 0)], 0.2)


def test_wreath3_frozen_delta_values():
    bp = bounds.wreath_params(3, eps=0.2)
    assert bp.group_order == 72
    assert bp.n_irreps == 9
    assert bp.sum_d == 22
    assert bp.d_epsilon == 36
    assert bp.sum_dchi == 20.0
    assert bp.delta1 == 6.311111111111111
    assert set(bp.s_epsilon_labels) == {
        "theta[3]", "theta'[3]", "theta[1,1,1]", "theta'[1,1,1]",
        "theta[2,1]", "theta'[2,1]"}
    assert abs(bounds.delta2(bp, 1) - 9.134138974395595) < 1e-12
    assert abs(bounds.delta2(bp, 2) - 22.2877859341601) < 1e-10


def test_wreath_params_matches_enumerated_path_exactly():
    for n in (2, 3, 4):
        W, h = wreath_swap(n)
        irr = irreps.irreps_wreath(n)
        for eps in (0.2, float(n) ** (-n / 4)):
            assert bounds.wreath_params(n, eps) == \
                bounds.params_from_irreps(W, irr, h, eps)
        # canonical-eps constructor agrees with the explicit value
        assert bounds.wreath_params(n) == \
            bounds.wreath_params(n, float(n) ** (-n / 4))


# ---------------------------------------------------------------------------
# the group bound's two routes: numeric irreps and the class-sum table


def _route_epsilons(spec):
    """0.2 (the group family's default), 1/7, 0.5 and, for PSL(2, q), the
    psl2 family's canonical cutoff."""
    eps = [0.2, 1 / 7, 0.5]
    if spec.startswith("psl2:"):
        eps.append(bounds.psl_params(int(spec[5:])).epsilon)
    return eps


@pytest.mark.parametrize("spec", NUMERIC_GROUPS)
def test_table_route_matches_numeric_irreps(spec):
    # bound --family group reads a group without explicit irreps off its
    # class-sum table; every field, labels included, must be what the
    # numeric irreps give, at every involution class and cutoff
    G = groups.make_group(spec)
    assert not irreps.has_explicit_irreps(G)
    irr = irreps.irreps_generic(G)
    table = character_table_numeric(G)
    for h in sorted({G.class_of(x)[0] for x in G.involutions()}):
        for eps in _route_epsilons(spec):
            assert bounds.params_from_table(table, h, eps) == \
                bounds.params_from_irreps(G, irr, h, eps), (G.pretty(h), eps)


@pytest.mark.parametrize("spec, eps, degree", [
    ("psl2:5", 0.2, 5), ("psl2:8", 1 / 7, 7)])
def test_table_route_counts_exact_ties(spec, eps, degree):
    # irreps of this degree have |chi(h)|/d exactly at eps, so the route
    # agreement above covers the cutoff's tie
    G = groups.make_group(spec)
    h = G.default_involution()
    table = character_table_numeric(G)
    column = table.values[:, table.column_of(h)]
    tied = [lab for lab, d, v in zip(table.labels, table.degrees, column)
            if d == degree and round(abs(v), 9) / d == eps]
    assert tied
    assert set(tied) <= set(bounds.params_from_table(table, h, eps)
                            .s_epsilon_labels)


def test_params_from_table_refuses_a_complex_column():
    G = groups.make_group("psl2:7")
    table = character_table_numeric(G)
    h = G.default_involution()
    table.values[1, table.column_of(h)] += 1e-6j
    with pytest.raises(ValueError, match="character of rho1 not real at h"):
        bounds.params_from_table(table, h, 0.2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_wreath_closed_form_matches_group_route(capsys, n):
    # n = 3, 4 run on the explicit wreath irreps, n = 5 on the class-sum
    # table: the first exact check of the closed form past the irreps
    eps = float(n) ** (-n / 4)
    rc = cli.main(["bound", "--family", "group", "--group", f"wreath:{n}",
                   "--h", "swap", "--epsilon", repr(eps)])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    bp = bounds.wreath_params(n)
    assert rep["epsilon"] == pytest.approx(bp.epsilon, rel=1e-11)
    assert rep["delta1"] == pytest.approx(bp.delta1, rel=1e-11)
    assert (rep["d_epsilon"], rep["sum_d"], len(rep["s_epsilon_labels"])) \
        == (bp.d_epsilon, bp.sum_d, len(bp.s_epsilon_labels))
    G = groups.make_group(f"wreath:{n}")
    assert len(G.conjugacy_classes()) == bp.n_irreps
    if n == 5:
        assert not irreps.has_explicit_irreps(G)
        assert (rep["delta1"], bp.d_epsilon, bp.sum_d, bp.n_irreps,
                len(bp.s_epsilon_labels)) == (33.0793036166, 6120, 796, 35, 14)


def _partitions_descending(n, mx=None):
    """The partitions of n, largest first, with no part above mx."""
    if n == 0:
        return [()]
    mx = n if mx is None else mx
    return [(k,) + rest for k in range(min(n, mx), 0, -1)
            for rest in _partitions_descending(n - k, k)]


@functools.cache
def _hook_degrees(n):
    return [(lam, irreps.hook_length_degree(lam))
            for lam in _partitions_descending(n)]


def _wreath_params_reference(n, eps):
    """wreath_params from every partition's own hook-length degree: full
    sums over all partitions of n, and S_eps filtered one by one."""
    degs = _hook_degrees(n)
    order = 2 * math.factorial(n) ** 2
    sum_d = sum(d * d for _, d in degs) + sum(d for _, d in degs) ** 2
    if eps is None:
        eps = float(n) ** (-n / 4)
        in_s = [(lam, d) for lam, d in degs if d ** 4 <= n ** n]
    else:
        in_s = [(lam, d) for lam, d in degs if 1.0 / d >= eps]
    labels = [tag + irreps.partition_label(lam)
              for tag in ("theta", "theta'") for lam, _ in in_s]
    sum_dchi = float(sum(2 * d ** 3 for _, d in in_s))
    return bounds.BoundParams(
        group_order=order, n_irreps=2 * len(degs) + math.comb(len(degs), 2),
        epsilon=eps, sum_d=sum_d, s_epsilon_labels=tuple(sorted(labels)),
        d_epsilon=sum(2 * d ** 4 for _, d in in_s), sum_dchi=sum_dchi,
        delta1=eps + sum_d * sum_dchi / order)


def test_wreath_params_independent_of_the_degree_enumeration():
    # the closed forms and the pruned search give what summing and
    # filtering every partition's hook-length degree gives, at every n
    # the family admits
    for n in range(2, bounds.WREATH_MAX_N + 1):
        for eps in (None, 0.2, 1e-3):
            assert bounds.wreath_params(n, eps) == \
                _wreath_params_reference(n, eps), (n, eps)


def test_wreath_params_at_a_degree_tie():
    # eps = 1/d puts the degree-d irreps exactly at the cutoff, and its
    # float neighbours sit on either side of it; the degree at n = 40 is
    # no float, so 1.0/d rounds twice
    for n, d in ((9, 216), (14, 4576), (20, 1), (27, 45997693560),
                 (40, 12336977149121625)):
        assert d in {deg for _, deg in _hook_degrees(n)}
        for eps in (1.0 / d, math.nextafter(1.0 / d, 0),
                    math.nextafter(1.0 / d, 1)):
            assert bounds.wreath_params(n, eps) == \
                _wreath_params_reference(n, eps), (n, eps)


def test_symmetric_involution_count():
    # 1, 1, 2, 4, 10, 26, 76, 232 (OEIS A000085)
    assert [bounds.symmetric_involution_count(n) for n in range(8)] == \
        [1, 1, 2, 4, 10, 26, 76, 232]


def test_wreath_params_large_n_closed_form():
    # the closed forms never enumerate the ~7e8 irreps at n = 40, and the
    # pruned search visits only part of the 37338 partitions of 40
    bp = bounds.wreath_params(40)
    p40 = bounds.partition_number(40)
    assert p40 == 37338
    assert bp.n_irreps == 2 * p40 + p40 * (p40 - 1) // 2
    assert bp.group_order == 2 * math.factorial(40) ** 2
    assert bp.epsilon == float(40) ** (-10)
    assert bp.d_epsilon > 0
    assert bp.delta1 > bp.epsilon


def test_wreath_sum_dchi_cauchy_schwarz():
    # sum over S_eps of d|chi| is at most sqrt(D_eps * |C(h)|)
    W, h = wreath_swap(3)
    bp = bounds.wreath_params(3, eps=0.2)
    ids = np.arange(W.order)
    cent = int(np.sum(W.compose(ids, h) == W.compose(h, ids)))
    assert bp.sum_dchi <= math.sqrt(bp.d_epsilon * cent) + 1e-12


def test_delta2_monotone_in_k():
    bp = bounds.wreath_params(3, eps=0.2)
    vals = [bounds.delta2(bp, k) for k in range(1, 9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_delta2_table_hypothesis_flags():
    table = bounds.wreath_bound(3, eps=0.2, k_max=4)["delta2_by_k"]
    assert [row["k"] for row in table] == [1, 2, 3, 4]
    assert [row["hypothesis_ok"] for row in table] == [True, True, False, False]


def _synthetic(delta1):
    # eps = D_eps = 0, so delta2(k) = 2^k sqrt(delta1)
    return bounds.BoundParams(
        group_order=1, n_irreps=1, epsilon=0.0, sum_d=1, s_epsilon_labels=(),
        d_epsilon=0, sum_dchi=0.0, delta1=delta1)


def test_entanglement_lower_bound_synthetic():
    # sqrt(2^k * 1e-6) < 1/3 up to k = 16, fails at 17
    assert bounds.k_lower_bound(_synthetic(1e-12), threshold=1 / 3) == 16
    assert bounds.k_lower_bound(_synthetic(1.0)) == 0


def test_k_lower_bound_honest_at_desk_scale():
    # at reachable n the additive delta1 term still exceeds 1, so no
    # positive k is certified; the report must say 0, never a fake k
    for n in (3, 20):
        bp = bounds.wreath_params(n)
        assert bp.delta1 > 1
        assert bounds.k_lower_bound(bp) == 0
    rep = bounds.wreath_bound(20)
    assert rep["k_lower_bound"] == 0
    assert any("no positive k" in note for note in rep["interpretation_notes"])


def test_k_lower_bound_certifies_when_delta_small():
    # shrink delta1 artificially to confirm the scan certifies a k and
    # respects its own defining inequalities
    bp = bounds.BoundParams(
        group_order=10 ** 12, n_irreps=100, epsilon=1e-6, sum_d=1000,
        s_epsilon_labels=("a",), d_epsilon=1, sum_dchi=1.0, delta1=1e-9)
    k = bounds.k_lower_bound(bp)
    assert k >= 5
    assert math.sqrt(bounds.delta2(bp, k)) < 1 / 3
    assert math.sqrt(bounds.delta2(bp, k + 1)) >= 1 / 3
    assert 2 * k * bp.epsilon < 1


# ---------------------------------------------------------------------------
# trace-norm bound

def test_trace_norm_bound_wreath3():
    W, h = wreath_swap(3)
    irr = irreps.irreps_wreath(3)
    chi = [abs(r.character()[h]) for r in irr]
    eta = bounds.char_eta(W.order, [r.degree for r in irr], chi)
    assert abs(eta - 5 / 18) < 1e-12
    assert abs(bounds.trace_norm_bound(eta, 2) - 10 / 9) < 1e-12
    assert t_min(eta) == 1
    assert t_min(1e-4) == 12  # 2^12 * 1e-4 = 0.4096 >= 1/3


def test_trace_norm_bound_dominates_simulation():
    W, h = wreath_swap(3)
    irr = irreps.irreps_wreath(3)
    chi = [abs(r.character()[h]) for r in irr]
    eta = bounds.char_eta(W.order, [r.degree for r in irr], chi)
    for t in (1, 2):
        val = simulate.mixed_conjugate_trace_distance(W, irr, h, t)
        assert val <= bounds.trace_norm_bound(eta, t) + 1e-12


# ---------------------------------------------------------------------------
# binomial tail

def test_binomial_tail_worked_case():
    r = bounds.binomial_tail(1, 1, 4, 2)
    assert r["t"] == 2
    assert r["exact"] == 11
    assert abs(r["bound"] - 16 * math.e ** 2) < 1e-9
    assert abs(r["bound"] - 118.22489758289042) < 1e-9
    # c equals (alpha+beta)/beta here, violating the strict hypothesis
    assert r["hypothesis_met"] is False


def test_binomial_tail_random_instances():
    rng = random.Random(20260822)
    for _ in range(200):
        alpha = rng.randint(1, 20)
        beta = rng.randint(1, 20)
        n = rng.randint(1, 12)
        c_min = (alpha + beta) / beta
        c = math.ceil(c_min) + rng.randint(1, 4)
        r = bounds.binomial_tail(alpha, beta, n, c)
        assert r["hypothesis_met"] is True
        assert float(r["exact"]) <= r["bound"] * (1 + 1e-12)


def test_binomial_tail_guards():
    with pytest.raises(ValueError):
        bounds.binomial_tail(0, 1, 4, 2)
    with pytest.raises(ValueError):
        bounds.binomial_tail(1, 1, 0, 2)


# ---------------------------------------------------------------------------
# character dichotomy at an involution

def test_gallagher_s4_transposition():
    S4 = groups.SymmetricGroup(4)
    h = S4.from_perm((1, 0, 2, 3))
    gal = bounds.gallagher_check(best_character_table(S4), h)
    assert gal["lambda_labels"] == ["[1,1,1,1]", "[4]"]
    assert gal["lambda"] == 2
    assert gal["threshold"] == Fraction(2, 3)
    assert gal["centralizer_order"] == 4
    others = [v for k, v in gal["ratios"].items()
              if k not in gal["lambda_labels"]]
    assert sorted(round(v, 9) for v in others) == [0.0, round(1 / 3, 9),
                                                  round(1 / 3, 9)]


def test_gallagher_s5_transposition():
    S5 = groups.SymmetricGroup(5)
    h = S5.from_perm((1, 0, 2, 3, 4))
    gal = bounds.gallagher_check(best_character_table(S5), h)
    assert gal["lambda"] == 2
    assert all(v < float(gal["threshold"]) + 1e-8
               for k, v in gal["ratios"].items()
               if k not in gal["lambda_labels"])


# ---------------------------------------------------------------------------
# direct powers

def test_direct_power_s4_gates_and_report():
    S4 = groups.SymmetricGroup(4)
    h = S4.from_perm((1, 0, 2, 3))
    rep = bounds.direct_power_bound(S4, h, 10)
    assert rep["family"] == "direct-power"
    assert rep["group_order"] == 24 ** 10
    assert 2 <= rep["params"]["c"] <= 16
    # sqrt(24) > 2 sqrt(5) gate is reported as satisfied
    gate_notes = [n for n in rep["interpretation_notes"] if "sqrt|G|" in n]
    assert len(gate_notes) == 1 and "fails" not in gate_notes[0]
    # at this small n the delta chain is vacuous: the honest answer is 0
    assert rep["k_lower_bound"] == 0
    assert all(row["value"] > 0 for row in rep["delta2_by_k"])


def test_direct_power_inapplicable_gate():
    Z2 = groups.CyclicGroup(2)
    with pytest.raises(bounds.CorollaryInapplicable):
        bounds.direct_power_bound(Z2, 1, 4)


# ---------------------------------------------------------------------------
# PSL(2, q) family

def test_psl13_frozen_delta1():
    bp = bounds.psl_params(13)
    assert bp.group_order == 1092
    assert bp.s_epsilon_labels == ("trivial",)
    assert abs(bp.delta1 - 137 / 546) < 1e-12
    assert abs(bp.delta1 - 0.2509157509157509) < 1e-12


def test_psl_params_all_supported_sizes():
    for q in groups.PSL2_SIZES:
        bp = bounds.psl_params(q)
        order = q * (q * q - 1) if q % 2 == 0 else q * (q * q - 1) // 2
        assert bp.group_order == order
        want_eps = 1 / (q - 1) if q % 2 == 0 else 2 / (q - 1)
        assert abs(bp.epsilon - want_eps) < 1e-15
        if q % 4 == 1:
            assert bp.s_epsilon_labels == ("trivial",)
        else:
            assert len(bp.s_epsilon_labels) > 1  # boundary rows included


def test_psl_params_match_one_row_per_irrep():
    # summing each psl_rows class by its count gives the BoundParams of
    # one labelled row per irrep, at the default cutoff and at the ties
    # 2/(q +- 1), 1/q and 1/(q - 1)
    for q in (*groups.PSL2_SIZES, 25, 27, 49, 121, 125, 1024, 4093):
        rows = [(lab if count == 1 else f"{lab}.{i}", d, 1, c)
                for lab, d, count, c in bounds.psl_rows(q)
                for i in range(count)]
        order = sum(d * d for _, d, _, _ in rows)
        default = 1 / (q - 1) if q % 2 == 0 else 2 / (q - 1)
        for eps in (None, 0.5, 1e-3, 2 / (q + 1), 2 / (q - 1), 1 / q,
                    1 / (q - 1)):
            assert bounds.psl_params(q, eps) == bounds.bound_params(
                order, rows, default if eps is None else eps), (q, eps)


def test_psl_degree_pattern_matches_enumerated_table():
    # the (degree, |chi(h)|) multiset of psl_rows, one per irrep, is what
    # psl2:q's class-sum table holds, read exactly, in an involution's
    # column, at every q the group layer builds
    for q in groups.PSL2_SIZES:
        G = groups.PSL2Group(q)
        tab = character_table_numeric(G)
        ci = tab.column_of(G.default_involution())
        got = sorted((d, abs(bounds.chi_at_involution(lab, v))) for lab, d, v
                     in zip(tab.labels, tab.degrees, tab.values[:, ci]))
        want = sorted((d, c) for lab, d, count, c in bounds.psl_rows(q)
                      for _ in range(count))
        assert got == want, q


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wreath_rows_match_the_built_irreps(n):
    # two (d^2, d) rows per S_n degree d and one (2 d d', 0) per pair of
    # partitions: the spectrum wreath_params reads, against the built
    # irreps at the swap
    W, h = wreath_swap(n)
    got = sorted((r.degree, abs(bounds.chi_at_involution(
        r.label, r.character_at(h)))) for r in irreps.irreps_wreath(n))
    degs = [d for _, d in irreps.partition_degrees(n)[0]]
    assert got == sorted([(d * d, d) for d in degs] * 2 + [
        (2 * a * b, 0) for a, b in itertools.combinations(degs, 2)])


@pytest.mark.parametrize("value, chi", [
    (3, 3), (-1.0, -1), (2 + 1e-9, 2), (-2 - 1e-9 + 1e-12j, -2)])
def test_chi_at_involution_reads_an_int(value, chi):
    read = bounds.chi_at_involution("rho", value)
    assert read == chi and type(read) is int


@pytest.mark.parametrize("value, text", [
    (2.4, "character of rho not an integer at h: 2.4"),
    (-0.6, "character of rho not an integer at h: -0.6"),
    (2 + 1e-6j, "character of rho not real at h")])
def test_chi_at_involution_refuses_a_non_integer(value, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        bounds.chi_at_involution("rho", value)


def test_psl_involution_count_notes():
    actual, formula, note = bounds.involution_count_note(5)
    assert (actual, formula) == (15, 15)
    assert note is not None and "10" in note
    actual, formula, note = bounds.involution_count_note(8)
    assert (actual, formula) == (63, 63)
    assert note is None


def test_psl_rejects_non_prime_power():
    with pytest.raises(ValueError):
        bounds.psl_params(6)


def test_psl_bound_report_notes():
    notes = {q: bounds.psl_bound(q)["interpretation_notes"] for q in (5, 7, 8)}
    assert any("opposite sign pairing" in n for n in notes[5])
    assert any("eps cutoff" in n for n in notes[7])
    assert any("eps cutoff" in n for n in notes[8])


# ---------------------------------------------------------------------------
# general linear route comparison

def test_gl_bound_routes():
    rep = bounds.gl_bound(6, 2, 3)
    assert rep["winner"] == "wreath"
    assert rep["combined_exponent"] == pytest.approx(6 * math.log(6))
    rep2 = bounds.gl_bound(2, 13, 4)
    assert rep2["winner"] == "psl"
    with pytest.raises(ValueError):
        bounds.gl_bound(4, 6)


# ---------------------------------------------------------------------------
# report schema and the link to simulation

def _s4_power():
    S4 = groups.SymmetricGroup(4)
    return bounds.direct_power_bound(S4, S4.from_perm((1, 0, 2, 3)), 10)


def _dihedral4_report():
    G = groups.DihedralGroup(4)
    bp = bounds.params_from_irreps(G, irreps.irreps_generic(G), G.n, 0.2)
    return bounds.group_report(G, G.n, bp)


@pytest.mark.parametrize("make, family, delta1", [
    (lambda: bounds.wreath_bound(3, eps=0.2), "wreath", 6.311111111111111),
    (lambda: bounds.psl_bound(13), "psl", 0.2509157509157509),
    (_dihedral4_report, "group", None),
    (_s4_power, "direct-power", None),
], ids=["wreath", "psl", "group", "direct-power"])
def test_family_report_schema(make, family, delta1):
    obj = make()
    assert list(obj.keys()) == [
        "family", "params", "group_order", "epsilon", "s_epsilon_labels",
        "d_epsilon", "sum_dchi", "sum_d", "delta1", "delta2_by_k",
        "k_lower_bound", "threshold", "interpretation_notes"]
    assert obj["family"] == family
    if delta1 is not None:
        assert obj["delta1"] == delta1
    assert [row["k"] for row in obj["delta2_by_k"]] == list(range(1, 9))
    assert {"k", "value", "hypothesis_ok"} == set(obj["delta2_by_k"][0])


def test_group_report_for_dihedral():
    rep = _dihedral4_report()  # at the reflection s
    assert rep["group_order"] == 8
    assert rep["params"]["group"] == "dihedral:4"


def test_delta2_dominates_simulated_distance():
    # the closed-form bound must sit above the exactly simulated average
    # distance between conjugate-subgroup sampling and uniform sampling
    W, h = wreath_swap(3)
    irr = irreps.irreps_wreath(3)
    bp = bounds.params_from_irreps(W, irr, h, 0.2)
    for k in (1, 2):
        space = simulate.RegisterSpace(W, irr, k, h)
        res = simulate.avg_tv_over_conjugates(space, 5)
        assert res["avg_l1"] <= bounds.delta2(bp, k)

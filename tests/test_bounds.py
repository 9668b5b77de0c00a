import math
import random
from fractions import Fraction

import pytest

from hspsim import bounds, groups, irreps, simulate
from hspsim.chartable import CharacterTable, best_character_table


def wreath_swap(n):
    W = groups.make_wreath_s2(n)
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
        bounds.bound_params(10, ["a", "b"], [1, 2], [1.0, 0.0], 0.2)


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


def _partitions_descending(n, mx=None):
    """The partitions of n, largest first, with no part above mx."""
    if n == 0:
        return [()]
    mx = n if mx is None else mx
    return [(k,) + rest for k in range(min(n, mx), 0, -1)
            for rest in _partitions_descending(n - k, k)]


def test_wreath_params_independent_of_the_degree_enumeration(monkeypatch):
    # the same reports from each partition's own hook-length degree, in
    # descending lexicographic order, as from the row-on-top enumeration
    ns = [*range(2, 33), 40]
    got = {n: [bounds.wreath_params(n, eps) for eps in (None, 0.2, 1e-3)]
           for n in ns}
    ref = {n: [(lam, irreps.hook_length_degree(lam))
               for lam in _partitions_descending(n)] for n in ns}
    monkeypatch.setattr(irreps, "partition_degrees", ref.__getitem__)
    for n in ns:
        assert got[n] == [bounds.wreath_params(n, eps)
                          for eps in (None, 0.2, 1e-3)], n


def test_wreath_params_large_n_closed_form():
    # the closed-form path never enumerates the ~7e8 irreps at n = 40: it
    # sums over the 37338 partitions of 40
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
    cent = len(W.centralizer(h).elements)
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
    S4 = groups.make_symmetric(4)
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
    S5 = groups.make_symmetric(5)
    h = S5.from_perm((1, 0, 2, 3, 4))
    gal = bounds.gallagher_check(best_character_table(S5), h)
    assert gal["lambda"] == 2
    assert all(v < float(gal["threshold"]) + 1e-8
               for k, v in gal["ratios"].items()
               if k not in gal["lambda_labels"])


# ---------------------------------------------------------------------------
# direct powers

def test_direct_power_s4_gates_and_report():
    S4 = groups.make_symmetric(4)
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
    Z2 = groups.make_cyclic(2)
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


def test_psl_degree_pattern_matches_enumerated_table():
    # the closed-form degree/character pattern agrees with the numeric
    # class-sum table for an actual involution
    for q in (5, 7, 8):
        G = groups.make_psl2(q)
        tab = best_character_table(G)
        h = min(G.involutions())
        ci = next(i for i, c in enumerate(tab.classes) if h in c)
        got = sorted((d, round(abs(v), 6))
                     for d, v in zip(tab.degrees, tab.values[:, ci]))
        want = sorted((d, float(c))
                      for lab, d, count, c in bounds.psl_rows(q)
                      for _ in range(count))
        assert got == want


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
    S4 = groups.make_symmetric(4)
    return bounds.direct_power_bound(S4, S4.from_perm((1, 0, 2, 3)), 10)


def _dihedral4_report():
    G = groups.make_dihedral(4)
    return bounds.group_report(G, irreps.irreps_generic(G), G.n, eps=0.2)


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
        space = simulate.RegisterSpace(W, irr, k, seed=5)
        res = simulate.avg_tv_over_conjugates(space, h)
        assert res["avg_l1"] <= bounds.delta2(bp, k)

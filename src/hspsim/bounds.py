"""Closed-form entanglement lower bounds from character data.

The central quantities, for a group G with involution h and cutoff eps:

* S_eps: irreps whose normalized character at h is at least eps;
* delta1 = eps + (sum of all degrees)(sum of d|chi(h)| over S_eps)/|G|;
* delta2(k) = 2^k (1 + 2k eps) sqrt(delta1) + 3k eps + 3k D_eps/|G|,
  valid when 2k eps < 1, with D_eps the sum of squared degrees over S_eps;
* the expected distance between k-register sampling distributions of a
  hidden order-two subgroup and of the trivial subgroup is below delta2(k),
  so distinguishing t states at advantage `threshold` forces
  sqrt(t delta2(k)) >= threshold; the largest k violating this is a lower
  bound on the entanglement needed.

All arithmetic uses the float canonical path: character data is rounded
to 9 decimals on entry and summed with math.fsum, which is exactly rounded,
so the order of the terms, and with it the construction route, cannot
change the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .util import STEP_WORK, fmt_float, require

WREATH_MAX_N = 40
DEFAULT_THRESHOLD = 1.0 / 3.0
DEFAULT_K_MAX = 8


class CorollaryInapplicable(ValueError):
    """A family corollary's hypothesis fails for the given parameters."""


# ---------------------------------------------------------------------------
# partition numbers (Euler's pentagonal recurrence)

def partition_number(n):
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


# ---------------------------------------------------------------------------
# core bound parameters

@dataclass(frozen=True)
class BoundParams:
    group_order: int
    n_irreps: int
    epsilon: float
    sum_d: int | float  # floats where only a bound is known (direct powers)
    s_epsilon_labels: tuple
    d_epsilon: int | float
    sum_dchi: float
    delta1: float


def _finish(group_order, n_irreps, eps, sum_d, s_labels, d_eps, sum_dchi):
    delta1 = eps + sum_d * sum_dchi / group_order
    return BoundParams(
        group_order=int(group_order),
        n_irreps=int(n_irreps),
        epsilon=float(eps),
        sum_d=int(sum_d),
        s_epsilon_labels=tuple(sorted(s_labels)),
        d_epsilon=int(d_eps),
        sum_dchi=float(sum_dchi),
        delta1=float(delta1),
    )


def bound_params(group_order, labels, degrees, chi_abs, eps):
    """BoundParams from per-irrep data (labels, degrees, |chi(h)|)."""
    if len(labels) != len(degrees) or len(labels) != len(chi_abs):
        raise ValueError("labels, degrees, chi_abs must have equal length")
    degrees = [int(d) for d in degrees]
    if sum(d * d for d in degrees) != group_order:
        raise ValueError("sum of squared degrees does not match group order")
    eps = float(eps)
    s_labels = []
    d_eps = 0
    dchi = []
    chi_abs = [round(float(c), 9) for c in chi_abs]
    for lab, d, c in zip(labels, degrees, chi_abs):
        if c < -1e-12:
            raise ValueError(f"negative |chi| for {lab}")
        if c / d >= eps:
            s_labels.append(lab)
            d_eps += d * d
            dchi.append(d * c)
    return _finish(group_order, len(labels), eps, sum(degrees),
                   s_labels, d_eps, math.fsum(dchi))


def params_from_irreps(group, irreps, h, eps):
    """BoundParams from explicit irreps and an involution."""
    chi_abs = []
    for r in irreps:
        v = r.character()[h]
        if abs(v.imag) > 1e-8:
            raise ValueError(f"character of {r.label} not real at h")
        chi_abs.append(abs(v.real))
    return bound_params(group.order, [r.label for r in irreps],
                        [r.degree for r in irreps], chi_abs, eps)


def hypothesis_ok(params, k):
    return 2 * k * params.epsilon < 1


def delta2(params, k):
    """Distance bound for k entangled registers (needs 2k eps < 1)."""
    return (2.0 ** k * (1 + 2 * k * params.epsilon) * math.sqrt(params.delta1)
            + 3 * k * params.epsilon
            + 3 * k * params.d_epsilon / params.group_order)


def k_lower_bound(params, t=1, threshold=DEFAULT_THRESHOLD):
    """Largest k in 1..64 with 2k eps < 1 whose distance bound still forbids
    distinguishing t states, sqrt(t delta2(k)) < threshold; 0 if none."""
    return max((k for k in range(1, 65) if hypothesis_ok(params, k)
                and math.sqrt(t * delta2(params, k)) < threshold), default=0)


# ---------------------------------------------------------------------------
# trace-norm bound for conjugate-averaged multi-copy states

def char_eta(group_order, degrees, chi_abs):
    """eta = (1/|G|) sum_rho d_rho |chi_rho(h)| over all irreps."""
    return math.fsum(d * abs(float(c))
                     for d, c in zip(degrees, chi_abs)) / group_order


def trace_norm_bound(eta, t):
    """2^t eta: bound on the trace distance for t averaged copies."""
    return 2.0 ** t * eta


# ---------------------------------------------------------------------------
# family report

def family_report(family, fam_params, bp, notes, t=1,
                  threshold=DEFAULT_THRESHOLD, k_max=DEFAULT_K_MAX):
    """The report of one bound family: its BoundParams, delta2 at
    k = 1..k_max and the certified k."""
    return {
        "family": family,
        "params": fam_params,
        "group_order": bp.group_order,
        "epsilon": bp.epsilon,
        "s_epsilon_labels": list(bp.s_epsilon_labels),
        "d_epsilon": bp.d_epsilon,
        "sum_dchi": bp.sum_dchi,
        "sum_d": bp.sum_d,
        "delta1": bp.delta1,
        "delta2_by_k": [{"k": k, "value": delta2(bp, k),
                         "hypothesis_ok": hypothesis_ok(bp, k)}
                        for k in range(1, k_max + 1)],
        "k_lower_bound": k_lower_bound(bp, t, threshold),
        "threshold": threshold,
        "interpretation_notes": notes,
    }


def group_report(group, irreps, h, eps, t=1, threshold=DEFAULT_THRESHOLD,
                 k_max=DEFAULT_K_MAX):
    """Report for an explicit group, irrep list, and involution."""
    from .groups import spec_of
    bp = params_from_irreps(group, irreps, h, eps)
    spec = spec_of(group)
    notes = [f"involution {group.pretty(h)} in {spec}"]
    return family_report("group", {"group": spec, "h": group.pretty(h)}, bp,
                         notes, t, threshold, k_max)


# ---------------------------------------------------------------------------
# wreath-product family S_n wr S_2 with the coordinate-swap involution

def wreath_params(n, eps=None):
    """BoundParams for S_n wr S_2 at the swap involution.

    Irreps: two of dimension d^2 with |chi| = d for each S_n irrep of
    dimension d, and one of dimension 2 d d' with chi = 0 for each
    unordered pair d != d'. Closed-form sums avoid enumerating the
    (quadratically many) paired irreps; membership of the d^2-dimensional
    irreps in S_eps for the canonical eps = n^(-n/4) reduces to the exact
    integer test d^4 <= n^n.
    """
    if not 2 <= n <= WREATH_MAX_N:
        raise ValueError(f"n must be in 2..{WREATH_MAX_N}")
    if eps is not None and not eps > 0:
        raise ValueError("eps must be positive")
    from .irreps import partition_degrees, partition_label
    degs = partition_degrees(n)
    order = 2 * math.factorial(n) ** 2
    sum_d_small = sum(d for _, d in degs)
    sum_d2 = sum(d * d for _, d in degs)
    if sum_d2 != math.factorial(n):
        raise ValueError("hook-length degrees fail the completeness check")
    sum_d = sum_d2 + sum_d_small ** 2  # 2 sum d^2 + 2 sum_{i<j} d_i d_j
    n_irreps = 2 * len(degs) + len(degs) * (len(degs) - 1) // 2
    nn = n ** n
    if eps is None:
        eps = float(n) ** (-n / 4)
        in_s = [(partition_label(lam), d) for lam, d in degs if d ** 4 <= nn]
    else:
        eps = float(eps)
        in_s = [(partition_label(lam), d) for lam, d in degs
                if 1.0 / d >= eps]
    s_labels = ([f"theta{lab}" for lab, _ in in_s]
                + [f"theta'{lab}" for lab, _ in in_s])
    d_eps = 2 * sum(d ** 4 for _, d in in_s)
    sum_dchi = 2 * math.fsum(d ** 3 for _, d in in_s)
    return _finish(order, n_irreps, eps, sum_d, s_labels, d_eps, sum_dchi)


def wreath_bound(n, eps=None, t=1, threshold=DEFAULT_THRESHOLD,
                 k_max=DEFAULT_K_MAX):
    bp = wreath_params(n, eps)
    notes = [
        "hidden involution: the coordinate swap (e|e|1)",
        "asymptotically delta2 = 2^k n^(-Omega(n)), forcing "
        "k = Omega(n log n) registers for polynomially many states",
        "the same lower bound transfers to S_n and, via the standard "
        "graph-isomorphism reduction, to S_2n",
    ]
    if bp.delta1 >= 1:
        notes.append(
            "at this n the delta1 term exceeds 1, so no positive k is "
            "certified; the family bound takes hold only asymptotically")
    return family_report("wreath", {"n": n}, bp, notes, t, threshold, k_max)


# ---------------------------------------------------------------------------
# projective linear family PSL(2, q)

def _is_prime_power(q):
    """The prime p with q a power of p, else None, by trial division."""
    if q < 2:
        return None
    # a Python loop step per trial divisor, at most sqrt(q) of them
    require(f"trial division of {q}", work=STEP_WORK * math.isqrt(q))
    for p in range(2, q + 1):
        if p * p > q:
            return q  # q itself prime
        if q % p == 0:
            m = q
            while m % p == 0:
                m //= p
            return p if m == 1 else None
    return None


def psl_rows(q):
    """(label, degree, count, |chi(h)|) rows of the PSL(2, q) table."""
    if q % 2 == 0:
        return [
            ("trivial", 1, 1, 1),
            (f"deg{q}", q, 1, 0),
            (f"deg{q - 1}", q - 1, q // 2, 1),
            (f"deg{q + 1}", q + 1, (q - 2) // 2, 1),
        ]
    if q % 4 == 1:
        return [
            ("trivial", 1, 1, 1),
            (f"deg{q}", q, 1, 1),
            (f"deg{q - 1}", q - 1, (q - 1) // 4, 0),
            (f"deg{q + 1}", q + 1, (q - 5) // 4, 2),
            (f"deg{(q + 1) // 2}", (q + 1) // 2, 2, 1),
        ]
    return [
        ("trivial", 1, 1, 1),
        (f"deg{q}", q, 1, 1),
        (f"deg{q - 1}", q - 1, (q - 3) // 4, 2),
        (f"deg{q + 1}", q + 1, (q - 3) // 4, 0),
        (f"deg{(q - 1) // 2}", (q - 1) // 2, 2, 1),
    ]


def psl_params(q, eps=None):
    """BoundParams for PSL(2, q) at an involution, from the degree pattern."""
    # at most 256 bytes per irrep at the peak: its label, degree and |chi|
    # and the report's S_eps labels (psl2:6881263, 3440634 irreps, peaked at
    # 731 MiB of address space)
    rows = sum(count for _, _, count, _ in psl_rows(q))
    require(f"irrep table of PSL(2, {q}) ({rows} irreps)", bytes=256 * rows)
    if _is_prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    order = q * (q * q - 1) if q % 2 == 0 else q * (q * q - 1) // 2
    if eps is None:
        eps = Fraction(1, q - 1) if q % 2 == 0 else Fraction(2, q - 1)
    labels, degrees, chi = [], [], []
    for lab, d, count, c in psl_rows(q):
        for i in range(count):
            labels.append(lab if count == 1 else f"{lab}.{i}")
            degrees.append(d)
            chi.append(c)
    return bound_params(order, labels, degrees, chi, float(eps))


def involution_count_note(q):
    """Compare the enumerated involution count with the two sign readings."""
    if q % 2 == 0:
        formula = q * q - 1
        literal = formula
    elif q % 4 == 1:
        formula = q * (q + 1) // 2   # centralizer order q - 1
        literal = q * (q - 1) // 2   # the other sign pairing
    else:
        formula = q * (q - 1) // 2   # centralizer order q + 1
        literal = q * (q + 1) // 2
    note = None
    actual = None
    from .groups import PSL2_SIZES, make_psl2
    if q in PSL2_SIZES:
        actual = len(make_psl2(q).involutions())
        if actual != formula:
            return actual, formula, (
                f"FAIL: enumerated involution count {actual} != {formula}")
        if literal != formula:
            note = (f"WARN: involution count is {actual}; the opposite "
                    f"sign pairing would give {literal}")
    return actual, formula, note


def psl_bound(q, eps=None, t=1, threshold=DEFAULT_THRESHOLD,
              k_max=DEFAULT_K_MAX):
    bp = psl_params(q, eps)
    notes = []
    if eps is None and q % 4 == 3:
        notes.append(
            "note: for q = 3 mod 4 the (q-1)-dimensional and "
            "(q-1)/2-dimensional irreps sit exactly at the eps cutoff and "
            "are counted inside S_eps")
    if eps is None and q % 2 == 0:
        notes.append(
            "note: for even q the (q-1)-dimensional irreps sit exactly at "
            "the eps cutoff and are counted inside S_eps")
    _, _, inv_note = involution_count_note(q)
    if inv_note:
        notes.append(inv_note)
    notes.append(
        "asymptotically delta2 = 2^k O(q^(-1/2)), forcing k to grow like "
        "log of the group order; the stated growth rate marker Omega(q) "
        "overshoots the log|G| scale")
    return family_report("psl", {"q": q}, bp, notes, t, threshold, k_max)


# ---------------------------------------------------------------------------
# general linear groups: best of two transfer routes

def gl_bound(n, p, m=1):
    """Compare the two lower-bound routes into GL(n, p^m).

    Route A embeds permutation matrices (wreath route): k grows like
    n log n. Route B embeds GL(2, p^{m floor(n/2)}) blockwise (psl route):
    k grows like floor(n/2) m log p. Reports both exponents and the winner.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if _is_prime_power(p) != p:
        raise ValueError("p must be prime")
    route_a = n * math.log(n)
    route_b = (n // 2) * m * math.log(p)
    winner = "wreath" if route_a >= route_b else "psl"
    return {
        "family": "gl",
        "params": {"n": n, "p": p, "m": m},
        "route_wreath_exponent": route_a,
        "route_psl_exponent": route_b,
        "winner": winner,
        "combined_exponent": max(route_a, route_b),
        "interpretation_notes": [
            "entanglement grows at least like n(m log p + log n) registers",
            f"route comparison: n log n = {fmt_float(route_a)} vs "
            f"floor(n/2) m log p = {fmt_float(route_b)}",
        ],
    }


# ---------------------------------------------------------------------------
# direct powers G^n with the diagonal involution

def binomial_tail(alpha, beta, n, c):
    """Exact tail sum and its closed-form bound.

    Exact: sum_{l = n-t}^{n} C(n, l) alpha^l beta^(n-l) with t = floor(n/c).
    Bound: (alpha (c e (alpha+beta)/alpha)^(1/c))^n, stated for
    c > (alpha+beta)/beta but evaluated for any c >= 1.
    """
    if min(alpha, beta) <= 0 or n < 1 or c < 1:
        raise ValueError("need alpha, beta > 0, n >= 1, c >= 1")
    t = int(n // c)
    a, b = Fraction(alpha), Fraction(beta)
    exact = sum(Fraction(math.comb(n, l)) * a ** l * b ** (n - l)
                for l in range(n - t, n + 1))
    base = float(alpha) * (c * math.e * float(alpha + beta)
                           / float(alpha)) ** (1.0 / c)
    return {
        "t": t,
        "exact": exact,
        "bound": base ** n,
        "hypothesis_met": c > float((a + b) / b),
    }


def gallagher_check(table, h):
    """Character dichotomy at an involution: |chi| = d, or ratio below
    1 - 2|C(h)|/|G|.

    Returns the labels with |chi(h)| = d, the squared-degree mass lambda,
    the threshold, and all ratios; raises if any irrep violates both sides.
    """
    classes = table.classes
    ci = next(i for i, c in enumerate(classes) if h in c)
    order = table.group.order
    centralizer = order // table.class_sizes[ci]
    threshold = Fraction(1) - Fraction(2 * centralizer, order)
    lam_labels = []
    lam = 0
    ratios = {}
    for lab, d, v in zip(table.labels, table.degrees, table.values[:, ci]):
        a = abs(v)
        ratios[lab] = float(a / d)
        if abs(a - d) <= 1e-8 * d:
            lam_labels.append(lab)
            lam += d * d
        elif a / d < float(threshold) + 1e-8:
            pass
        else:
            raise ValueError(
                f"character dichotomy fails for {lab}: |chi|/d = {a / d}, "
                f"threshold {float(threshold)}")
    return {
        "lambda_labels": sorted(lam_labels),
        "lambda": lam,
        "threshold": threshold,
        "centralizer_order": centralizer,
        "ratios": ratios,
    }


def direct_power_bound(group, h, n, c=None, t=1, threshold=DEFAULT_THRESHOLD,
                       k_max=DEFAULT_K_MAX, table=None):
    """Report for G^n with hidden subgroup generated by (h, ..., h).

    Checks the two applicability gates (|G| > lambda * sum of degrees,
    and |G| > |Ghat| * lambda^2), then takes the split parameter c in 2..16
    with the largest certified k, the smallest such c on ties.
    """
    from .chartable import best_character_table
    if table is None:
        table = best_character_table(group)
    gal = gallagher_check(table, h)
    lam = gal["lambda"]
    order = group.order
    sum_d = sum(table.degrees)
    n_irreps = len(table.labels)
    gate1 = order > lam * sum_d
    gate2 = order > n_irreps * lam * lam
    if not gate1:
        raise CorollaryInapplicable(
            f"requires |G| > lambda * (sum of degrees): "
            f"{order} <= {lam} * {sum_d}")
    big_order = order ** n
    pow_sum_d = sum_d ** n

    def split(c_val):
        # the tail bound stands in for both D_eps and the chi-weighted sum
        tail = binomial_tail(lam, order - lam, n, c_val)
        eps = float(gal["threshold"]) ** tail["t"]
        d_eps = min(float(tail["exact"]), tail["bound"])
        return c_val, tail, BoundParams(
            group_order=big_order, n_irreps=n_irreps ** n, epsilon=eps,
            sum_d=float(pow_sum_d), s_epsilon_labels=(), d_epsilon=d_eps,
            sum_dchi=d_eps, delta1=eps + d_eps * pow_sum_d / big_order)

    c, tail, bp = max(map(split, range(2, 17) if c is None else [c]),
                      key=lambda s: k_lower_bound(s[2], t, threshold))
    notes = [
        f"gallagher threshold {gal['threshold']} "
        f"(centralizer order {gal['centralizer_order']}), "
        f"lambda labels {gal['lambda_labels']}",
        f"gate |G| > lambda*sum_d: {order} > {lam * sum_d}",
        (f"gate sqrt|G| > sqrt|Ghat|*lambda: "
         f"{fmt_float(math.sqrt(order))} > "
         f"{fmt_float(math.sqrt(n_irreps) * lam)}"
         if gate2 else
         f"gate sqrt|G| > sqrt|Ghat|*lambda fails: "
         f"{fmt_float(math.sqrt(order))} <= "
         f"{fmt_float(math.sqrt(n_irreps) * lam)}"),
        f"split parameter c = {c}, tail cutoff t = {tail['t']}",
        "the certified k grows linearly in n once the gate ratio "
        "lambda*sum_d/|G| decays against the tail estimate",
    ]
    return family_report(
        "direct-power", {"base": f"{group.kind}{group.params}",
                         "h": group.pretty(h), "n": n, "c": c},
        bp, notes, t, threshold, k_max)

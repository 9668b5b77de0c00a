"""Command-line interface: bound reports, exact sampling simulation,
verification suites, and character-table export.

All reports are deterministic: floats print at 12 significant digits,
reductions are pairwise-summed in fixed order, and the timestamp honors
HSPSIM_TIMESTAMP / SOURCE_DATE_EPOCH, so identical commands give identical
bytes.  Every command runs in one thread: --threads and HSPSIM_THREADS are
accepted and validated, and change nothing.

Exit codes: 0 success; 1 a verify check failed; 2 a family corollary does
not apply to the given parameters; 64 usage or parse error (any other
ValueError); 69 a ResourceCap, raised before the work is allocated.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys

import numpy as np

from . import __version__, bounds, simulate
from . import irreps as irrmod
from .chartable import best_character_table
from .groups import PSL2Group, make_group, order_two_subgroup, spec_of
from .util import (STEP_WORK, ResourceCap, dumps_report, fmt_float,
                   pairwise_sum, require, timestamp)

EX_OK = 0
EX_VERIFY_FAIL = 1
EX_INAPPLICABLE = 2
EX_USAGE = 64
EX_RESOURCE = 69

THREADS_ENV = "HSPSIM_THREADS"

class UsageError(ValueError):
    """Missing, invalid or contradictory command-line arguments."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    top = _Parser(
        prog="hspsim",
        description=(
            "Quantum Fourier sampling over finite groups: closed-form "
            "entanglement lower bounds, exact distribution simulation, "
            "verification suites, and character tables."),
        epilog=(
            "Group spec grammar: symmetric:N (or sN), cyclic:N (or zN), "
            "dihedral:N, wreath:N (S_N wr S_2), psl2:Q, sl2:Q, and "
            "power:<base>^<n> for direct powers."))
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="json"):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted, must be at least 1; hspsim runs in "
                       "one thread, so it changes nothing")
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default=fmt_default)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    b = sub.add_parser("bound", parents=[], help="closed-form bound report")
    b.add_argument("--family", required=True,
                   choices=["wreath", "psl2", "power", "gl", "group"])
    b.add_argument("--n", type=int, default=None,
                   help="family size (wreath/power/gl)")
    b.add_argument("--q", type=int, default=None, help="field size (psl2)")
    b.add_argument("--p", type=int, default=None, help="characteristic (gl)")
    b.add_argument("--m", type=int, default=1, help="field extension (gl)")
    b.add_argument("--c", type=int, default=None,
                   help="tail split parameter (power; default: search 2..16)")
    b.add_argument("--group", default=None,
                   help="group spec (power base / group family)")
    b.add_argument("--h", default=None, help="involution (cycle notation, "
                   "'id:<n>', or family default)")
    b.add_argument("--epsilon", type=float, default=None,
                   help="cutoff (default: canonical per family, else 0.2)")
    b.add_argument("--k-max", dest="k_max", type=int, default=8)
    b.add_argument("--t", type=int, default=1, help="number of states")
    b.add_argument("--threshold", type=float, default=1 / 3)
    common(b)

    s = sub.add_parser("simulate", help="exact sampling distributions")
    s.add_argument("--group", required=True)
    s.add_argument("--h", default=None)
    s.add_argument("--k", type=int, default=1, help="entangled registers")
    s.add_argument("--frames", type=int, default=1,
                   help="independent random frame draws")
    s.add_argument("--frame-kind", dest="frame_kind",
                   choices=["basis", "fused"], default="basis")
    s.add_argument("--t", type=int, default=None,
                   help="also report the t-copy averaged trace distance")
    s.add_argument("--epsilon", type=float, default=0.2)
    s.add_argument("--threshold", type=float, default=1 / 3)
    common(s)

    v = sub.add_parser("verify", help="named check suites")
    v.add_argument("--suite", required=True,
                   choices=["facts", "lemmas", "tables"])
    v.add_argument("--group", required=True)
    v.add_argument("--h", default=None)
    v.add_argument("--k", type=int, default=1)
    v.add_argument("--frame-kind", dest="frame_kind",
                   choices=["basis", "fused"], default="basis")
    v.add_argument("--epsilon", type=float, default=0.2)
    common(v)

    c = sub.add_parser("chartable", help="character table export")
    c.add_argument("--group", required=True)
    common(c, fmt_default="csv")
    return top


# ---------------------------------------------------------------------------
# arguments

def resolve_h(group, text):
    if text is None:
        return group.default_involution()
    x = group.parse_element(text)
    if x == group.identity or group.compose(x, x) != group.identity:
        raise UsageError(f"element {text!r} is not an involution")
    return x


def check_threads(flag):
    """Validate --threads, else HSPSIM_THREADS: either below 1, or not an
    integer, is a usage error.  Neither sets anything, since every command
    runs in one thread; the flag wins, so the variable is then not read."""
    if flag is not None:
        if flag < 1:
            raise UsageError(f"argument --threads: must be at least 1, got "
                             f"{flag}")
        return
    env = os.environ.get(THREADS_ENV, "").strip()
    if not env:
        return
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise UsageError(f"environment variable {THREADS_ENV}: must be an "
                         f"integer of at least 1, got {env!r}")


def make_header(seed, group_spec):
    return {
        "tool_version": __version__,
        "seed": seed,
        "group_spec": group_spec,
        "timestamp": timestamp(),
    }


# ---------------------------------------------------------------------------
# output rendering

def _flatten(obj, prefix, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", rows)
    else:
        if isinstance(obj, bool):
            val = "true" if obj else "false"
        elif obj is None:
            val = ""
        elif isinstance(obj, (float, np.floating)):
            val = fmt_float(obj)
        else:
            val = str(obj)
        rows.append((prefix, val))


def render_report(report, fmt):
    if fmt == "json":
        return dumps_report(report)
    rows = []
    _flatten(report, "", rows)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["key", "value"])
        w.writerows(rows)
        return buf.getvalue()
    return "".join(f"{k} = {v}\n" for k, v in rows)


def write_output(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# bound

FAMILY_FLAGS = {"wreath": ("n",), "psl2": ("q",), "power": ("group", "n"),
                "gl": ("n", "p"), "group": ("group",)}


def cmd_bound(args):
    t = args.t
    if t < 1:
        raise UsageError("--t must be at least 1")
    if args.m < 1:
        raise UsageError(f"argument --m: must be at least 1, got {args.m}")
    if args.k_max > 1023:  # 2^k passes the float range
        raise UsageError(f"argument --k-max: must be at most 1023, got "
                         f"{args.k_max}")
    need = FAMILY_FLAGS[args.family]
    if any(getattr(args, name) is None for name in need):
        raise UsageError(f"--family {args.family} requires "
                         + " and ".join(f"--{name}" for name in need))
    if args.family == "wreath":
        rep = bounds.wreath_bound(args.n, eps=args.epsilon, t=t,
                                  threshold=args.threshold, k_max=args.k_max)
        spec = f"wreath:{args.n}"
    elif args.family == "psl2":
        rep = bounds.psl_bound(args.q, eps=args.epsilon, t=t,
                               threshold=args.threshold, k_max=args.k_max)
        spec = f"psl2:{args.q}"
    elif args.family == "power":
        base = make_group(args.group)
        h = resolve_h(base, args.h)
        # the report holds |G|^n as a float; log rounds up at |G| = 2
        n_max = int(math.log(sys.float_info.max, base.order))
        n_max -= base.order ** n_max > sys.float_info.max
        if args.n > n_max:
            raise UsageError(f"argument --n: must be at most {n_max} for "
                             f"{spec_of(base)}, got {args.n}")
        rep = bounds.direct_power_bound(base, h, args.n, c=args.c, t=t,
                                        threshold=args.threshold,
                                        k_max=args.k_max)
        spec = f"power:{spec_of(base)}^{args.n}"
    elif args.family == "gl":
        rep = bounds.gl_bound(args.n, args.p, args.m)
        spec = f"gl({args.n},{args.p}^{args.m})"
    else:  # generic group family
        G = make_group(args.group)
        h = resolve_h(G, args.h)
        irr = irrmod.irreps_for(G, seed=args.seed)
        eps = args.epsilon if args.epsilon is not None else 0.2
        rep = bounds.group_report(G, irr, h, eps, t=t,
                                  threshold=args.threshold, k_max=args.k_max)
        spec = spec_of(G)
    report = {"header": make_header(args.seed, spec), **rep}
    write_output(render_report(report, args.format), args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args):
    if args.t is not None and args.t < 1:
        raise UsageError("--t must be at least 1")
    if args.frames < 1:
        raise UsageError("--frames must be at least 1")
    G = make_group(args.group)
    h = resolve_h(G, args.h)
    # The frame vectors alone take 16 |G|^k bytes.  Past the limit, a group
    # without explicit irreps is refused as the numeric irreps would be, or
    # else names the refused tuple from its class-sum table (same labels and
    # degrees) without building them; explicit irreps are cheap, and
    # require_sampling refuses after them.
    try:
        require(f"frame vectors of k={args.k} registers", bytes=16 *
                simulate.frame_entries(G.order, args.k, args.frame_kind))
    except ResourceCap:
        if irrmod.explicit_construction(G) is None:
            irrmod.require_numeric_irreps(G)
            table = best_character_table(G, seed=args.seed)
            simulate.require_sampling(table.labels, table.degrees, args.k,
                                      args.frame_kind, len(G.class_of(h)),
                                      args.frames)
            raise
    irr = irrmod.irreps_for(G, seed=args.seed)
    conjugates = len(G.class_of(h))
    simulate.require_sampling([r.label for r in irr],
                              [r.degree for r in irr], args.k,
                              args.frame_kind, conjugates, args.frames)

    children = np.random.SeedSequence(args.seed).generate_state(args.frames)
    per_seed = []
    for i in range(args.frames):
        space = simulate.RegisterSpace(G, irr, args.k, seed=int(children[i]),
                                       kind=args.frame_kind)
        res = simulate.avg_tv_over_conjugates(space, h)
        per_seed.append({
            "frame_index": i,
            "avg_l1": res["avg_l1"],
            "avg_tv": res["avg_tv"],
            "max_tv": res["max_tv"],
        })
    mean_avg_l1 = pairwise_sum([r["avg_l1"] for r in per_seed]) / args.frames
    mean_avg_tv = pairwise_sum([r["avg_tv"] for r in per_seed]) / args.frames
    max_tv = max(r["max_tv"] for r in per_seed)

    bp = bounds.params_from_irreps(G, irr, h, args.epsilon)
    d2 = bounds.delta2(bp, args.k)
    report = {
        "header": make_header(args.seed, spec_of(G)),
        "h": G.pretty(h),
        "k": args.k,
        "frame_kind": args.frame_kind,
        "frames": args.frames,
        "conjugates": conjugates,
        "per_seed": per_seed,
        "mean_avg_l1": mean_avg_l1,
        "mean_avg_tv": mean_avg_tv,
        "max_tv": max_tv,
        "epsilon": args.epsilon,
        "delta1": bp.delta1,
        "delta2": d2,
        "hypothesis_ok": bounds.hypothesis_ok(bp, args.k),
        "avg_l1_below_delta2": bool(mean_avg_l1 <= d2),
    }
    if args.t is not None:
        chi = [abs(r.character()[h]) for r in irr]
        eta = bounds.char_eta(G.order, [r.degree for r in irr], chi)
        mixed = simulate.mixed_conjugate_trace_distance(G, irr, h, args.t)
        report["mixed_copies"] = {
            "t": args.t,
            "trace_distance": mixed,
            "bound": bounds.trace_norm_bound(eta, args.t),
            "below_bound": bool(mixed <= bounds.trace_norm_bound(eta, args.t)),
        }
    write_output(render_report(report, args.format), args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# verify

def _check(name, ok, lhs=None, rhs=None, detail=None, warn=False):
    status = "PASS" if ok else ("WARN" if warn else "FAIL")
    entry = {"check": name, "status": status}
    if lhs is not None:
        entry["lhs"] = lhs
    if rhs is not None:
        entry["rhs"] = rhs
    if detail:
        entry["detail"] = detail
    return entry


def _suite_facts(G, args):
    from . import fourier
    ns = (1, 2) if G.order <= 40 else (1,)
    # a loop step per Schur pair and multiplicity tuple of the r irreps (one
    # per class); the Schur sums are |G|^3
    r = len(G.conjugacy_classes())
    require(f"facts suite over {r} irreps", work=G.order ** 3 + STEP_WORK * (
        r * r + sum(r ** (n + 1) for n in ns)))
    irr = irrmod.irreps_for(G, seed=args.seed)
    checks = []
    # largest degree first, so an over-budget check is refused before the
    # multiplication table is built
    err = max(irrmod.hom_unitarity_error(r)
              for r in sorted(irr, key=lambda r: -r.degree))
    checks.append(_check("unitary homomorphism", err < 1e-8, lhs=err, rhs=1e-8))
    err = irrmod.schur_orthogonality_error(G, irr)
    checks.append(_check("matrix-entry orthogonality", err < 1e-8,
                         lhs=err, rhs=1e-8))
    err = max(r.degree * abs(sum(r.character()[g] for g in range(G.order))
                             / G.order) for r in irr[1:]) if len(irr) > 1 else 0.0
    checks.append(_check("nontrivial character mean zero", err < 1e-8,
                         lhs=err, rhs=1e-8))
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for r in irr:
        vecs = rng.standard_normal((3, r.degree)) \
            + 1j * rng.standard_normal((3, r.degree))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        worst = max(worst, fourier.check_likemub(r, vecs))
    checks.append(_check("mean squared overlap is 1/d", worst < 1e-8,
                         lhs=worst, rhs=1e-8))
    worst = max(fourier.check_projection_length(d, s, seed=args.seed)
                for d, s in ((4, 1), (6, 3), (9, 5)))
    checks.append(_check("projected length averages to rank/dim",
                         worst < 1e-8, lhs=worst, rhs=1e-8))
    worst = max(fourier.check_expected_multiplicity(G, irr, n, tau)
                for n in ns for tau in irr)
    checks.append(_check("expected tuple multiplicity", worst < 1e-8,
                         lhs=worst, rhs=1e-8))
    return checks


def _suite_lemmas(G, args):
    h = resolve_h(G, args.h)
    irr = irrmod.irreps_for(G, seed=args.seed)
    checks = []
    suite = simulate.lemma_suite(G, irr, h, args.k, args.epsilon,
                                 seed=args.seed, kind=args.frame_kind)
    try:  # reported first, run once the suite has passed its estimates
        err = simulate.fourier_roundtrip_error(G, order_two_subgroup(G, h),
                                               irr)
        checks.append(_check("transform diagonalizes the hidden-subgroup state",
                             err < 1e-9, lhs=err, rhs=1e-9))
    except ResourceCap:  # too large to run; the suite stands without it
        pass
    for entry in suite:  # pass None marks an informational WARN
        checks.append(_check(entry["check"], bool(entry["pass"]),
                             lhs=entry["lhs"], rhs=entry["rhs"],
                             detail=entry.get("detail"),
                             warn=entry["pass"] is None))
    return checks


def _suite_tables(G, args):
    table = best_character_table(G, seed=args.seed)
    checks = []
    ssq = table.sum_of_squared_degrees()
    checks.append(_check("squared degrees sum to group order",
                         ssq == G.order, lhs=ssq, rhs=G.order))
    nclasses = len(table.classes)
    checks.append(_check("one irrep per conjugacy class",
                         len(table.labels) == nclasses,
                         lhs=len(table.labels), rhs=nclasses))
    err = table.row_orthogonality_error()
    checks.append(_check("row orthogonality", err < 1e-8, lhs=err, rhs=1e-8))
    err = table.column_orthogonality_error()
    checks.append(_check("column orthogonality", err < 1e-8, lhs=err, rhs=1e-8))
    if isinstance(G, PSL2Group):
        q = G.q
        want = sorted(d for _, d, count, _ in bounds.psl_rows(q)
                      for _ in range(count))
        got = sorted(table.degrees)
        checks.append(_check("degree pattern matches the closed form",
                             got == want, lhs=str(got), rhs=str(want)))
        actual, formula, note = bounds.involution_count_note(q)
        checks.append(_check("involution count", not note,
                             lhs=actual, rhs=formula, detail=note, warn=True))
    else:
        n_inv = len(G.involutions())
        checks.append(_check("involution count recorded", True, lhs=n_inv))
    return checks


def cmd_verify(args):
    G = make_group(args.group)
    suites = {"facts": _suite_facts, "lemmas": _suite_lemmas,
              "tables": _suite_tables}
    checks = suites[args.suite](G, args)
    n_fail = sum(1 for c in checks if c["status"] == "FAIL")
    report = {
        "header": make_header(args.seed, spec_of(G)),
        "suite": args.suite,
        "checks": checks,
        "n_pass": sum(1 for c in checks if c["status"] == "PASS"),
        "n_warn": sum(1 for c in checks if c["status"] == "WARN"),
        "n_fail": n_fail,
    }
    write_output(render_report(report, args.format), args.out)
    return EX_VERIFY_FAIL if n_fail else EX_OK


# ---------------------------------------------------------------------------
# chartable

def cmd_chartable(args):
    G = make_group(args.group)
    table = best_character_table(G, seed=args.seed)
    if args.format == "json":
        report = {"header": make_header(args.seed, spec_of(G)),
                  "table": table.to_json_obj()}
        write_output(dumps_report(report), args.out)
    else:  # csv and text share the bit-exact export
        write_output(table.to_csv(), args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# entry point

def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse has written its message or help
        return e.code
    handlers = {
        "bound": cmd_bound,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "chartable": cmd_chartable,
    }
    try:
        for name in ("epsilon", "threshold"):  # NaN fails both comparisons
            value = getattr(args, name, None)
            if value is not None and not 0 <= value < math.inf:
                raise UsageError(f"argument --{name}: must be a finite "
                                 f"number >= 0, got {value}")
        for name, value in vars(args).items():  # floats are exact to 2**53
            if type(value) is int and abs(value) > 2 ** 53:
                raise UsageError(f"argument --{name.replace('_', '-')}: must "
                                 f"be at most 2**53 in magnitude, got {value}")
        check_threads(args.threads)
        return handlers[args.command](args)
    except bounds.CorollaryInapplicable as e:
        label, code, err = "corollary inapplicable", EX_INAPPLICABLE, e
    except ResourceCap as e:
        label, code, err = "resource cap", EX_RESOURCE, e
    except ValueError as e:  # UsageError and every other rejected input
        label, code, err = "error", EX_USAGE, e
    sys.stderr.write(f"hspsim {args.command}: {label}: {err}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

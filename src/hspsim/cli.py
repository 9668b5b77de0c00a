"""Command-line interface: bound reports, exact sampling simulation,
verification suites, and character-table export.

All reports are deterministic: floats print at 12 significant digits,
reductions are pairwise-summed in fixed order, and the timestamp honors
HSPSIM_TIMESTAMP / SOURCE_DATE_EPOCH, so identical commands give identical
bytes.  Every command runs in one thread: --threads and HSPSIM_THREADS are
accepted and validated, and change nothing.

Each flag's range is declared with it (IntFlag, finite_nonneg_float), so
argparse refuses a value out of range, naming the flag, before any command
runs.  Each bound family and verify suite reads only the flags that
BOUND_FAMILIES or VERIFY_SUITES declare for it, with their defaults and the
ranges that hold only there; any other flag of the subcommand, or a value
out of such a range, is a usage error naming the family or suite, raised
before anything is built.  Only the power family's --n limit, set by the
base group, waits for the group.

Exit codes: 0 success; 1 a verify check failed; 2 a family corollary does
not apply to the given parameters; 64 usage or parse error (any other
ValueError); 69 a ResourceCap, raised before the work is allocated, or on a
class-sum character table that failed its checks in every draw.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, bounds, simulate
from . import irreps as irrmod
from .chartable import best_character_table, character_table_numeric
from .groups import PSL2Group, involution, make_group, spec_of
from .util import (STEP_WORK, ResourceCap, check_entry, dumps_report,
                   fmt_float, pairwise_sum, require, timestamp)

EX_OK = 0
EX_VERIFY_FAIL = 1
EX_INAPPLICABLE = 2
EX_USAGE = 64
EX_RESOURCE = 69

THREADS_ENV = "HSPSIM_THREADS"

class UsageError(ValueError):
    """Missing, invalid or contradictory command-line arguments."""


# argparse takes an argument that starts with "-" for an option unless it
# matches this.  Its own pattern, ^-\d+$|^-\d*\.\d+$, misses the exponent
# form, -inf and -nan, so "--epsilon -1e-3" failed with "expected one
# argument" instead of reaching the flag's range check.
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$"
                             r"|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = NEGATIVE_NUMBER

    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


class IntFlag:
    """argparse type: an integer of magnitude at most 2**53 (past it a float
    no longer holds it exactly), then at least lo and at most hi."""

    def __init__(self, lo=None, hi=None):
        self.lo, self.hi = lo, hi

    def __call__(self, text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if abs(value) > 2 ** 53:
            bound = "at most 2**53 in magnitude"
        elif self.lo is not None and value < self.lo:
            bound = f"at least {self.lo}"
        elif self.hi is not None and value > self.hi:
            bound = f"at most {self.hi}"
        else:
            return value
        raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")


def finite_nonneg_float(text):
    """argparse type: a finite float of at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0 <= value < math.inf:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {value}")
    return value


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
        p.add_argument("--seed", type=IntFlag(lo=0), default=0)
        p.add_argument("--threads", type=IntFlag(lo=1),
                       help="accepted, must be at least 1; hspsim runs in "
                       "one thread, so it changes nothing")
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default=fmt_default)
        p.add_argument("--out", help="output path (default stdout)")

    # bound and verify flags default to None here: the family or suite that
    # reads a flag gives its default (BOUND_FAMILIES, VERIFY_SUITES)
    b = sub.add_parser("bound", help="closed-form bound report")
    b.add_argument("--family", required=True, choices=list(BOUND_FAMILIES))
    b.add_argument("--n", type=IntFlag(), help="family size (wreath/power/gl)")
    b.add_argument("--q", type=IntFlag(), help="field size (psl2)")
    b.add_argument("--p", type=IntFlag(), help="characteristic (gl)")
    b.add_argument("--m", type=IntFlag(lo=1), help="field extension (gl)")
    b.add_argument("--group", help="group spec (power base / group family)")
    b.add_argument("--h", help="involution (cycle notation, 'id:<n>', or "
                   "family default)")
    b.add_argument("--epsilon", type=finite_nonneg_float,
                   help="cutoff (default: canonical per family, else 0.2)")
    # 2^k passes the float range at k = 1024
    b.add_argument("--k-max", dest="k_max", type=IntFlag(hi=1023))
    b.add_argument("--t", type=IntFlag(lo=1), help="number of states")
    b.add_argument("--threshold", type=finite_nonneg_float)
    common(b)

    s = sub.add_parser("simulate", help="exact sampling distributions")
    s.add_argument("--group", required=True)
    s.add_argument("--h")
    s.add_argument("--k", type=IntFlag(lo=1), default=1,
                   help="entangled registers")
    s.add_argument("--frames", type=IntFlag(lo=1), default=1,
                   help="independent random frame draws")
    s.add_argument("--frame-kind", dest="frame_kind",
                   choices=["basis", "fused"], default="basis")
    s.add_argument("--t", type=IntFlag(lo=1),
                   help="also report the t-copy averaged trace distance")
    s.add_argument("--epsilon", type=finite_nonneg_float, default=0.2)
    common(s)

    v = sub.add_parser("verify", help="named check suites")
    v.add_argument("--suite", required=True, choices=list(VERIFY_SUITES))
    v.add_argument("--group", required=True)
    v.add_argument("--h")
    v.add_argument("--k", type=IntFlag(lo=1))
    v.add_argument("--frame-kind", dest="frame_kind",
                   choices=["basis", "fused"])
    v.add_argument("--epsilon", type=finite_nonneg_float)
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
    involution(group, x)
    return x


REQUIRED = object()  # the default of a flag its family or suite needs


class Reads(NamedTuple):
    """What one bound family or verify suite reads: its flags, as
    {dest: default or REQUIRED}; the ranges that hold only there, as
    {dest: an argparse type}; and run(args), which builds and reports."""
    run: Callable
    flags: dict
    ranges: dict


def positive(value):
    """A family range: above 0."""
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def flag_names(dests, sep=", "):
    return sep.join("--" + dest.replace("_", "-") for dest in dests)


def declared(args, option, name, table):
    """The runner of table[name], the entry that args' option names, with
    the entry's defaults filled in.

    A flag given that only other entries read, a required flag missing or
    a value outside the entry's ranges is a UsageError naming the entry,
    raised before anything is built.
    """
    where, reads = f"{option} {name}", table[name]
    others = {d for entry in table.values() for d in entry.flags} \
        - set(reads.flags)
    refused = [dest for dest, value in vars(args).items()
               if value is not None and dest in others]
    if refused:
        raise UsageError(f"{where} does not read {flag_names(refused)}" + (
            f" (it reads {flag_names(reads.flags)})" if reads.flags else ""))
    need = [dest for dest, default in reads.flags.items()
            if default is REQUIRED]
    if any(getattr(args, dest) is None for dest in need):
        raise UsageError(f"{where} requires {flag_names(need, ' and ')}")
    for dest, check in reads.ranges.items():
        if getattr(args, dest) is not None:
            try:
                check(getattr(args, dest))
            except argparse.ArgumentTypeError as e:
                raise UsageError(
                    f"{where}: argument {flag_names([dest])}: {e}")
    for dest, default in reads.flags.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    return reads.run


def check_threads_env():
    """Validate HSPSIM_THREADS, read only when --threads is absent: below 1,
    or not an integer, is a usage error.  It sets nothing, since every
    command runs in one thread."""
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


def check_before_work(args):
    """Refuse, before the command runs, an --out that cannot be written
    and a timestamp variable that util.timestamp cannot read.  --out is
    opened to append, which leaves a file as it was; one made is removed."""
    where = os.path.dirname(args.out or "")
    if where and not os.path.isdir(where):
        raise UsageError(f"argument --out: directory {where!r} does not exist")
    if args.out:
        made = not os.path.lexists(args.out)
        try:
            open(args.out, "a").close()
        except OSError as e:  # a directory, or no file can be made there
            raise UsageError(f"argument --out: cannot write {args.out!r}: "
                             f"{e.strerror}") from None
        if made:
            os.remove(args.out)
    try:
        timestamp()
    except ValueError as e:
        raise UsageError(e) from None


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

def _wreath(args):
    return f"wreath:{args.n}", bounds.wreath_bound(
        args.n, eps=args.epsilon, t=args.t, threshold=args.threshold,
        k_max=args.k_max)


def _psl2(args):
    return f"psl2:{args.q}", bounds.psl_bound(
        args.q, eps=args.epsilon, t=args.t, threshold=args.threshold,
        k_max=args.k_max)


def _power(args):
    base = make_group(args.group)
    h = resolve_h(base, args.h)
    # the report holds |G|^n as a float; log rounds up at |G| = 2
    n_max = int(math.log(sys.float_info.max, base.order))
    n_max -= base.order ** n_max > sys.float_info.max
    if args.n > n_max:
        raise UsageError(f"argument --n: must be at most {n_max} for "
                         f"{spec_of(base)}, got {args.n}")
    return f"power:{spec_of(base)}^{args.n}", bounds.direct_power_bound(
        base, h, args.n, t=args.t, threshold=args.threshold, k_max=args.k_max)


def _gl(args):
    return (f"gl({args.n},{args.p}^{args.m})",
            bounds.gl_bound(args.n, args.p, args.m))


def _group(args):
    G = make_group(args.group)
    h = resolve_h(G, args.h)
    # the bound reads only degrees and chi(h): without explicit irreps,
    # the class-sum table holds them, and no irrep matrix is built
    if irrmod.has_explicit_irreps(G):
        bp = bounds.params_from_irreps(
            G, irrmod.irreps_for(G, seed=args.seed), h, args.epsilon)
    else:
        bp = bounds.params_from_table(
            character_table_numeric(G, seed=args.seed), h, args.epsilon)
    return spec_of(G), bounds.group_report(
        G, h, bp, t=args.t, threshold=args.threshold, k_max=args.k_max)


# the flags of bounds.family_report's k scan
K_SCAN = {"t": 1, "threshold": bounds.DEFAULT_THRESHOLD,
          "k_max": bounds.DEFAULT_K_MAX}
BOUND_FAMILIES = {
    "wreath": Reads(_wreath, {"n": REQUIRED, "epsilon": None, **K_SCAN},
                    {"n": IntFlag(2, bounds.WREATH_MAX_N),
                     "epsilon": positive}),
    "psl2": Reads(_psl2, {"q": REQUIRED, "epsilon": None, **K_SCAN}, {}),
    "power": Reads(_power, {"group": REQUIRED, "n": REQUIRED, "h": None,
                            **K_SCAN}, {"n": IntFlag(lo=1)}),
    "gl": Reads(_gl, {"n": REQUIRED, "p": REQUIRED, "m": 1},
                {"n": IntFlag(lo=2)}),
    "group": Reads(_group, {"group": REQUIRED, "h": None, "epsilon": 0.2,
                            **K_SCAN}, {}),
}


def cmd_bound(args):
    spec, rep = declared(args, "--family", args.family,
                         BOUND_FAMILIES)(args)
    text = render_report({"header": make_header(args.seed, spec), **rep},
                         args.format)
    del rep  # its S_eps labels are not held while the text is written
    write_output(text, args.out)
    return EX_OK


# ---------------------------------------------------------------------------
# simulate

def listed_irreps(G, seed, check, k=1):
    """G's irreps, built once check(labels, degrees, itemsizes) passes on a
    listing, itemsizes the bytes of an entry of each irrep's stack.

    The explicit constructions list themselves: their rows are evaluated
    where they are read, in the dtype each declares.  A group without them
    is listed by its class-sum table, once the numeric irreps' own estimate
    and the r^k register tuples over its r classes have passed, and the
    table is dropped before the numeric irreps, all complex128, are built.
    """
    if irrmod.has_explicit_irreps(G):
        irr = irrmod.irreps_for(G, seed=seed)
        check([r.label for r in irr], [r.degree for r in irr],
              [r.dtype.itemsize for r in irr])
        return irr
    irrmod.require_numeric_irreps(G)
    simulate.require_tuples(len(G.conjugacy_classes()), k)
    table = best_character_table(G, seed=seed)
    check(table.labels, table.degrees, [16] * len(table.labels))
    del table  # one of the table and the irreps held at a time
    return irrmod.irreps_for(G, seed=seed)


def cmd_simulate(args):
    """Distances over the class of h on --frames child seeds of --seed, all
    drawn in one RegisterSpace at h, which builds the +1 eigenbases once."""
    G = make_group(args.group)
    h = resolve_h(G, args.h)

    def check(labels, degrees, _):
        # h's class is found once listed: wreath:5's adds 6 MB to its refusal
        c = len(G.class_of(h))
        simulate.require_sampling(labels, degrees, args.k, args.frame_kind,
                                  c, args.frames)
        if args.t is not None:
            simulate.require_mixed(G.order, degrees, c, args.t)
    irr = listed_irreps(G, args.seed, check, args.k)

    children = np.random.SeedSequence(args.seed).generate_state(args.frames)
    space = simulate.RegisterSpace(G, irr, args.k, h, kind=args.frame_kind)
    per_seed = []
    for i in range(args.frames):
        res = simulate.avg_tv_over_conjugates(space, int(children[i]))
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
        "conjugates": len(space.cls),
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
        eta = bounds.char_eta(G.order, [r.degree for r in irr], [
            bounds.chi_at_involution(r.label, r.character_at(h)) for r in irr])
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

# Float errors of exact identities below which the verify checks pass:
IDENTITY_TOL = 1e-8  # sums over the group; psl2:11's table errs by 6e-13
ROUNDTRIP_TOL = 1e-9  # two N x N unitary products; cyclic:300 errs by 5e-16


def _below(name, err, tol=IDENTITY_TOL):
    """The check that a float error err of an exact identity is below tol."""
    return check_entry(name, err < tol, lhs=err, rhs=tol)


def _suite_facts(G, args):
    from . import fourier
    ns = (1, 2) if G.order <= 40 else (1,)
    # a loop step per Schur pair and multiplicity tuple of the r irreps (one
    # per class); the Schur sums are |G|^3
    r = len(G.conjugacy_classes())
    require(f"facts suite over {r} irreps", work=G.order ** 3 + STEP_WORK * (
        r * r + sum(r ** (n + 1) for n in ns)))

    def check(labels, degrees, _):  # the first check below, refused unbuilt
        label, degree = max(zip(labels, degrees), key=lambda e: e[1])
        irrmod.require_hom_check(label, G.order, degree)
    irr = listed_irreps(G, args.seed, check)
    checks = []
    # largest degree first, so an over-budget check is refused before the
    # multiplication table is built
    err = max(irrmod.hom_unitarity_error(r)
              for r in sorted(irr, key=lambda r: -r.degree))
    checks.append(_below("unitary homomorphism", err))
    err = irrmod.schur_orthogonality_error(G, irr)
    checks.append(_below("matrix-entry orthogonality", err))
    err = max((r.degree * abs(r.character().mean()) for r in irr[1:]),
              default=0.0)
    checks.append(_below("nontrivial character mean zero", err))
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for r in irr:
        vecs = rng.standard_normal((3, r.degree)) \
            + 1j * rng.standard_normal((3, r.degree))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        worst = max(worst, fourier.check_likemub(r, vecs))
    checks.append(_below("mean squared overlap is 1/d", worst))
    worst = max(fourier.check_projection_length(d, s, seed=args.seed)
                for d, s in ((4, 1), (6, 3), (9, 5)))
    checks.append(_below("projected length averages to rank/dim", worst))
    worst = max(fourier.check_expected_multiplicity(G, irr, n, tau)
                for n in ns for tau in irr)
    checks.append(_below("expected tuple multiplicity", worst))
    return checks


def _suite_lemmas(G, args):
    h = resolve_h(G, args.h)
    irr = listed_irreps(G, args.seed, lambda *listing: simulate.require_lemmas(
        G, h, args.k, args.frame_kind, *listing), args.k)
    suite = simulate.lemma_suite(G, irr, h, args.k, args.epsilon,
                                 seed=args.seed, kind=args.frame_kind)
    name = "transform diagonalizes the hidden-subgroup state"
    try:  # reported first, run once the suite has passed its estimates
        first = _below(name, simulate.fourier_roundtrip_error(G, h, irr),
                       ROUNDTRIP_TOL)
    except ResourceCap as e:  # too large to run: a WARN, and the suite stands
        first = check_entry(name, None, detail=f"not run: {e}")
    return [first, *suite]


def _suite_tables(G, args):
    table = best_character_table(G, seed=args.seed)
    checks = []
    ssq = table.sum_of_squared_degrees()
    checks.append(check_entry("squared degrees sum to group order",
                              ssq == G.order, lhs=ssq, rhs=G.order))
    nclasses = len(table.classes)
    checks.append(check_entry("one irrep per conjugacy class",
                              len(table.labels) == nclasses,
                              lhs=len(table.labels), rhs=nclasses))
    err = table.row_orthogonality_error()
    checks.append(_below("row orthogonality", err))
    err = table.column_orthogonality_error()
    checks.append(_below("column orthogonality", err))
    if isinstance(G, PSL2Group):
        q = G.q
        want = sorted(d for _, d, count, _ in bounds.psl_rows(q)
                      for _ in range(count))
        got = sorted(table.degrees)
        checks.append(check_entry("degree pattern matches the closed form",
                                  got == want, lhs=str(got), rhs=str(want)))
        actual, formula, note = bounds.involution_count_note(q)
        checks.append(check_entry("involution count", None if note else True,
                                  lhs=actual, rhs=formula, detail=note))
    else:
        n_inv = len(G.involutions())
        checks.append(check_entry("involution count recorded", True,
                                  lhs=n_inv))
    return checks


VERIFY_SUITES = {
    "facts": Reads(_suite_facts, {}, {}),
    "lemmas": Reads(_suite_lemmas, {"h": None, "k": 1, "frame_kind": "basis",
                                    "epsilon": 0.2}, {}),
    "tables": Reads(_suite_tables, {}, {}),
}


def cmd_verify(args):
    suite = declared(args, "--suite", args.suite, VERIFY_SUITES)
    G = make_group(args.group)
    checks = suite(G, args)
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
    table = best_character_table(
        G, seed=args.seed, export="json" if args.format == "json" else "csv")
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
        if args.threads is None:
            check_threads_env()
        check_before_work(args)
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

"""Property over the command-line grammar: every argument vector ends in a
known exit code, and nothing is raised.

Arguments are drawn from every subcommand and the flags its parser declares
(for bound and verify, mostly those its family or suite reads, as cli's
tables declare them), small group specs (order at most 72) and malformed
ones, and flag values from a fixed set of edge cases.
Exit codes: 0, 1 (a verify check failed), 2 (corollary inapplicable),
64 (usage) and 69 (resource refusal).
"""
import argparse
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hspsim import cli

GROUPS = st.sampled_from([
    "s3", "s4", "z6", "cyclic:8", "cyclic:3", "dihedral:4", "dihedral:9",
    "wreath:2", "wreath:3", "psl2:5", "power:z2^3", "power:s3^2"])
MALFORMED = st.sampled_from([
    "s0", "s9", "z0", "cyclic:x", "dihedral:1", "wreath:9", "psl2:6",
    "power:z2", "power:z2^x", "power:z2^-1", "nosuch:3", ""])
# past 2**53 in magnitude an integer flag is a usage error
HUGE = ["9007199254740993", "-9007199254740993", str(10 ** 400)]
VALUES = ["-1", "0", "1", "2", "3", "1023", "1024", "1000000", "nan", "inf",
          *HUGE]
ELEMENTS = ["(1 2)", "(1 2 3)", "swap", "id:1", "id:99", "bad"]

# the value pool of each flag; which flags a subcommand takes is read from
# cli.build_parser(), so a flag no subcommand declares is never drawn
POOLS = {
    "--family": ["wreath", "psl2", "power", "gl", "group"],
    "--suite": ["facts", "lemmas", "tables"],
    "--group": GROUPS,
    "--n": ["2", "5", "10"] + VALUES, "--q": ["5", "13"] + VALUES,
    "--p": ["2", "3"] + VALUES, "--m": VALUES,
    "--k-max": VALUES, "--t": VALUES, "--k": VALUES, "--frames": VALUES,
    "--epsilon": VALUES, "--threshold": VALUES, "--h": ELEMENTS,
    "--frame-kind": ["basis", "fused", "x"],
    "--format": ["json", "csv", "text"], "--seed": VALUES,
    "--threads": VALUES,
}
# --out would write each drawn report to a file
UNDRAWN = {"--help", "--out"}
SUBPARSERS = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices
FLAGS = {command: sorted(a.option_strings[-1] for a in parser._actions
                         if a.option_strings[-1] not in UNDRAWN)
         for command, parser in SUBPARSERS.items()}
# the flags a subcommand needs
REQUIRED = {command: {a.option_strings[-1] for a in parser._actions
                      if a.required}
            for command, parser in SUBPARSERS.items()}


def _table(option, table):
    """(option, {entry: the flags it reads}, {entry: the flags it needs})
    of a bound family or verify suite table of cli."""
    return (option,
            {name: {cli.flag_names([d]) for d in r.flags} for name, r in table.items()},
            {name: {cli.flag_names([d]) for d, default in r.flags.items()
                    if default is cli.REQUIRED} for name, r in table.items()})


TABLES = {"bound": _table("--family", cli.BOUND_FAMILIES),
          "verify": _table("--suite", cli.VERIFY_SUITES)}


def test_every_pool_belongs_to_a_declared_flag():
    assert set(POOLS) == {name for names in FLAGS.values() for name in names}


def _pool(values):
    return values if isinstance(values, st.SearchStrategy) \
        else st.sampled_from(values)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv, flags, likely = [command], FLAGS[command], REQUIRED[command]
    if command in TABLES:
        # the family or suite first, then mostly the flags it reads
        option, reads, needs = TABLES[command]
        entry = draw(st.sampled_from(sorted(reads)))
        if draw(st.integers(0, 9)):
            argv += [option, entry]
        unread = set().union(*reads.values()) - reads[entry]
        flags = [n for n in flags if n != option
                 and (n not in unread or not draw(st.integers(0, 9)))]
        likely = likely | needs[entry]
    # drawn nine times in ten: the flags the subcommand or entry needs
    names = [n for n in flags if n in likely and draw(st.integers(0, 9))]
    names += draw(st.lists(st.sampled_from([n for n in flags
                                            if n not in likely]),
                           unique=True, max_size=4))
    for name in names:
        pool = POOLS[name]
        if pool is GROUPS:
            pool = GROUPS | MALFORMED
        argv += [name, draw(_pool(pool))]
    return argv


def _out_of_domain(argv):
    """True when a flag value is one every command must refuse."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    for name in ("--epsilon", "--threshold"):
        if name in flags:
            v = float(flags[name])
            if not math.isfinite(v) or v < 0:
                return True
    if any(v in HUGE for n, v in flags.items()
           if n not in ("--epsilon", "--threshold")):
        return True
    return ("--m" in flags and flags["--m"] in ("-1", "0", "nan", "inf")
            or flags.get("--k-max") in ("1024", "1000000")
            or any(flags.get(name) in ("-1", "0")
                   for name in ("--threads", "--t", "--k", "--frames"))
            or flags.get("--seed") == "-1")


@settings(max_examples=150)
@given(argvs())
@example(["bound", "--family", "wreath", "--n", "5", "--k-max", "1024"])
@example(["bound", "--family", "power", "--group", "s4", "--h", "(1 2)",
          "--n", "224"])
@example(["bound", "--family", "gl", "--n", "6", "--p", "2", "--m", "0"])
@example(["simulate", "--group", "s3", "--epsilon", "nan"])
@example(["bound", "--family", "psl2", "--q", "1000000000000000003"])
@example(["bound", "--family", "gl", "--n", "6", "--p", "1000000000000000003"])
def test_every_argv_ends_in_a_known_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 64, 69), (code, err.getvalue())
    if code == 0:
        assert "nan" not in out.getvalue()
    if _out_of_domain(argv):
        assert code == 64, err.getvalue()


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=60)
@given(argvs())
@example(["bound", "--family", "group", "--group", "s5", "--k-max", "1023"])
def test_every_json_report_is_strict_json(argv):
    # inf, -inf and nan are written as strings, so a strict reader takes
    # every report; the last --format wins
    argv = argv + ["--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_not_json)

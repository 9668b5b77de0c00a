"""Property over the command-line grammar: every argument vector ends in a
known exit code, and nothing is raised.

Arguments are drawn from every subcommand, small group specs (order at most
72) and malformed ones, and flag values from a fixed set of edge cases.
Exit codes: 0, 1 (a verify check failed), 2 (corollary inapplicable),
64 (usage) and 69 (resource refusal).
"""
import io
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

# (required flags, optional flags) per subcommand; a flag maps to its pool
FLAGS = {
    "bound": (
        {"--family": ["wreath", "psl2", "power", "gl", "group"],
         "--n": ["2", "5", "10"] + VALUES, "--q": ["5", "13"] + VALUES,
         "--p": ["2", "3"] + VALUES, "--group": GROUPS},
        {"--m": VALUES, "--c": VALUES, "--k-max": VALUES, "--t": VALUES,
         "--epsilon": VALUES, "--threshold": VALUES, "--h": ELEMENTS,
         "--seed": VALUES}),
    "simulate": (
        {"--group": GROUPS},
        {"--h": ELEMENTS, "--k": VALUES, "--frames": VALUES,
         "--frame-kind": ["basis", "fused", "x"], "--t": VALUES,
         "--epsilon": VALUES, "--threshold": VALUES, "--seed": VALUES}),
    "verify": (
        {"--suite": ["facts", "lemmas", "tables"], "--group": GROUPS},
        {"--h": ELEMENTS, "--k": VALUES, "--epsilon": VALUES,
         "--frame-kind": ["basis", "fused"], "--seed": VALUES}),
    "chartable": (
        {"--group": GROUPS},
        {"--format": ["json", "csv", "text"], "--seed": VALUES}),
}


def _pool(values):
    return values if isinstance(values, st.SearchStrategy) \
        else st.sampled_from(values)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[command]
    names = [n for n in sorted(required) if draw(st.integers(0, 9))]
    names += draw(st.lists(st.sampled_from(sorted(optional)), unique=True,
                           max_size=4))
    argv = [command, "--threads", "1"]  # no thread pools from a draw
    for name in names:
        pool = {**required, **optional}[name]
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
            or flags.get("--k-max") in ("1024", "1000000"))


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

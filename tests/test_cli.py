import argparse
import ast
import functools
import inspect
import json
import os
import resource
import shlex
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from hspsim import bounds, chartable, cli, simulate
from hspsim import irreps as irrmod
from hspsim.chartable import (TABLE_ENTRY_BYTES, CharacterTable,
                              best_character_table)
from hspsim.frames import frame_bases
from hspsim.groups import CyclicGroup, FiniteGroup, make_group
from hspsim.util import (MEMORY_LIMIT, STEP_WORK, WORK_LIMIT, ResourceCap,
                         dumps_report)

from helpers import NUMERIC_GROUPS, dumps_per_item

TS = "1755820800"


@pytest.fixture(autouse=True)
def frozen_clock(monkeypatch):
    monkeypatch.setenv("HSPSIM_TIMESTAMP", TS)


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# exit codes

def test_exit_usage_on_missing_family_param(capsys):
    rc, _, err = run_cli(capsys, ["bound", "--family", "wreath"])
    assert rc == 64
    assert "--n" in err


@pytest.mark.parametrize("argv, code, text", [
    (["--group", "wreath:5"], 69,
     "explicit wreath irreps stop at n <= 4, and numeric irrep construction "
     "for the wreath group of order 28800 needs 1.06e+11 bytes "
     "(limit 8.81e+08)"),
    (["--group", "power:z101^3"], 69, "order 1030301 exceeds 1000000"),
    (["--group", "dihedral:4", "--t", "9"], 69,
     "t=9 mixed-state distance over 5 irreps needs 1.13e+10 multiply-adds "
     "(limit 5e+09)"),
    (["--group", "psl2:13", "--k", "3"], 69, "rho7|rho7|rho7"),
    (["--group", "s9"], 64, "1 <= n <= 8"),
    (["--group", "wreath:6"], 64, "2 <= n <= 5"),
    (["--group", "psl2:17"], 64, "psl2 supported for q in"),
    (["--group", "nosuch:3"], 64, "nosuch"),
    (["--group", "s3", "--t", "0"], 64,
     "argument --t: must be at least 1, got 0"),
    (["--group", "s3", "--t", "-1"], 64,
     "argument --t: must be at least 1, got -1"),
], ids=["wreath5", "power-z101^3", "dihedral4-t9",
        "psl2:13-k3", "s9", "wreath6", "psl2:17", "nosuch", "t0", "t-1"])
def test_exit_codes(capsys, argv, code, text):
    rc, out, err = run_cli(capsys, ["simulate"] + argv)
    assert rc == code
    label = "resource cap" if code == 69 else "error"
    assert err.startswith(f"hspsim simulate: {label}: ")
    assert text in err
    assert out == ""


def test_simulate_budget_needs_no_character_table(capsys, monkeypatch):
    # the numeric irreps' byte estimate needs only |G|, so neither the
    # classes, the multiplication table nor a character table is built,
    # also when the frame vectors (k = 2) are refused first
    def built(*args, **kwargs):
        raise AssertionError("classes or a table built")

    monkeypatch.setattr(FiniteGroup, "conjugacy_classes", built)
    monkeypatch.setattr(FiniteGroup, "table", built)
    monkeypatch.setattr(cli, "best_character_table", built)
    for k in ("1", "2"):
        rc, out, err = run_cli(capsys, ["simulate", "--group", "wreath:5",
                                        "--k", k])
        assert rc == 69
        assert out == ""
        assert err == ("hspsim simulate: resource cap: explicit wreath "
                       "irreps stop at n <= 4, and numeric irrep "
                       "construction for the wreath group of order 28800 "
                       "needs 1.06e+11 bytes (limit 8.81e+08)\n")


def test_simulate_mixed_copies_refused_before_irreps(capsys, monkeypatch):
    # the t-copy mixed-state estimate needs only the listed degrees and the
    # class of h, so psl2:13 at t = 3 is refused on its class-sum table;
    # it once built the numeric irreps and sampled for 2.2 s first
    def built(*args, **kwargs):
        raise AssertionError("irreps built")

    monkeypatch.setattr(cli.irrmod, "irreps_for", built)
    rc, out, err = run_cli(capsys, ["simulate", "--group", "psl2:13",
                                    "--k", "1", "--t", "3"])
    assert (rc, out) == (69, "")
    assert err == ("hspsim simulate: resource cap: t=3 mixed-state distance "
                   "over 9 irreps needs 2.19e+10 bytes (limit 8.81e+08)\n")


def test_simulate_frame_vectors_refused_before_irreps(capsys, monkeypatch):
    # psl2:13 at k = 3: the frame vectors of every tuple, 16 |G|^3 bytes,
    # exceed the limit, so only the character table is built, to name the
    # tuple; simulate holds one frame at a time, and is refused on its work
    def built(*args, **kwargs):
        raise AssertionError("irreps built")

    monkeypatch.setattr(cli.irrmod, "irreps_for", built)
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, ["simulate", "--group", "psl2:13",
                                    "--k", "3"])
    assert time.perf_counter() - t0 < 1
    assert rc == 69
    assert out == ""
    assert err == ("hspsim simulate: resource cap: sampling k=3 registers "
                   "over 9 irreps (729 tuples; largest tuple rho7|rho7|rho7 "
                   "has dimension 2744) needs 4.98e+12 multiply-adds "
                   "(limit 5e+09)\n")


@pytest.mark.parametrize("argv", [
    "simulate --group dihedral:4 --k 3 --frame-kind fused",
    "simulate --group psl2:7 --k 2"], ids=["dihedral:4", "psl2:7"])
def test_numeric_group_listed_by_one_table_before_its_irreps(capsys,
                                                             monkeypatch,
                                                             argv):
    # a group without explicit irreps is checked on its class-sum table's
    # labels and degrees, and only then are its numeric irreps built
    calls = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(chartable, "character_table_numeric", recorded(
        "table", chartable.character_table_numeric))
    monkeypatch.setattr(simulate, "require_sampling", recorded(
        "check", simulate.require_sampling))
    monkeypatch.setattr(cli.irrmod, "irreps_for", recorded(
        "irreps", cli.irrmod.irreps_for))
    assert run_cli(capsys, argv.split())[0] == 0
    assert calls[:3] == ["table", "check", "irreps"]
    assert calls.count("table") == calls.count("irreps") == 1


@pytest.mark.parametrize("spec, h", [("wreath:4", None), ("cyclic:12", None),
                                     ("s4", "(1 2)(3 4)"), ("s5", None),
                                     ("psl2:5", None)])
def test_simulate_builds_irreps_on_e_and_the_class_of_h(capsys, monkeypatch,
                                                        spec, h):
    # sampling and its bound read each irrep at e and the class of h only:
    # no irrep's whole stack is read once sampling starts, and the cyclic,
    # symmetric and wreath irreps, which evaluate rows where they are read,
    # never evaluate theirs.  psl2:5's numeric irreps read theirs to sort.
    spaces, whole_reads = [], []
    space, mats = simulate.RegisterSpace, irrmod.Irrep.mats

    def recorded(G, irreps, *args, **kwargs):
        spaces.append(irreps)
        return space(G, irreps, *args, **kwargs)

    def read_whole(rho):
        whole_reads.append((len(spaces), rho))
        return mats.fget(rho)

    monkeypatch.setattr(simulate, "RegisterSpace", recorded)
    monkeypatch.setattr(irrmod.Irrep, "mats", property(read_whole))
    argv = ["simulate", "--group", spec, "--k", "1", "--t", "2"]
    rc, _, _ = run_cli(capsys, argv + (["--h", h] if h else []))
    assert rc == 0 and spaces
    assert [rho for n, rho in whole_reads if n] == []
    if not spec.startswith("psl2"):
        assert not any(rho is r for _, rho in whole_reads for r in spaces[0])
        assert all(r._mats is None for r in spaces[0])


def test_plus_bases_built_once_per_command(capsys, monkeypatch):
    # one eigh per irrep of wreath:3 at the swap class, however many frame
    # copies the command draws
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for frames in ("1", "3"):
        calls.clear()
        rc, _, _ = run_cli(capsys, ["simulate", "--group", "wreath:3",
                                    "--k", "2", "--frames", frames,
                                    "--threads", "2"])
        assert rc == 0 and len(calls) == 9


def test_rank_r_runs_once_per_irrep(capsys, monkeypatch):
    # the space reads each of wreath:3's 9 irreps' ranks once, with its
    # bases, however many frame seeds the command draws
    calls = []
    rank_r = simulate.rank_r

    def counted(rho, h):
        calls.append(rho.label)
        return rank_r(rho, h)

    monkeypatch.setattr(simulate, "rank_r", counted)
    rc, _, _ = run_cli(capsys, ["simulate", "--group", "wreath:3", "--k", "2",
                                "--frames", "5", "--frame-kind", "fused"])
    assert rc == 0 and len(calls) == 9


def test_simulate_builds_one_register_space(capsys, monkeypatch):
    # every frame seed of the command is drawn in one space
    spaces = []
    space = simulate.RegisterSpace

    def recorded(*args, **kwargs):
        spaces.append(space(*args, **kwargs))
        return spaces[-1]

    monkeypatch.setattr(simulate, "RegisterSpace", recorded)
    rc, _, _ = run_cli(capsys, ["simulate", "--group", "wreath:3", "--k",
                                "2", "--frames", "5"])
    assert rc == 0 and len(spaces) == 1


@pytest.mark.parametrize("argv", [
    ["--group", "wreath:3", "--k", "2", "--frame-kind", "fused"],
    ["--group", "psl2:5", "--k", "1", "--seed", "7"]])
def test_per_seed_entries_do_not_depend_on_frames(capsys, argv):
    # frame seed i is child i of --seed whatever --frames is
    runs = {}
    for frames in (1, 2, 3):
        rc, out, _ = run_cli(capsys, ["simulate", *argv, "--frames",
                                      str(frames)])
        assert rc == 0
        runs[frames] = json.loads(out)["per_seed"]
    assert len(runs[3]) == 3
    assert runs[3][:1] == runs[1] and runs[3][:2] == runs[2]
    assert runs[3][1] != runs[3][0]


def _under_1gib(*argv):
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env,
        preexec_fn=limit_memory, timeout=120)


def _cli_under_1gib(*argv):
    return _under_1gib("-m", "hspsim.cli", *argv)


def test_lemmas_diagonal_overlap_refused_at_once():
    # (2^3 - 1) 168^4 3 8 multiply-adds: refused before any frame is drawn.
    # Run in a child with one BLAS thread: in this process the numeric
    # irreps' 168 x 168 eigh took 2.3 s beside another CPU-bound process
    t0 = time.perf_counter()
    proc = _cli_under_1gib("verify", "--suite", "lemmas", "--group", "psl2:7",
                           "--k", "3")
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 69
    assert proc.stdout == ""
    assert proc.stderr == (
        "hspsim verify: resource cap: diagonal-overlap loop over k=3 "
        "registers of the psl2 group of order 168 needs 1.34e+11 "
        "multiply-adds (limit 5e+09)\n")


def test_wreath4_facts_refused_before_allocating():
    # the degree-18 irrep's all-pairs homomorphism check is 7.7e9
    # multiply-adds, past WORK_LIMIT, and as one tensor it needed 13 GB
    proc = _cli_under_1gib("verify", "--suite", "facts", "--group", "wreath:4")
    assert proc.returncode == 69, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("hspsim verify: resource cap: ")
    assert "homomorphism check of kappa" in proc.stderr


def test_cyclic_lemma_charge_boundary_in_1gib():
    # the lemma pass keeps every irrep's stack and character and holds the
    # r x |G| weights and the isotypic screen's product, 64 bytes per
    # r |G| on cyclic groups; before this charge cyclic:4000 passed every
    # estimate and died with a MemoryError
    def admitted(n):
        try:
            simulate.require_lemmas(make_group(f"cyclic:{n}"), n // 2, 1,
                                    "basis", [f"chi{j}" for j in range(n)],
                                    [1] * n, [16] * n)
        except ResourceCap:
            return False
        return True
    assert admitted(3700) and not admitted(3702)  # cyclic:3701 has no h
    argv = ["verify", "--suite", "lemmas", "--k", "1", "--group"]
    proc = _cli_under_1gib(*argv, "cyclic:4000")
    assert (proc.returncode, proc.stdout, proc.stderr) == (69, "", (
        "hspsim verify: resource cap: lemma suite's stacks, characters and "
        "isotypic screen over 4000 irreps of the cyclic group of order 4000 "
        "needs 1.03e+09 bytes (limit 8.81e+08)\n"))
    proc = _cli_under_1gib(*argv, "cyclic:3700")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_fail"] == 0


def _lemma_charge(monkeypatch, spec, itemsize=None):
    """The bytes require_lemmas charges at k = 1 on spec's explicit irreps,
    each at its own item size, or at itemsize when given."""
    G = make_group(spec)
    irr = irrmod.irreps_for(G)
    charged = []
    monkeypatch.setattr(simulate, "require",
                        lambda what, bytes=0, work=0: charged.append(bytes))
    simulate.require_lemmas(G, G.default_involution(), 1, "basis",
                            [r.label for r in irr], [r.degree for r in irr],
                            [itemsize or r.dtype.itemsize for r in irr])
    return sum(charged)


def test_float64_stacks_are_charged_half_of_complex(monkeypatch):
    # Young's form is float64: its irreps' stacks, N^2 entries, and a
    # tuple's factor stack, N 35^2, cost 8 bytes an entry, not 16
    real = _lemma_charge(monkeypatch, "s7")
    assert _lemma_charge(monkeypatch, "s7", 16) - real \
        == 8 * 5040 * (5040 + 35 ** 2)
    assert _lemma_charge(monkeypatch, "cyclic:12") \
        == _lemma_charge(monkeypatch, "cyclic:12", 16)


@functools.cache
def _lemma_peak(spec):
    """VmHWM, in bytes, of a child that ran verify --suite lemmas --k 1."""
    proc = _under_1gib("-c", (
        "import contextlib, io\n"
        "from hspsim import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['verify', '--suite', 'lemmas', '--group', "
        f"{spec!r}, '--k', '1'])\n"
        "print(rc, open('/proc/self/status').read())"))
    rc, status = proc.stdout.split(" ", 1)
    assert rc == "0", proc.stderr
    line = next(x for x in status.splitlines() if x.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024


@pytest.mark.parametrize("spec", ["s7", "cyclic:2000"])
def test_lemma_charge_covers_the_measured_peak(monkeypatch, spec):
    # the peak above a cyclic:10 run, against what require_lemmas charges
    # (float64 s7: 251 MB against 297 MB; complex cyclic:2000: 259 MB
    # against 260 MB); the round trip is refused on both, so the lemma
    # pass makes the peak
    peak = _lemma_peak(spec) - _lemma_peak("cyclic:10")
    assert 0 < peak <= _lemma_charge(monkeypatch, spec)


def test_psl2_8_facts_pass_in_1gib():
    # d = 9 over 504 elements: 1.85e8 multiply-adds, checked in row blocks
    # (as one tensor the check peaked near 1.2 GB)
    proc = _cli_under_1gib("verify", "--suite", "facts", "--group", "psl2:8")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_fail"] == 0


@pytest.mark.parametrize("argv", [
    "simulate --group cyclic:1000 --k 2",
    "simulate --group cyclic:400 --k 3",
    "verify --suite lemmas --group cyclic:5700 --k 1",
    # the class-sum table's conjugacy-class search, then the numeric
    # irreps' 1.41e13 bytes
    "bound --family group --group power:s4^4",
    "chartable --group power:z2^17",
    "bound --family psl2 --q 10000019",
    "bound --family gl --n 6 --p 9007199254740881",
])
def test_refused_at_once_in_1gib(argv):
    # each died with MemoryError or ran past 90 s before its estimate
    t0 = time.perf_counter()
    proc = _cli_under_1gib(*argv.split())
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 69, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        f"hspsim {argv.split()[0]}: resource cap: ")


@pytest.mark.parametrize("argv, err", [
    ("verify --suite facts --group s7",
     "hspsim verify: resource cap: facts suite over 15 irreps needs "
     "1.28e+11 multiply-adds (limit 5e+09)\n"),
    ("verify --suite lemmas --group s8 --k 1",
     "hspsim verify: resource cap: diagonal-overlap loop over k=1 registers "
     "of the symmetric group of order 40320 needs 1.46e+11 multiply-adds "
     "(limit 5e+09)\n"),
    ("chartable --group s8",
     "hspsim chartable: resource cap: conjugacy-class search of symmetric:8 "
     "needs 6.5e+09 multiply-adds (limit 5e+09)\n"),
], ids=["s7-facts", "s8-lemmas", "s8-chartable"])
def test_young_whole_group_readers_refused_in_1gib(argv, err):
    # Young's form lists S_7 and S_8 without reading a row; the readers of
    # the whole group are refused on their own estimates
    proc = _cli_under_1gib(*argv.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == (69, "", err)


def test_psl2_row_cap_admits_the_largest_q_in_1gib(capsys):
    # PSL_LABEL_BYTES per S_eps label, measured on --format text, the
    # largest report.  At the default eps, q = 3 mod 4 labels (q - 3)/4 + 3
    # rows: 8469239 is the largest such prime power admitted and 8469271
    # the next.  q = 1 mod 4 labels only the trivial row, so the prime-power
    # test's trial division is its only cap.
    def labels(q):
        return (q - 3) // 4 + 3

    assert (bounds.PSL_LABEL_BYTES * labels(8469239) <= MEMORY_LIMIT
            < bounds.PSL_LABEL_BYTES * labels(8469271))
    proc = _cli_under_1gib("bound", "--family", "psl2", "--q", "8469239",
                           "--format", "text", "--out", os.devnull)
    assert (proc.returncode, proc.stderr) == (0, "")
    rc, out, err = run_cli(capsys, ["bound", "--family", "psl2", "--q",
                                    "8469271"])
    assert (rc, out) == (69, "")
    assert err == (
        "hspsim bound: resource cap: S_eps labels of a group of order "
        "303744269577609960120 (2117320 labels) needs 8.81e+08 bytes (limit "
        "8.81e+08)\n")
    rc, out, _ = run_cli(capsys, ["bound", "--family", "psl2", "--q",
                                  "1000000009"])
    assert rc == 0 and json.loads(out)["s_epsilon_labels"] == ["trivial"]


def test_trial_division_cap_admits_the_largest_p(capsys):
    # a loop step per trial divisor up to sqrt(p): 2777778888769 is the
    # largest prime admitted and 2777778888923 the next
    assert STEP_WORK * 1666666 <= WORK_LIMIT < STEP_WORK * 1666667
    rc, out, _ = run_cli(capsys, ["bound", "--family", "gl", "--n", "6",
                                  "--p", "2777778888769"])
    assert rc == 0
    assert json.loads(out)["params"]["p"] == 2777778888769
    rc, out, err = run_cli(capsys, ["bound", "--family", "gl", "--n", "6",
                                    "--p", "2777778888923"])
    assert (rc, out) == (69, "")
    assert err == ("hspsim bound: resource cap: trial division of "
                   "2777778888923 needs 5e+09 multiply-adds (limit 5e+09)\n")


def test_z20000_chartable_refused_before_allocating():
    # 20000 cyclic irreps of 20000 entries are 6.4 GB
    proc = _cli_under_1gib("chartable", "--group", "z20000")
    assert proc.returncode == 69, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("hspsim chartable: resource cap: ")
    assert "cyclic group of order 20000" in proc.stderr


def test_cyclic_5000_chartable_refused_in_1gib():
    # 105 bytes per |G|^2 entry in csv is 2.6 GB; before the cap it died
    # with a traceback after about 60 s
    proc = _cli_under_1gib("chartable", "--group", "cyclic:5000")
    assert proc.returncode == 69, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "hspsim chartable: resource cap: character table of the cyclic "
        "group of order 5000 needs 2.62e+09 bytes (limit 8.81e+08)\n")


def test_explicit_table_cap_admits_cyclic_2000(monkeypatch):
    # TABLE_ENTRY_BYTES admits cyclic:2896 in csv and cyclic:1609 in json,
    # each measured to run in a 1 GiB child (22 s and 10 s, so only the
    # refused side runs here); at 170 bytes per entry in every format,
    # cyclic:2000 to 2276 were admitted in json and died with a MemoryError
    for export, largest in (("csv", 2896), ("json", 1609)):
        per_entry = TABLE_ENTRY_BYTES[export]
        assert per_entry * largest ** 2 <= MEMORY_LIMIT \
            < per_entry * (largest + 1) ** 2

    # refused on the listing of the built irreps, before any row is read
    def read(*args, **kwargs):
        raise AssertionError("a row evaluated")

    monkeypatch.setattr(irrmod.Irrep, "at", read)
    monkeypatch.setattr(irrmod.Irrep, "character_at", read)
    with pytest.raises(ResourceCap, match="order 2897 needs 8.81e"):
        best_character_table(make_group("cyclic:2897"))
    with pytest.raises(ResourceCap, match="order 1610 needs 8.81e"):
        best_character_table(make_group("cyclic:1610"), export="json")
    assert cli.main(["chartable", "--group", "cyclic:1610",
                     "--format", "json"]) == 69


def test_dihedral_1000_chartable_in_1gib():
    # 503 classes: the table holds r^2 floats, never the r x r x r class
    # constants (1.02e9 bytes), and the run peaked 38 MB above an
    # import-only child
    run = peak_mb("assert main(['chartable', '--group', 'dihedral:1000', "
                  "'--out', os.devnull]) == 0")
    assert run - peak_mb("") <= 60


def test_uncertified_class_sum_table_refused():
    # dihedral:1700's tables miss the 1e-8 orthogonality checks in all five
    # draws (column errors 1.3e-8 to 2e-8)
    proc = _cli_under_1gib("chartable", "--group", "dihedral:1700")
    assert proc.returncode == 69, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "hspsim chartable: resource cap: class-sum character table of the "
        "dihedral group of order 3400 (853 classes) failed its checks in 5 "
        "draws: orthogonality check failed\n")


def test_class_sum_table_refused_on_its_work(capsys):
    # r |G| for the bincounts and 3 r^3 for eig: dihedral:2365 (1184
    # classes, 4.98e9) is admitted and dihedral:2366 is the first refused
    G = make_group("dihedral:2365")
    r = len(G.conjugacy_classes())
    assert r * G.order + 3 * r ** 3 <= WORK_LIMIT
    assert run_cli(capsys, ["chartable", "--group", "dihedral:2366"]) == (
        69, "", "hspsim chartable: resource cap: class-sum character table "
        "of the dihedral group of order 4732 (1186 classes) needs 5.01e+09 "
        "multiply-adds (limit 5e+09)\n")


def test_memory_limit_fits_under_1gib():
    # MEMORY_LIMIT counts bytes beyond the interpreter, numpy and OpenBLAS:
    # a child that has imported hspsim.cli under a 1 GiB address-space limit
    # still maps that many bytes more
    proc = _under_1gib("-c", "import numpy as np, hspsim.cli\n"
                       "from hspsim.util import MEMORY_LIMIT\n"
                       "np.empty(MEMORY_LIMIT, np.uint8)")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("spec", ["cyclic:12", "wreath:3"])
def test_explicit_listing_evaluates_no_row(monkeypatch, spec):
    # the check runs on the built irreps' labels, degrees and item sizes,
    # and no reader has evaluated a row of a cyclic or wreath irrep by then
    def read(*args, **kwargs):
        raise AssertionError("a row evaluated")

    monkeypatch.setattr(irrmod.Irrep, "at", read)
    monkeypatch.setattr(irrmod.Irrep, "character_at", read)
    seen = []
    irr = cli.listed_irreps(make_group(spec), 0, lambda *listing:
                            seen.append(listing))
    assert seen == [([r.label for r in irr], [r.degree for r in irr],
                     [16 if spec == "cyclic:12" else 8] * len(irr))]
    assert all(r._mats is None and r._char is None for r in irr)


def test_cyclic_facts_refused_before_any_check(capsys, monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("irreps built or a check ran")

    monkeypatch.setattr(cli.irrmod, "hom_unitarity_error", no_check)
    monkeypatch.setattr(cli.irrmod, "irreps_for", no_check)
    rc, out, err = run_cli(capsys, ["verify", "--suite", "facts", "--group",
                                    "cyclic:855"])
    assert rc == 69
    assert out == ""
    assert err == ("hspsim verify: resource cap: facts suite over 855 irreps "
                   "needs 5.01e+09 multiply-adds (limit 5e+09)\n")


@pytest.mark.parametrize("argv, err", [
    ("verify --suite facts --group wreath:4",
     "hspsim verify: resource cap: all-pairs homomorphism check of "
     "kappa[3,1]x[2,1,1] needs 7.74e+09 multiply-adds (limit 5e+09)\n"),
    ("simulate --group cyclic:5000 --k 2",
     "hspsim simulate: resource cap: sampling k=2 registers over 5000 irreps "
     "(2.5e+07 tuples; largest tuple chi0|chi0 has dimension 1) needs "
     "2.56e+10 bytes (limit 8.81e+08)\n"),
    ("verify --suite lemmas --group cyclic:5000 --k 2",
     "hspsim verify: resource cap: sampling k=2 registers over 5000 irreps "
     "(2.5e+07 tuples; largest tuple chi0|chi0 has dimension 1) needs "
     "2.56e+10 bytes (limit 8.81e+08)\n"),
    ("verify --suite lemmas --group psl2:13 --k 3",
     "hspsim verify: resource cap: sampling k=3 registers over 9 irreps "
     "(729 tuples; largest tuple rho7|rho7|rho7 has dimension 2744) needs "
     "4.98e+12 multiply-adds (limit 5e+09)\n"),
], ids=["wreath4-facts", "cyclic5000-simulate", "cyclic5000-lemmas",
        "psl2:13-lemmas"])
def test_refused_on_the_irrep_listing(capsys, monkeypatch, argv, err):
    # refused on the labels and degrees of the explicit irreps, whose rows
    # are evaluated only where they are read, so a 1 GiB child peaks a few
    # MB above an import-only one (1 MB for wreath:4, 3 MB for cyclic:5000);
    # or on psl2:13's class-sum table, before its numeric irreps (about
    # 3 s) are built
    argv = argv.split()
    if irrmod.has_explicit_irreps(make_group(argv[argv.index("--group") + 1])):
        run = peak_mb(f"assert main({argv!r}) == 69")
        assert run - peak_mb("") <= 6
    else:
        def built(*args, **kwargs):
            raise AssertionError("irreps built")

        monkeypatch.setattr(cli.irrmod, "irreps_for", built)
    assert run_cli(capsys, argv) == (69, "", err)


@pytest.mark.parametrize("argv", [
    "simulate --group power:z2^9 --k 3",
    "verify --suite lemmas --group power:z2^9 --k 3"])
def test_tuples_refused_before_the_class_sum_table(capsys, monkeypatch, argv):
    # 512 classes, so 512^3 register tuples: they rule the input out, not
    # the class constants (8 * 512^3 = 1.07e9 bytes) that would list them
    def built(*args, **kwargs):
        raise AssertionError("class-sum table or irreps built")

    monkeypatch.setattr(cli, "best_character_table", built)
    monkeypatch.setattr(cli.irrmod, "irreps_for", built)
    err = (f"hspsim {argv.split()[0]}: resource cap: sampling k=3 registers "
           "over 512 irreps (1.342e+08 tuples) needs 1.37e+11 bytes "
           "(limit 8.81e+08)\n")
    assert run_cli(capsys, argv.split()) == (69, "", err)


@pytest.mark.parametrize("argv", [
    "simulate --group cyclic:5000 --k 2",
    "verify --suite lemmas --group cyclic:5000 --k 2"])
def test_class_size_is_one_orbit(capsys, monkeypatch, argv):
    # require_sampling's conjugates is the size of h's class; finding all
    # 5000 classes of cyclic:5000 for it took 1.0 s before the refusal
    def searched(*args, **kwargs):
        raise AssertionError("every class found")

    monkeypatch.setattr(FiniteGroup, "conjugacy_classes", searched)
    # simulate and the lemma suite each hold one frame at a time
    err = (f"hspsim {argv.split()[0]}: resource cap: sampling k=2 registers "
           "over 5000 irreps (2.5e+07 tuples; largest tuple chi0|chi0 has "
           "dimension 1) needs 2.56e+10 bytes (limit 8.81e+08)\n")
    assert run_cli(capsys, argv.split()) == (69, "", err)


def peak_mb(code):
    """Peak resident set (MB) of a 1 GiB child that imports hspsim.cli and
    runs code; peak_mb("") is the import alone.  It reads VmHWM, which
    starts afresh at exec: the child's ru_maxrss also counts the pages of
    the test process it was forked from (210 MB under a 210 MB parent)."""
    proc = _under_1gib("-c", "import os\n"
                       "from hspsim.cli import main\n" + code + "\n"
                       "print(next(line for line in open('/proc/self/status')"
                       " if line.startswith('VmHWM:')).split()[1])")
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024  # VmHWM is in kB


def test_facts_peak_memory_in_1gib():
    # the homomorphism check takes its products in blocks of rows that fit
    # util.BLOCK_BYTES; psl2:7's degree-8 check in one block held the
    # (168, 168, 8, 8) products and their gathered rho(xy) at once, and the
    # run peaked 69 MB above an import-only child (16-18 MB in blocks)
    facts = peak_mb("assert main(['verify', '--suite', 'facts', '--group', "
                    "'psl2:7', '--out', os.devnull]) == 0")
    assert facts - peak_mb("") <= 32


@pytest.mark.parametrize("argv", ["simulate --group s8 --k 1",
                                  "bound --family group --group s8"])
def test_young_form_runs_s8_in_1gib(argv):
    # Young's rows at e and the class of h only (66 and 43 MB measured);
    # S_8's numeric irreps would need 2.08e11 bytes
    assert peak_mb(f"assert main({argv.split()!r} + ['--out', os.devnull])"
                   " == 0") < 100


def test_simulate_peak_memory_in_1gib():
    # simulate draws each tuple's frame when it uses it; holding every
    # frame of wreath:4 at k = 2 (16 * 1152^2 bytes, 21 MB) peaked 55 MB
    # above an import-only child, and one frame at a time 40 MB.  Its irreps
    # in complex128 (20 MB) peaked there too; in float64 the run peaks 29 MB
    # above the import.
    run = peak_mb("assert main(['simulate', '--group', 'wreath:4', '--k', "
                  "'2', '--out', os.devnull]) == 0")
    assert run - peak_mb("") <= 33


def test_bound_reads_cyclic_irreps_at_h_only_in_1gib():
    # the closed-form bound reads each irrep at h only, and the cyclic
    # irreps evaluate only that row: with the 5000 whole stacks and their
    # characters built, the run peaked at about 800 MB
    run = peak_mb("assert main(['bound', '--family', 'group', '--group', "
                  "'cyclic:5000', '--out', os.devnull]) == 0")
    assert run < 100


def test_simulate_charged_for_one_frame_in_1gib(capsys):
    # sl2:7 (order 336, largest degree 8) with fused frames.  At k = 3 every
    # tuple's frames are 32 |G|^3 = 1.2e9 bytes, but simulate holds one
    # frame, of D = 512, and runs; the lemma suite, which also holds one,
    # is refused on the work of its diagonal-overlap loop.  At k = 4 that
    # one frame and its draw, 16 (2 + DRAW_MATRICES) 4096^2 bytes, are
    # refused.
    assert run_cli(capsys, ["verify", "--suite", "lemmas", "--group", "sl2:7",
                            "--k", "3", "--frame-kind", "fused"]) == (
        69, "", "hspsim verify: resource cap: diagonal-overlap loop over k=3 "
        "registers of the sl2 group of order 336 needs 4.28e+12 "
        "multiply-adds (limit 5e+09)\n")
    proc = _cli_under_1gib("simulate", "--group", "sl2:7", "--k", "3",
                           "--frame-kind", "fused", "--out", os.devnull)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run_cli(capsys, ["simulate", "--group", "sl2:7", "--k", "4",
                            "--frame-kind", "fused"]) == (
        69, "", "hspsim simulate: resource cap: sampling k=4 registers over "
        "11 irreps (1.464e+04 tuples; largest tuple rho9|rho9|rho9|rho9 has "
        "dimension 4096) needs 1.09e+09 bytes (limit 8.81e+08)\n")


def test_cyclic_facts_estimate_admits_854(monkeypatch):
    # cyclic:854 takes about 40 s, so the run stops where the checks start
    class Admitted(Exception):
        pass

    def admitted(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(cli.irrmod, "hom_unitarity_error", admitted)
    with pytest.raises(Admitted):
        cli.main(["verify", "--suite", "facts", "--group", "cyclic:854"])


def test_cyclic_lemmas_estimate_admits_456(capsys, monkeypatch):
    # a loop step per call the pass over the tuples makes for each tuple:
    # the draw, three q_subset_values blocks, projected_forms and the l1
    # row, and two per conjugate.  cyclic:456 (207 936 tuples) ran in
    # over a minute, so the run stops where the suite starts; cyclic:457
    # has no involution.
    class Admitted(Exception):
        pass

    def admitted(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(cli.simulate, "lemma_suite", admitted)
    with pytest.raises(Admitted):
        cli.main(["verify", "--suite", "lemmas", "--group", "cyclic:456",
                  "--k", "2"])
    assert run_cli(capsys, ["verify", "--suite", "lemmas", "--group",
                            "cyclic:458", "--k", "2"]) == (
        69, "", "hspsim verify: resource cap: sampling k=2 registers over "
        "458 irreps (2.098e+05 tuples; largest tuple chi0|chi0 has "
        "dimension 1) needs 5.03e+09 multiply-adds (limit 5e+09)\n")


def test_dihedral_lemmas_charged_per_conjugate(capsys, monkeypatch):
    # the two X moments take a step per conjugate, and the class of a
    # reflection in dihedral:n, n odd, has n elements: dihedral:185 (8 836
    # tuples) is charged 1.01e+10 multiply-adds, and the largest odd n
    # admitted at k = 2 is 145.  The numeric irreps are built to list
    # them; the run stops where the suite starts.
    class Admitted(Exception):
        pass

    def admitted(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(cli.simulate, "lemma_suite", admitted)
    with pytest.raises(Admitted):
        cli.main(["verify", "--suite", "lemmas", "--group", "dihedral:145",
                  "--k", "2"])
    for n, tuples, work in ((147, 5625, "5.11e+09"), (185, 8836, "1.01e+10")):
        assert run_cli(capsys, ["verify", "--suite", "lemmas", "--group",
                                f"dihedral:{n}", "--k", "2"]) == (
            69, "", "hspsim verify: resource cap: sampling k=2 registers "
            f"over {n // 2 + 2} irreps ({tuples} tuples; largest tuple "
            f"rho2|rho2 has dimension 4) needs {work} multiply-adds "
            "(limit 5e+09)\n")


def test_cyclic_5000_bound_passes_in_1gib():
    # the bound reads one row per irrep (cyclic:5480 was the largest that
    # ran in 1 GiB when the listing was charged for every whole stack)
    proc = _cli_under_1gib("bound", "--family", "group", "--group",
                           "cyclic:5000")
    assert proc.returncode == 0, proc.stderr


def test_cyclic_5300_bound_passes_in_1gib():
    # charged 32 n^2 bytes for whole stacks that no bound builds, it exited
    # 69 ("needs 8.99e+08 bytes"); the listing is charged for what it holds
    proc = _cli_under_1gib("bound", "--family", "group", "--group",
                           "cyclic:5300")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["group_order"] == 5300


def test_cyclic_listing_charge_admits_every_cyclic_order(capsys, monkeypatch):
    # CYCLIC_IRREP_BYTES and a label per irrep: 746 MB for the largest
    # order the group layer admits, 10^6, whose bound ran in a 1 GiB child
    # (713 MiB, 20 s), so the listing refuses no cyclic group; the run
    # stops where the group is built
    class Admitted(Exception):
        pass

    def admitted(n):
        raise Admitted

    monkeypatch.setattr(irrmod, "CyclicGroup", admitted)
    with pytest.raises(Admitted):
        irrmod.irreps_cyclic(10 ** 6)
    assert run_cli(capsys, ["bound", "--family", "group", "--group",
                            "cyclic:1000001"])[0] == 64


@pytest.mark.parametrize("argv, err", [
    ("verify --suite facts --group cyclic:5300",
     "facts suite over 5300 irreps needs 3.17e+11 multiply-adds "
     "(limit 5e+09)"),
    ("verify --suite lemmas --group cyclic:5300 --k 1",
     "lemma suite's stacks, characters and isotypic screen over 5300 irreps "
     "of the cyclic group of order 5300 needs 1.8e+09 bytes "
     "(limit 8.81e+08)"),
    ("verify --suite tables --group cyclic:5300",
     "character table of the cyclic group of order 5300 needs 2.95e+09 "
     "bytes (limit 8.81e+08)"),
    ("chartable --group cyclic:5300",
     "character table of the cyclic group of order 5300 needs 2.95e+09 "
     "bytes (limit 8.81e+08)"),
    ("simulate --group cyclic:5300 --k 1 --t 3",
     "t=3 mixed-state distance over 5300 irreps needs 4.47e+14 "
     "multiply-adds (limit 5e+09)"),
], ids=["facts", "lemmas", "tables", "chartable", "mixed"])
def test_cyclic_whole_stack_readers_refused_in_1gib(capsys, argv, err):
    # the listing that the bound reads is admitted, and each reader of
    # whole stacks is refused on its own estimate before it reads one: a
    # 1 GiB child peaks a few MB above an import-only one
    argv = argv.split()
    assert peak_mb(f"assert main({argv!r}) == 69") - peak_mb("") <= 6
    assert run_cli(capsys, argv) == (
        69, "", f"hspsim {argv[0]}: resource cap: {err}\n")


def test_cyclic_facts_refusal_composes_nothing(capsys, monkeypatch):
    # a cyclic group's classes are its |G| singletons: the refusal spent
    # 1.0 s searching cyclic:5300's 5300 orbits before its work charge
    def composed(*args):
        raise AssertionError("an element was composed")

    monkeypatch.setattr(CyclicGroup, "_compose", composed)
    assert run_cli(capsys, ["verify", "--suite", "facts", "--group",
                            "cyclic:5300"]) == (
        69, "", "hspsim verify: resource cap: facts suite over 5300 irreps "
        "needs 3.17e+11 multiply-adds (limit 5e+09)\n")


def test_commands_never_import_numpy_ma():
    # np.unique's first call imports numpy.ma, +0.75 MB resident and about
    # 11 ms; finding classes and the symmetric irreps' rows do without it
    proc = _under_1gib("-c", "import os, sys\n"
                       "from hspsim.cli import main\n"
                       "for argv in ('simulate --group wreath:4 --k 2',\n"
                       "             'verify --suite facts --group psl2:7',\n"
                       "             'bound --family group --group psl2:11'):\n"
                       "    assert main([*argv.split(), '--out', os.devnull])"
                       " == 0, argv\n"
                       "assert 'numpy.ma' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("kind", ["basis", "fused"])
def test_draw_peak_in_1gib(kind):
    # LAPACK factors each basis in place in the frame's own columns: at
    # D = 1000 a child's VmHWM rose 26.7 MiB (basis) and 41.5 MiB (fused)
    # above an import-only one, its frame and 11 MiB, where np.linalg.qr's
    # copies of A made the draw alone rise 4.11 and 5.11 times 16 D^2
    d, bases = 1000, frame_bases(kind)
    rise = peak_mb(f"from hspsim.frames import random_frame\n"
                   f"random_frame({d}, [0], {kind!r})") - peak_mb("")
    assert rise <= 16 * (bases + simulate.DRAW_MATRICES) * d * d / 2 ** 20
    assert rise <= 16 * (bases + 1) * d * d / 2 ** 20


def test_wreath_40_bound_peak_traced(capsys):
    # the search hands each S_eps member to wreath_params as its label and
    # exact degree, and the report's labels are dropped before the text is
    # written: 1.33 MB traced, where partition tuples, a label dict and a
    # second sort peaked at 2.44 MB
    cli.main(["bound", "--family", "wreath", "--n", "3"])  # first-call state
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc = cli.main(["bound", "--family", "wreath", "--n", "40"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len(json.loads(capsys.readouterr().out)["s_epsilon_labels"]) \
        == 5494
    assert peak < 1.6e6


@pytest.mark.parametrize("spec", ["s7", "wreath:5", "sl2:13"])
def test_group_bound_reads_the_class_sum_table_in_1gib(spec):
    # no explicit irreps, and the numeric irreps are refused (wreath:5
    # 1.06e11 bytes, sl2:13 2.1e10 multiply-adds); the bound reads the
    # degrees and chi(h) off the class-sum table.  simulate still needs the
    # irreps, so simulate --group wreath:5 stays refused (test_exit_codes).
    # s7 has Young's form instead, read at h only; it stays as a 1 GiB run
    # of a bound that reads no class-sum table
    proc = _cli_under_1gib("bound", "--family", "group", "--group", spec)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["group_order"] == make_group(spec).order


def test_group_bound_builds_no_irreps_without_explicit_ones(capsys,
                                                            monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("irreps built")

    monkeypatch.setattr(cli.irrmod, "irreps_for", built)
    monkeypatch.setattr(cli.irrmod, "irreps_generic", built)
    rc, out, _ = run_cli(capsys, ["bound", "--family", "group", "--group",
                                  "psl2:11"])
    assert rc == 0
    assert json.loads(out)["group_order"] == 660


@pytest.mark.parametrize("argv", [
    "simulate --group s6", "bound --family group --group s8",
    "chartable --group s7", "verify --suite tables --group s6"])
def test_symmetric_groups_build_no_numeric_irreps_or_table(capsys,
                                                          monkeypatch, argv):
    # Young's form is the one route for S_n at every n the group layer
    # admits
    def built(*args, **kwargs):
        raise AssertionError("numeric irreps or class-sum table built")

    monkeypatch.setattr(cli.irrmod, "irreps_generic", built)
    monkeypatch.setattr(cli, "character_table_numeric", built)
    monkeypatch.setattr(chartable, "character_table_numeric", built)
    assert run_cli(capsys, argv.split())[0] == 0


@pytest.mark.parametrize("spec", NUMERIC_GROUPS)
def test_group_bound_reads_numeric_groups_off_the_table(capsys, monkeypatch,
                                                        spec):
    # no irrep is built, and the report is the one the numeric irreps give
    argv = ["bound", "--family", "group", "--group", spec]

    def built(*args, **kwargs):
        raise AssertionError("irreps built")

    with monkeypatch.context() as m:
        m.setattr(cli.irrmod, "irreps_for", built)
        m.setattr(cli.irrmod, "irreps_generic", built)
        rc, got, _ = run_cli(capsys, argv)
    assert rc == 0
    irr = irrmod.irreps_generic(make_group(spec))
    monkeypatch.setattr(bounds, "params_from_table", lambda table, h, eps:
                        bounds.params_from_irreps(table.group, irr, h, eps))
    assert run_cli(capsys, argv) == (0, got, "")


@pytest.mark.parametrize("admitted, refused", [
    # numeric irreps: sl2:9 (order 720) is built, sl2:13 (2.1e10
    # multiply-adds) is not
    ("simulate --group sl2:9", "simulate --group sl2:13"),
    # the t-copy mixed-state distance: (sum d^3)^t = 1126^t for psl2:7
    ("simulate --group psl2:7 --t 3", "simulate --group psl2:7 --t 4"),
], ids=["sl2:9-sl2:13", "psl2:7-t3-t4"])
def test_estimate_boundary_in_1gib(capsys, admitted, refused):
    proc = _cli_under_1gib(*admitted.split())
    assert proc.returncode == 0, proc.stderr
    rc, out, err = run_cli(capsys, refused.split())
    assert rc == 69
    assert out == ""
    assert " needs " in err


@pytest.mark.parametrize("code, n", [
    # 4 n^2 bytes of int32 ids plus one row block of temporaries
    ("make_group('cyclic:{n}').table()", 14322),
    # 48 n^2 bytes: qft's cyclic stacks, their scaled blocks and the matrix
    ("G = make_group('cyclic:{n}'); qft(G, irreps_for(G))", 4283),
    # the n x n coset state and its boolean mask
    ("G = make_group('cyclic:{n}'); coset_state(G, {n} // 2)", 9892),
    # 2 n^3 multiply-adds of the Fourier round trip
    ("G = make_group('cyclic:{n}'); fourier_roundtrip_error("
     "G, {n} // 2, irreps_for(G))", 1356),
], ids=["table", "cyclic_irreps", "coset_state", "roundtrip"])
def test_library_estimate_boundary_in_1gib(code, n):
    head = ("from hspsim.fourier import qft\n"
            "from hspsim.groups import make_group\n"
            "from hspsim.irreps import irreps_for\n"
            "from hspsim.simulate import coset_state, "
            "fourier_roundtrip_error\n")
    proc = _under_1gib("-c", head + code.format(n=n))
    assert proc.returncode == 0, proc.stderr
    step = 2 if "// 2" in code else 1  # the next order with an involution
    with pytest.raises(ResourceCap):  # in process: nothing is allocated
        exec(head + code.format(n=n + step), {})


def test_exit_usage_on_argparse_error():
    rc = subprocess.run(
        [sys.executable, "-m", "hspsim.cli", "bound"],
        capture_output=True, text=True).returncode
    assert rc == 64


def test_exit_inapplicable_corollary(capsys):
    rc, _, err = run_cli(capsys, ["bound", "--family", "power", "--group",
                                  "z2", "--h", "id:1", "--n", "4"])
    assert rc == 2
    assert "inapplicable" in err


def test_exit_usage_on_non_involution(capsys):
    rc, _, err = run_cli(capsys, ["simulate", "--group", "s3",
                                  "--h", "(1 2 3)"])
    assert rc == 64
    assert err == "hspsim simulate: error: h = (1 2 3) is not an involution\n"


def test_exit_usage_when_no_involution_exists(capsys):
    rc, _, err = run_cli(capsys, ["simulate", "--group", "cyclic:3"])
    assert rc == 64
    assert "no involution" in err


def test_exit_verify_fail_on_broken_table(capsys, monkeypatch):
    monkeypatch.setattr(CharacterTable, "row_orthogonality_error",
                        lambda self: 1.0)
    rc, out, _ = run_cli(capsys, ["verify", "--suite", "tables",
                                  "--group", "s3"])
    assert rc == 1
    report = json.loads(out)
    assert report["n_fail"] == 1
    failed = [c for c in report["checks"] if c["status"] == "FAIL"]
    assert failed[0]["check"] == "row orthogonality"


# ---------------------------------------------------------------------------
# bound reports

def test_bound_psl13_report(capsys):
    rc, out, _ = run_cli(capsys, ["bound", "--family", "psl2", "--q", "13",
                                  "--k-max", "10"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["header"]["tool_version"]
    assert rep["header"]["group_spec"] == "psl2:13"
    assert rep["header"]["timestamp"] == "2025-08-22T00:00:00Z"
    assert rep["group_order"] == 1092
    assert abs(rep["delta1"] - 0.2509157509157509) < 1e-9
    assert len(rep["delta2_by_k"]) == 10


def test_bound_wreath3_report(capsys):
    rc, out, _ = run_cli(capsys, ["bound", "--family", "wreath", "--n", "3",
                                  "--epsilon", "0.2"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["group_order"] == 72
    assert rep["d_epsilon"] == 36
    assert abs(rep["delta1"] - 6.311111111111111) < 1e-9


def test_bound_power_report(capsys):
    rc, out, _ = run_cli(capsys, ["bound", "--family", "power", "--group",
                                  "s4", "--h", "(1 2)", "--n", "10"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["family"] == "direct-power"
    assert rep["k_lower_bound"] == 0
    gates = [n for n in rep["interpretation_notes"] if "sqrt|G|" in n]
    assert len(gates) == 1 and "fails" not in gates[0]


@pytest.mark.parametrize("argv, largest", [
    (["--family", "wreath", "--n", "5", "--k-max"], 1023),
    (["--family", "psl2", "--q", "13", "--k-max"], 1023),
    (["--family", "power", "--group", "s4", "--h", "(1 2)", "--n"], 223),
    (["--family", "power", "--group", "psl2:5", "--n"], 173),
], ids=["wreath-k-max", "psl2-k-max", "power-s4-n", "power-psl2:5-n"])
def test_bound_float_range_boundaries(capsys, argv, largest):
    # 2^k (k-max) or |G|^n (power) is the first value past the float range
    rc, out, _ = run_cli(capsys, ["bound"] + argv + [str(largest)])
    assert rc == 0
    assert "nan" not in out
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, ["bound"] + argv + [str(largest + 1)])
    assert time.perf_counter() - t0 < 1  # before the exact Fraction tail
    assert rc == 64
    assert out == ""
    assert err.startswith(f"hspsim bound: error: argument {argv[-1]}: must "
                          f"be at most {largest}")


BIG = str(10 ** 400)
ABOVE_2_53 = str(2 ** 53 + 1)
PAST_2_53 = "must be at most 2**53 in magnitude, got "


@pytest.mark.parametrize("argv, text", [
    (["bound", "--family", "psl2", "--q", "13", "--epsilon", "-1"],
     "argument --epsilon: must be a finite number >= 0, got -1.0"),
    (["simulate", "--group", "s3", "--epsilon", "nan"],
     "argument --epsilon: must be a finite number >= 0, got nan"),
    (["verify", "--suite", "lemmas", "--group", "s3", "--epsilon", "inf"],
     "argument --epsilon: must be a finite number >= 0, got inf"),
    (["bound", "--family", "wreath", "--n", "3", "--threshold", "-0.5"],
     "argument --threshold: must be a finite number >= 0, got -0.5"),
    (["bound", "--family", "wreath", "--n", "3", "--epsilon", "-1e-3"],
     "argument --epsilon: must be a finite number >= 0, got -0.001"),
    (["bound", "--family", "wreath", "--n", "3", "--epsilon", "-inf"],
     "argument --epsilon: must be a finite number >= 0, got -inf"),
    (["bound", "--family", "gl", "--n", "6", "--p", "2", "--m", "0"],
     "argument --m: must be at least 1, got 0"),
    (["bound", "--family", "gl", "--n", "6", "--p", "2", "--m", "-3"],
     "argument --m: must be at least 1, got -3"),
    (["simulate", "--group", "s3", "--threads", "0"],
     "argument --threads: must be at least 1, got 0"),
    (["verify", "--suite", "lemmas", "--group", "s3", "--threads", "-1"],
     "argument --threads: must be at least 1, got -1"),
    (["simulate", "--group", "s3", "--k", BIG],
     f"argument --k: {PAST_2_53}{BIG}"),
    (["simulate", "--group", "s3", "--frames", ABOVE_2_53],
     f"argument --frames: {PAST_2_53}{ABOVE_2_53}"),
    (["simulate", "--group", "s3", "--t", f"-{ABOVE_2_53}"],
     f"argument --t: {PAST_2_53}-{ABOVE_2_53}"),
    (["verify", "--suite", "lemmas", "--group", "s3", "--k", ABOVE_2_53],
     f"argument --k: {PAST_2_53}{ABOVE_2_53}"),
    (["bound", "--family", "wreath", "--n", "3", "--t", BIG],
     f"argument --t: {PAST_2_53}{BIG}"),
    (["bound", "--family", "power", "--group", "s4", "--n", f"-{BIG}"],
     f"argument --n: {PAST_2_53}-{BIG}"),
    (["bound", "--family", "gl", "--n", BIG, "--p", "2"],
     f"argument --n: {PAST_2_53}{BIG}"),
    (["bound", "--family", "gl", "--n", "6", "--p", "2", "--m", f"-{BIG}"],
     f"argument --m: {PAST_2_53}-{BIG}"),
], ids=["epsilon-1", "epsilon-nan", "epsilon-inf", "threshold-neg",
        "epsilon-exponent", "epsilon-neg-inf", "m0",
        "m-3", "threads0", "threads-1", "simulate-k-big", "frames-2**53+1",
        "simulate-t-neg", "lemmas-k-2**53+1", "bound-t-big", "power-n-neg",
        "gl-n-big", "gl-m-neg"])
def test_out_of_domain_flags_are_usage_errors(capsys, argv, text):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 64
    assert out == ""
    assert err == f"hspsim {argv[0]}: error: {text}\n"


def _subparsers():
    """{command: its parser} from cli.build_parser()."""
    top = cli.build_parser()
    return next(a for a in top._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flags(parser):
    """{option: action} of every flag but --help."""
    return {a.option_strings[0]: a for a in parser._actions
            if not isinstance(a, argparse._HelpAction)}


# (lo, hi) of every integer flag, and every float flag (finite, >= 0)
COMMON_INT_RANGES = {"--seed": (0, None), "--threads": (1, None)}
INT_RANGES = {
    "bound": {"--n": (None, None), "--q": (None, None), "--p": (None, None),
              "--m": (1, None), "--k-max": (None, 1023),
              "--t": (1, None), **COMMON_INT_RANGES},
    "simulate": {"--k": (1, None), "--frames": (1, None), "--t": (1, None),
                 **COMMON_INT_RANGES},
    "verify": {"--k": (1, None), **COMMON_INT_RANGES},
    "chartable": COMMON_INT_RANGES,
}
FLOAT_FLAGS = {"bound": {"--epsilon", "--threshold"},
               "simulate": {"--epsilon"}, "verify": {"--epsilon"},
               "chartable": set()}
# a value for each flag a subcommand requires
REQUIRED_VALUES = {"--family": "wreath", "--suite": "facts", "--group": "s3"}


def test_flag_types_match_the_declared_ranges():
    for command, parser in _subparsers().items():
        flags = _flags(parser)
        ints = {name: (a.type.lo, a.type.hi) for name, a in flags.items()
                if isinstance(a.type, cli.IntFlag)}
        floats = {name for name, a in flags.items()
                  if a.type is cli.finite_nonneg_float}
        assert ints == INT_RANGES[command], command
        assert floats == FLOAT_FLAGS[command], command
        assert not {name for name, a in flags.items()
                    if a.type in (int, float)}, command


RANGE_CASES = [(command, name) for command in INT_RANGES
               for name in [*INT_RANGES[command], *sorted(FLOAT_FLAGS[command])]]


@pytest.mark.parametrize("command, name", RANGE_CASES,
                         ids=[" ".join(c) for c in RANGE_CASES])
def test_flag_ranges_are_declared_with_the_flag(capsys, command, name):
    # past its range a flag is refused by the parser, exit 64, before any
    # command runs; at the edge it is admitted.  Integer flags are first held
    # to |v| <= 2**53, past which a float no longer holds them exactly.
    # A refused value goes both as --flag=value and as --flag value, where
    # argparse must read a negative number ("-1e-300", "-inf") as a value.
    parser = _subparsers()[command]
    argv = [command]
    for a in parser._actions:
        if a.required:
            argv += [a.option_strings[0], REQUIRED_VALUES[a.option_strings[0]]]
    dest = _flags(parser)[name].dest

    def refused(value, message):
        for given in ([f"{name}={value}"], [name, value]):
            rc, out, err = run_cli(capsys, argv + given)
            assert (rc, out) == (64, ""), given
            assert err == (f"hspsim {command}: error: argument {name}: "
                           f"{message}\n")

    def admitted(value):
        args = cli.build_parser().parse_args(argv + [f"{name}={value}"])
        assert getattr(args, dest) == value

    if name in FLOAT_FLAGS[command]:
        for value in ("-0.5", "-1e-300", "-2E+3", "-.5e-1", "nan", "-nan",
                      "inf", "-inf", "-Infinity"):
            refused(value, f"must be a finite number >= 0, got {float(value)}")
        refused("x", "invalid float value: 'x'")
        admitted(0.0)
        admitted(1e300)
        return
    lo, hi = INT_RANGES[command][name]
    for value in (2 ** 53 + 1, -(2 ** 53 + 1), 10 ** 400, -10 ** 400):
        refused(str(value), f"must be at most 2**53 in magnitude, got {value}")
    for value in ("x", "1.5", "1e3"):
        refused(value, f"invalid int value: {value!r}")
    admitted(2 ** 53 if hi is None else hi)
    admitted(-2 ** 53 if lo is None else lo)
    for value in ([] if lo is None else range(lo - 4, lo)):
        refused(str(value), f"must be at least {lo}, got {value}")
    for value in ([] if hi is None else range(hi + 1, hi + 5)):
        refused(str(value), f"must be at most {hi}, got {value}")


def _args_attrs(node):
    """The <dest> of every args.<dest> under an AST node."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "args"}


def test_every_declared_flag_is_read():
    # a flag that changes nothing should not be accepted: each is read as
    # args.<dest> by its command's handler (or a cli function or table it
    # names, transitively), or by main itself; and each flag that a bound
    # family or verify suite declares is read by that entry's runner
    body = ast.parse(inspect.getsource(cli)).body
    funcs = {node.name: node for node in body
             if isinstance(node, ast.FunctionDef)}
    funcs.update({t.id: node for node in body if isinstance(node, ast.Assign)
                  for t in node.targets if isinstance(t, ast.Name)})

    def reached(name, seen):
        seen.add(name)
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.Name) and node.id in funcs
                    and node.id not in seen):
                reached(node.id, seen)
        return seen

    def read_from(name):
        return set().union(*map(_args_attrs, map(funcs.get,
                                                 reached(name, set()))))

    unread = []
    for command, parser in _subparsers().items():
        read = _args_attrs(funcs["main"]) | read_from(f"cmd_{command}")
        unread += [f"{command} {name}" for name, a in _flags(parser).items()
                   if a.dest not in read]
    for table in (cli.BOUND_FAMILIES, cli.VERIFY_SUITES):
        for name, reads in table.items():
            read = read_from(reads.run.__name__)
            unread += [f"{name} {dest}" for dest in reads.flags
                       if dest not in read]
    assert unread == []


# every subcommand reads these, whatever its family or suite
COMMON_FLAGS = {"--seed", "--threads", "--format", "--out"}
# a valid value for each flag a bound family or verify suite reads
FLAG_VALUES = {"--n": "3", "--q": "5", "--p": "2", "--m": "1", "--group": "s4", "--h": "(1 2)", "--epsilon": "0.3",
               "--k-max": "2", "--t": "1", "--threshold": "0.3", "--k": "1",
               "--frame-kind": "basis"}
ENTRIES = [(command, option, name, table)
           for command, option, table in (
               ("bound", "--family", cli.BOUND_FAMILIES),
               ("verify", "--suite", cli.VERIFY_SUITES))
           for name in table]


@pytest.mark.parametrize("command, option, name, table", ENTRIES,
                         ids=[f"{c} {n}" for c, _, n, _ in ENTRIES])
def test_each_family_and_suite_refuses_the_flags_it_does_not_read(
        capsys, monkeypatch, command, option, name, table):
    # given with valid values, the flags the entry reads are accepted ...
    reads = [cli.flag_names([dest]) for dest in table[name].flags]
    argv = [command, option, name] + ["--group", "s4"] * (command == "verify")
    argv += [x for flag in reads for x in (flag, FLAG_VALUES[flag])]
    rc, _, err = run_cli(capsys, argv)
    assert rc == 0, err
    # ... and every other flag of the subcommand is refused, exit 64, each
    # alone and all at once, before any group is built
    unread = [flag for flag, a in _flags(_subparsers()[command]).items()
              if flag not in COMMON_FLAGS | {option, *reads} and not a.required]
    monkeypatch.setattr(cli, "make_group", None)
    for given in [[flag] for flag in unread] + ([unread] if unread else []):
        rc, out, err = run_cli(capsys, argv + [
            x for flag in given for x in (flag, FLAG_VALUES[flag])])
        assert (rc, out) == (64, "")
        read = f" (it reads {', '.join(reads)})" if reads else ""
        assert err == (f"hspsim {command}: error: {option} {name} does not "
                       f"read {', '.join(given)}{read}\n")


@pytest.mark.parametrize("argv, err", [
    ("bound --family gl --n 6 --p 2 --epsilon 5 --h x",
     "--family gl does not read --h, --epsilon (it reads --n, --p, --m)"),
    ("bound --family power --group s4 --h '(1 2)' --n 10 --epsilon 0.3",
     "--family power does not read --epsilon (it reads --group, --n, --h, "
     "--t, --threshold, --k-max)"),
    ("verify --suite facts --group s3 --k 5 --epsilon 3",
     "--suite facts does not read --k, --epsilon"),
    ("bound --family power --group s4 --n 0",
     "--family power: argument --n: must be at least 1, got 0"),
    ("bound --family gl --n 1 --p 2",
     "--family gl: argument --n: must be at least 2, got 1"),
    ("bound --family wreath --n 1",
     "--family wreath: argument --n: must be at least 2, got 1"),
    ("bound --family wreath --n 41",
     "--family wreath: argument --n: must be at most 40, got 41"),
    ("bound --family wreath --n 3 --epsilon 0",
     "--family wreath: argument --epsilon: must be > 0, got 0.0"),
    ("bound --family power --n 3",
     "--family power requires --group and --n"),
], ids=["gl-ignored", "power-epsilon", "facts-ignored", "power-n0",
        "gl-n1", "wreath-n1", "wreath-n41", "wreath-epsilon0",
        "power-required"])
def test_family_and_suite_refusals_name_the_entry(capsys, monkeypatch, argv,
                                                  err):
    # refused before any group is built
    monkeypatch.setattr(cli, "make_group", None)
    argv = shlex.split(argv)
    rc, out, got = run_cli(capsys, argv)
    assert (rc, out, got) == (64, "", f"hspsim {argv[0]}: error: {err}\n")


@pytest.mark.parametrize("argv", [
    "--family power --group s4 --h '(1 2)' --n 1", "--family gl --n 2 --p 2",
    "--family wreath --n 2", "--family wreath --n 40",
    "--family wreath --n 3 --epsilon 1e-3"])
def test_family_ranges_admit_their_edges(capsys, argv):
    rc, _, err = run_cli(capsys, ["bound", *shlex.split(argv)])
    assert rc == 0, err


def test_power_split_is_scanned_not_given(capsys):
    # the power family scans the split c over 2..16 and reports the best as
    # params.c; no flag sets it
    argv = ["bound", "--family", "power", "--group", "s4", "--n", "10"]
    rc, out, err = run_cli(capsys, argv)
    assert (rc, err) == (0, "")
    assert 2 <= json.loads(out)["params"]["c"] <= 16
    rc, out, err = run_cli(capsys, argv + ["--c", "2"])
    assert (rc, out) == (64, "")
    assert err.endswith("error: unrecognized arguments: --c 2\n")


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
def test_threads_env_is_checked_like_the_flag(capsys, monkeypatch, value):
    monkeypatch.setenv("HSPSIM_THREADS", value)
    rc, out, err = run_cli(capsys, ["simulate", "--group", "s3"])
    assert (rc, out) == (64, "")
    assert err == ("hspsim simulate: error: environment variable "
                   f"HSPSIM_THREADS: must be an integer of at least 1, got "
                   f"{value!r}\n")


def test_bound_gl_report(capsys):
    rc, out, _ = run_cli(capsys, ["bound", "--family", "gl", "--n", "6",
                                  "--p", "2", "--m", "3"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["winner"] == "wreath"


def test_bound_generic_group_report(capsys):
    rc, out, _ = run_cli(capsys, ["bound", "--family", "group", "--group",
                                  "dihedral:4"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["group_order"] == 8
    assert rep["params"]["group"] == "dihedral:4"


# ---------------------------------------------------------------------------
# simulate reports

def test_simulate_report_fields(capsys):
    rc, out, _ = run_cli(capsys, ["simulate", "--group", "wreath:3",
                                  "--k", "1", "--frames", "2", "--seed", "7"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["h"] == "(e|e|1)"
    assert rep["conjugates"] == 6
    assert len(rep["per_seed"]) == 2
    for row in rep["per_seed"]:
        assert 0 <= row["avg_tv"] <= 1
        assert row["avg_l1"] == pytest.approx(2 * row["avg_tv"])
    assert rep["avg_l1_below_delta2"] is True
    assert rep["hypothesis_ok"] is True


def test_simulate_explicit_h_matches_default(capsys):
    rc1, out1, _ = run_cli(capsys, ["simulate", "--group", "dihedral:4"])
    rc2, out2, _ = run_cli(capsys, ["simulate", "--group", "dihedral:4",
                                    "--h", "id:4"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_simulate_mixed_copy_section(capsys):
    rc, out, _ = run_cli(capsys, ["simulate", "--group", "dihedral:4",
                                  "--t", "2"])
    assert rc == 0
    rep = json.loads(out)
    sec = rep["mixed_copies"]
    assert sec["t"] == 2
    assert sec["below_bound"] is True
    assert sec["trace_distance"] <= sec["bound"]


def _reports_across_threads(capsys, argv):
    outs = []
    for threads in ("1", "2", "8"):
        rc, out, _ = run_cli(capsys, argv + ["--threads", threads])
        assert rc == 0
        outs.append(out)
    return outs


def test_simulate_byte_identical_across_threads(capsys):
    outs = _reports_across_threads(capsys, ["simulate", "--group", "wreath:3",
                                            "--k", "1", "--seed", "7"])
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "lemmas", "--group", "wreath:3", "--k", "2"],
    ["simulate", "--group", "psl2:5", "--k", "2", "--frame-kind", "fused"]])
def test_tuple_map_byte_identical_across_threads(capsys, argv):
    # both commands map over register tuples; --threads runs nothing in
    # parallel, so the reports must not depend on it
    outs = _reports_across_threads(capsys, argv)
    assert outs[0] == outs[1] == outs[2]


def test_simulate_fused_frames(capsys):
    rc, out, _ = run_cli(capsys, ["simulate", "--group", "wreath:3",
                                  "--k", "1", "--frame-kind", "fused"])
    assert rc == 0
    assert json.loads(out)["frame_kind"] == "fused"


# ---------------------------------------------------------------------------
# verify suites

def test_verify_facts_s3(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--suite", "facts",
                                  "--group", "s3"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["n_fail"] == 0
    names = [c["check"] for c in rep["checks"]]
    assert "mean squared overlap is 1/d" in names
    assert "expected tuple multiplicity" in names


def test_verify_lemmas_wreath3_k2(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--suite", "lemmas",
                                  "--group", "wreath:3", "--k", "2"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["n_fail"] == 0 and rep["n_warn"] == 0
    names = [c["check"] for c in rep["checks"]]
    assert "second-moment identity" in names
    assert "distance against x first moment" in names


def test_verify_lemmas_hypothesis_warn(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--suite", "lemmas",
                                  "--group", "s3", "--k", "2",
                                  "--epsilon", "0.3"])
    assert rc == 0  # hypothesis not met is a WARN, not a failure
    rep = json.loads(out)
    assert rep["n_warn"] == 1 and rep["n_fail"] == 0


def test_verify_tables_psl5_warn_not_fail(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--suite", "tables",
                                  "--group", "psl2:5"])
    assert rc == 0
    rep = json.loads(out)
    warns = [c for c in rep["checks"] if c["status"] == "WARN"]
    assert len(warns) == 1
    assert warns[0]["check"] == "involution count"
    assert "10" in warns[0]["detail"]


@pytest.mark.parametrize("argv, n_warn", [
    *[(f"--suite {suite} --group {spec}",
       int(suite == "tables" and spec == "psl2:5"))  # the involution count
      for suite in ("facts", "tables", "lemmas") for spec in ("s4", "psl2:5")],
    ("--suite lemmas --group dihedral:4 --k 2 --epsilon 0.3", 1)])
def test_every_verify_entry_has_one_shape(capsys, argv, n_warn):
    rc, out, _ = run_cli(capsys, ["verify", *argv.split()])
    rep = json.loads(out)
    statuses = [c["status"] for c in rep["checks"]]
    for c in rep["checks"]:
        assert {"check", "status"} <= set(c) <= {
            "check", "status", "lhs", "rhs", "detail"}, c
    assert set(statuses) <= {"PASS", "WARN", "FAIL"}
    assert [rep["n_pass"], rep["n_warn"], rep["n_fail"]] == [
        statuses.count(s) for s in ("PASS", "WARN", "FAIL")]
    assert (rc, rep["n_warn"], rep["n_fail"]) == (0, n_warn, 0)


def test_refused_roundtrip_is_reported_as_a_warn(capsys):
    # cyclic:1400's round trip needs 5.49e9 multiply-adds; the rest runs
    rc, out, _ = run_cli(capsys, ["verify", "--suite", "lemmas",
                                  "--group", "cyclic:1400", "--k", "1"])
    rep = json.loads(out)
    assert (rc, len(rep["checks"]), rep["n_warn"], rep["n_fail"]) == (
        0, 6, 1, 0)
    assert rep["checks"][0] == {
        "check": "transform diagonalizes the hidden-subgroup state",
        "status": "WARN",
        "detail": "not run: round-trip check on the cyclic group of order "
                  "1400 needs 5.49e+09 multiply-adds (limit 5e+09)"}


def _no_group(spec):
    raise AssertionError(f"built {spec} before the arguments were checked")


def test_out_into_a_missing_directory_is_refused_before_work(
        capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "make_group", _no_group)
    missing = tmp_path / "missing"
    rc, out, err = run_cli(capsys, ["verify", "--suite", "facts", "--group",
                                    "s3", "--out", str(missing / "x.json")])
    assert (rc, out) == (64, "")
    assert err == ("hspsim verify: error: argument --out: directory "
                   f"{str(missing)!r} does not exist\n")
    assert not missing.exists()


def test_out_to_dev_null_and_a_bare_name_are_valid(capsys, monkeypatch,
                                                   tmp_path):
    monkeypatch.chdir(tmp_path)
    for out in (os.devnull, "x.json"):
        assert run_cli(capsys, ["verify", "--suite", "facts", "--group",
                                "s3", "--out", out]) == (0, "", "")
    assert json.loads((tmp_path / "x.json").read_text())["n_fail"] == 0


def test_out_that_is_a_directory_is_refused_before_work(capsys, monkeypatch,
                                                      tmp_path):
    monkeypatch.setattr(cli, "make_group", _no_group)
    rc, out, err = run_cli(capsys, ["verify", "--suite", "facts", "--group",
                                    "s3", "--out", str(tmp_path)])
    assert (rc, out) == (64, "")
    assert err == ("hspsim verify: error: argument --out: cannot write "
                   f"{str(tmp_path)!r}: Is a directory\n")


def test_out_is_left_as_it_was_when_the_run_fails(capsys, tmp_path):
    # --out is checked by opening it to append: a file already there keeps
    # its bytes, and one the check made is gone again, when the run is
    # refused after the check
    kept, made = tmp_path / "kept.json", tmp_path / "made.json"
    kept.write_text("earlier report\n")
    for out in (kept, made):
        rc, stdout, err = run_cli(capsys, ["simulate", "--group", "wreath:5",
                                           "--out", str(out)])
        assert (rc, stdout) == (69, "")
        assert err.startswith("hspsim simulate: resource cap: ")
    assert kept.read_text() == "earlier report\n"
    assert not made.exists()


@pytest.mark.parametrize("name, value", [
    ("HSPSIM_TIMESTAMP", "abc"),
    ("HSPSIM_TIMESTAMP", "99999999999999999"),
    ("SOURCE_DATE_EPOCH", "1e5")])
def test_bad_timestamp_variable_is_refused_before_work(capsys, monkeypatch,
                                                       name, value):
    monkeypatch.delenv("HSPSIM_TIMESTAMP")
    monkeypatch.setenv(name, value)
    monkeypatch.setattr(cli, "make_group", _no_group)
    rc, out, err = run_cli(capsys, ["verify", "--suite", "facts",
                                    "--group", "s3"])
    assert (rc, out) == (64, "")
    assert err == (f"hspsim verify: error: environment variable {name}: "
                   "must be whole seconds since 1970 of a date in years 1 "
                   f"to 9999, got {value!r}\n")


# ---------------------------------------------------------------------------
# chartable

S3_TABLE_CSV = (
    'class_rep,class_size,[3],"[1,1,1]","[2,1]"\n'
    "e,1,1+0i,1+0i,2+0i\n"
    "(1 2 3),2,1+0i,1+0i,-1+0i\n"
    "(2 3),3,1+0i,-1+0i,0+0i\n")


def test_chartable_csv_golden(capsys):
    rc, out, _ = run_cli(capsys, ["chartable", "--group", "s3"])
    assert rc == 0
    assert out == S3_TABLE_CSV


def test_chartable_json(capsys):
    rc, out, _ = run_cli(capsys, ["chartable", "--group", "psl2:5",
                                  "--format", "json"])
    assert rc == 0
    rep = json.loads(out)
    assert sorted(rep["table"]["degrees"]) == [1, 3, 3, 4, 5]


def test_chartable_out_file(capsys, tmp_path):
    path = tmp_path / "table.csv"
    rc, out, _ = run_cli(capsys, ["chartable", "--group", "s3",
                                  "--out", str(path)])
    assert rc == 0
    assert out == ""
    assert path.read_text() == S3_TABLE_CSV


# ---------------------------------------------------------------------------
# output formats

def test_csv_and_text_formats(capsys):
    rc, out_csv, _ = run_cli(capsys, ["bound", "--family", "wreath",
                                      "--n", "3", "--format", "csv"])
    assert rc == 0
    assert out_csv.startswith("key,value\n")
    assert "group_order,72" in out_csv
    rc, out_text, _ = run_cli(capsys, ["bound", "--family", "wreath",
                                       "--n", "3", "--format", "text"])
    assert rc == 0
    assert "group_order = 72" in out_text


def test_string_lists_in_one_join_match_the_per_item_report():
    # a list or tuple of str only is written in one join; any other list,
    # the mixed one here, item by item
    strs = ["rho1", 'say "hi"', "C:\\dir\\", '\\"', "rho1⊗rho0", "",
            "theta'[2,1]"]
    obj = {
        "labels": strs,
        "tuple": tuple(strs[::-1]),
        "nested": [strs, [], ["x"], [[""], ["a", "b"]]],
        "mixed": ["a", 1.5, "b", -0.0, None, True, 3],
        "numpy": [np.str_("s"), "t"],
        "one": [""],
        "empty": [],
    }
    text = dumps_report(obj)
    assert text == dumps_per_item(obj)
    assert json.loads(text) == {
        **obj, "tuple": list(obj["tuple"]),
        "mixed": ["a", 1.5, "b", 0.0, None, True, 3]}

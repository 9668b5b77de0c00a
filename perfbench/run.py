"""hspsim benchmark: fixed command lists driven through hspsim.cli.main.

Usage (from the repository root):

    python3 perfbench/run.py --workload simulate --seed 0 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --workload all          # every workload, summary

A run starts fresh child processes (perfbench/child.py).  Each child imports
``hspsim.cli`` from ``src/`` and runs one pass of the workload's command
list, one command after another.  With ``--trace 0`` the run repeats passes
until ``--seconds`` of measured time have passed (at least one) and reports
the end-to-end metrics.  With ``--trace 1`` it runs one untraced and one
traced pass and reports the per-layer metrics; the traced reports must be
byte-identical to the untraced ones.  Every report is checked against
perfbench/expected.json, recorded at the seed commit by perfbench/record.py.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (environment, expanded
command list, per-command outcomes) go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shlex
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
OUT_DIR = HERE / "out"

# The child's own address-space limit.  The largest legitimate command uses
# about 0.36 GB of address space (measured VmPeak); at the seed commit
# `verify --suite facts --group wreath:4` asks for a 1.7 GB tensor and raises
# MemoryError under this limit instead of exhausting the machine.
ADDRESS_SPACE_BYTES = 1 << 30
SETUP_PROBES = 8          # extra import-only children per run, for setup_s
RUN_BUDGET_S = 170.0      # a run must end within 180 s
REL_TOL, ABS_TOL = 1e-6, 1e-9


class Op:
    """One hspsim command of a workload.

    seed: the hspsim --seed at workload seed 0; the workload seed is added
    to it unless pinned.  refusable: exit 69 (resource cap) is an expected
    outcome, as is exit 0 with a passing report.
    """

    def __init__(self, cmd, seed=0, pinned=False, refusable=False):
        self.cmd, self.seed = cmd, seed
        self.pinned, self.refusable = pinned, refusable

    def argv(self, wseed, threads):
        args = shlex.split(self.cmd)
        if "--threads" in args:
            i = args.index("--threads") + 1
            args[i] = str(min(int(args[i]), threads))
        seed = self.seed if self.pinned else self.seed + wseed
        return args + ["--seed", str(seed)]

    def codes(self):
        return (0, 69) if self.refusable else (0,)


# Why each workload exists is written up in perfbench/README.md.
WORKLOADS = {
    # The simulate layer: Fourier sampling (projected_forms does the work),
    # then the bound-chain lemma suite (the isotypic einsum, second moments
    # and factor_stack).
    "simulate": [
        Op("simulate --group wreath:4 --k 2 --threads 1"),
        Op("simulate --group wreath:3 --k 2 --frames 5 --frame-kind fused "
           "--threads 2"),
        Op("simulate --group s4 --k 3 --threads 2"),
        Op("simulate --group psl2:7 --k 2"),
        Op("simulate --group wreath:3 --k 1 --t 3"),
        Op("simulate --group psl2:7 --k 1 --t 2"),
        # The lemma suite's runtime and its tightest cases depend on its
        # seed (the sampled tuples): wreath:3 k=2 took 0.15-19 s and
        # psl2:5 k=2 1-33 s over seeds 0-11.  Its seeds are pinned, so the
        # run time measures the code and not the draw; seeds 0 (slow) and 3
        # (fast) keep the dependence in view.
        Op("verify --suite lemmas --group wreath:3 --k 2", pinned=True),
        Op("verify --suite lemmas --group wreath:3 --k 2", seed=3,
           pinned=True),
        Op("verify --suite lemmas --group psl2:5 --k 2", seed=0, pinned=True),
        Op("verify --suite lemmas --group s4 --k 2", pinned=True),
        Op("verify --suite lemmas --group dihedral:4 --k 3", pinned=True),
    ],
    # Group construction, numeric irreps, character tables and closed-form
    # bounds; no sampling.
    "tables": [
        Op("bound --family group --group psl2:11"),
        Op("bound --family group --group sl2:7"),
        Op("bound --family group --group power:s3^3"),
        Op("chartable --group psl2:13"),
        Op("verify --suite tables --group psl2:11"),
        Op("verify --suite facts --group psl2:7"),
        *[Op(f"bound --family wreath --n {n}") for n in range(30, 41)],
        Op("bound --family psl2 --q 13 --k-max 10"),
        Op("bound --family power --group s4 --h '(1 2)' --n 10"),
        Op("bound --family gl --n 6 --p 2 --m 3"),
        Op("simulate --group wreath:5 --k 1", refusable=True),
        Op("verify --suite facts --group wreath:4", refusable=True),
    ],
}
def nproc():
    return len(os.sched_getaffinity(0))


def child_env(threads):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env.update({
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "HSPSIM_THREADS": str(threads),
        "HSPSIM_TIMESTAMP": "0", "PYTHONHASHSEED": "0",
    })
    return env


# ---------------------------------------------------------------------------
# children


def run_child(job, env, timeout):
    """Run one child; return (setup seconds or None, list of messages)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD)], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    setup, messages = None, []
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        for line in proc.stdout:
            try:
                msg = json.loads(line)
            except ValueError:  # stray output, e.g. from native code
                continue
            if "ready" in msg and setup is None:
                setup = time.perf_counter() - t0
            messages.append(msg)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return setup, messages


def run_pass(argvs, env, trace, deadline):
    job = {"ops": argvs, "trace": trace,
           "address_space_bytes": ADDRESS_SPACE_BYTES}
    setup, messages = run_child(job, env, deadline - time.perf_counter())
    ops = {m["op"]: m for m in messages if "op" in m}
    done = next((m["done"] for m in messages if "done" in m), None)
    return {"setup_s": setup, "ops": [ops.get(i) for i in range(len(argvs))],
            "done": done}


# ---------------------------------------------------------------------------
# checking reports


def flatten(text):
    """Leaves of a report: JSON by path, CSV by [row][column]."""
    try:
        obj = json.loads(text)
    except ValueError:
        obj = list(csv.reader(io.StringIO(text)))
    leaves = {}

    def walk(x, path):
        if isinstance(x, dict):
            for k, v in x.items():
                walk(v, f"{path}.{k}" if path else k)
        elif isinstance(x, list):
            for i, v in enumerate(x):
                walk(v, f"{path}[{i}]")
        else:
            leaves[path] = x
    walk(obj, "")
    return leaves


def _number(x):
    if isinstance(x, bool) or x is None:
        return None
    if isinstance(x, (int, float)):
        return complex(x)
    try:
        return complex(x.replace("i", "j")) if x[-1:] == "i" else complex(
            float(x))
    except (ValueError, AttributeError):
        return None


def same_leaf(a, b):
    na, nb = _number(a), _number(b)
    if na is None or nb is None:
        return a == b and type(a) is type(b)
    return abs(na - nb) <= REL_TOL * max(abs(na), abs(nb)) + ABS_TOL


def split_leaves(leaves):
    """(numeric leaves, text leaves); booleans and nulls count as numeric."""
    nums, text = {}, {}
    for path, v in leaves.items():
        numeric = v is None or isinstance(v, bool) or _number(v) is not None
        (nums if numeric else text)[path] = v
    return nums, text


def text_digest(text, skip=()):
    """Digest of the text leaves outside skip, compared exactly."""
    body = "\n".join(f"{p}={v}" for p, v in sorted(text.items())
                     if p not in skip)
    return hashlib.sha256(body.encode()).hexdigest()


def predicates(leaves):
    """What every report must show, recorded reference or not."""
    bad = [f"n_fail = {leaves['n_fail']}"] if leaves.get("n_fail", 0) else []
    for path in ("avg_l1_below_delta2", "mixed_copies.below_bound"):
        if leaves.get(path) is False:
            bad.append(f"{path} is false")
    return bad


def load_expected():
    """Per-workload expectations, aligned with WORKLOADS command by command."""
    expected = json.loads(EXPECTED.read_text())["workloads"]
    for name, ops in WORKLOADS.items():
        if [e["cmd"] for e in expected[name]] != [op.cmd for op in ops]:
            raise ValueError(f"{name}: commands differ from WORKLOADS; "
                             "re-record with perfbench/record.py")
    return expected


def check_op(op, expect, wseed, result):
    """Return (status, reason): status is 'ok', 'failed' or 'wrong'."""
    if result is None:
        return "failed", "no result (child killed or timed out)"
    if result["error"]:
        return "failed", result["error"]
    code = result["code"]
    if code not in op.codes():
        kind = "wrong" if code == 1 else "failed"
        return kind, f"exit {code}: {result['stderr'].strip()[-300:]}"
    if code != 0:
        return "ok", f"exit {code} (resource cap)"
    leaves = flatten(result["report"])
    bad = predicates(leaves)
    if expect and expect.get("numbers") is not None:
        nums, text = split_leaves(leaves)
        skip = () if wseed == expect["seed"] else set(expect["varying"])
        digest = expect["text_sha"] if wseed == expect["seed"] \
            else expect["text_sha_invariant"]
        if text_digest(text, skip) != digest:
            bad.append("text fields differ")
        for path, want in expect["numbers"].items():
            if path not in skip and not (path in nums
                                         and same_leaf(nums[path], want)):
                bad.append(f"{path}: got {nums.get(path)!r}, "
                           f"expected {want!r}")
                if len(bad) > 5:
                    break
    return ("wrong", "; ".join(bad)) if bad else ("ok", "")


# ---------------------------------------------------------------------------
# a run


def trace_metrics(traced, untraced):
    """Per-layer metrics of a traced pass, what it missed, its top span."""
    t = traced["done"]["trace"]
    metrics = {}
    for name, _targets, _hook in spans.LAYERS:
        metrics[f"{name}.self_s"] = (t["self_s"].get(name, 0.0), "s")
        metrics[f"{name}.calls"] = (t["calls"].get(name, 0), "count")
    for counter, unit in spans.COUNTERS.items():
        metrics[counter] = (t["counters"].get(counter, 0), unit)
    wall = traced["done"]["wall_s"]
    metrics["cli.unattributed_s"] = (wall - sum(t["self_s"].values()), "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced["done"]["wall_s"], "s")
    top = max(t["self_s"].items(), key=lambda kv: kv[1], default=(None, 0.0))
    return metrics, t["missing"], top


def end_to_end(passes, setups):
    dones = [p["done"] for p in passes]
    return {
        "wall_s": (statistics.median(d["wall_s"] for d in dones), "s"),
        "cpu_s": (statistics.median(d["cpu_s"] for d in dones), "s"),
        "peak_rss_mb": (statistics.median(d["peak_rss_mb"] for d in dones),
                        "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def measure(argvs, env, seconds, trace, deadline):
    """Setup samples and passes: untraced then traced, or untraced until
    `seconds` of measured time (at least one pass)."""
    setups, passes = [], []

    def probe_setups():  # half before the passes and half after
        for _ in range(SETUP_PROBES // 2):
            s, _msgs = run_child({"probe": True}, env,
                                 deadline - time.perf_counter())
            if s is None:
                raise SystemExit("perfbench: hspsim.cli failed to import")
            setups.append(s)

    probe_setups()
    if trace:
        passes = [run_pass(argvs, env, False, deadline),
                  run_pass(argvs, env, True, deadline)]
    else:
        measured = 0.0
        while not passes or (measured < seconds and time.perf_counter()
                             + measured / len(passes) < deadline - 10):
            passes.append(run_pass(argvs, env, False, deadline))
            if passes[-1]["done"] is None:
                break
            measured += passes[-1]["done"]["wall_s"]
    probe_setups()
    setups += [p["setup_s"] for p in passes if p["setup_s"] is not None]
    return setups, passes


def run(workload, wseed, seconds, trace, expected):
    """One run: returns (result line object, details for perfbench/out/)."""
    start = time.perf_counter()
    cores = nproc()
    threads = min(2, cores)
    ops = WORKLOADS[workload]
    argvs = [op.argv(wseed, threads) for op in ops]
    setups, passes = measure(argvs, child_env(threads), seconds, trace,
                             start + RUN_BUDGET_S)

    outcomes = []
    for p in passes:
        for op, argv, exp, res in zip(ops, argvs, expected[workload],
                                      p["ops"]):
            status, why = check_op(op, exp, wseed, res)
            outcomes.append({"cmd": shlex.join(argv), "status": status,
                             "why": why,
                             "seconds": (res or {}).get("seconds")})
    if trace:
        for argv, a, b in zip(argvs, passes[0]["ops"], passes[1]["ops"]):
            if a and b and a["report"] != b["report"]:
                outcomes.append({"cmd": shlex.join(argv), "status": "wrong",
                                 "why": "traced report differs from untraced"})
    wrong = [o for o in outcomes if o["status"] == "wrong"]
    failed = [o for o in outcomes if o["status"] != "ok"]
    complete = [p for p in passes if p["done"] is not None]
    attempted = len(ops) * len(passes)

    details = {"workload": workload, "seed": wseed, "trace": trace,
               "seconds": seconds, "nproc": cores, "hspsim_threads": threads,
               "address_space_bytes": ADDRESS_SPACE_BYTES,
               "git_revision": git_revision(),
               "commands": [shlex.join(a) for a in argvs],
               "env": complete[0]["done"]["env"] if complete else None,
               "setup_samples_s": setups, "passes": len(passes),
               "fail_ratio": f"{len(failed)}/{attempted}",
               "outcomes": outcomes}
    metrics = {}
    if trace and len(complete) == 2:
        metrics, absent, top = trace_metrics(passes[1], passes[0])
        details.update(absent=absent, top_self_span=top)
    elif complete and not trace:
        metrics = end_to_end(complete, setups)
        # printed and recorded, but not a gated metric: one ~10-20 s command
        # spreads too much between runs on a small shared machine
        details["slowest_op_s"] = statistics.median(
            max(o["seconds"] for o in p["ops"] if o) for p in complete)
    details["metrics"] = {k: v for k, (v, _) in metrics.items()}
    details["elapsed_s"] = time.perf_counter() - start
    return {"correct": not wrong and bool(metrics),
            "attempted": attempted, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}, details


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             timeout=10, capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def summarize(result, details):
    lines = [f"workload {details['workload']}  seed {details['seed']}  "
             f"trace {details['trace']}  passes {details['passes']}  "
             f"nproc {details['nproc']}  ops/run {result['attempted']}",
             f"  fail_ratio      {details['fail_ratio']} ops  "
             f"correct {result['correct']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    if "slowest_op_s" in details:
        lines.append(f"  {'slowest_op_s (not gated)':<34} "
                     f"{details['slowest_op_s']:>14.6g} s")
    for o in details["outcomes"]:
        if o["status"] != "ok":
            lines.append(f"  {o['status'].upper()}: {o['cmd']}: {o['why']}")
    if details.get("top_self_span"):
        name, s = details["top_self_span"]
        lines.append(f"  top self-time span: {name} ({s:.3f} s)")
    for name, why in (details.get("absent") or {}).items():
        lines.append(f"  WARNING absent: {name}: {why}")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed, added to every unpinned hspsim --seed")
    p.add_argument("--seconds", type=int, default=10,
                   help="minimum measured time; whole passes are repeated")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "hspsim" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no hspsim source under {ROOT / 'src'}\n")
        return 2
    try:
        expected = load_expected()
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write(f"perfbench: cannot use {EXPECTED.name}: {e}\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, details = run(name, args.seed, args.seconds, args.trace,
                              expected)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json") \
            .write_text(json.dumps({"result": result, **details}, indent=1))
        print(summarize(result, details), flush=True)
        if not result["metrics"]:
            sys.stderr.write(f"perfbench: {name}: no complete pass\n")
            return 1
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

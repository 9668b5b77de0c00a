"""Record perfbench/expected.json: each command's reference outcome.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record.py

For every workload it runs one untraced pass at workload seed 0.  For each
command that exits 0 there, it stores the numeric leaves of the report (JSON
by path, CSV by cell) and a digest of its text leaves, to compare at seed 0.
It then reruns each such command whose hspsim seed follows the workload seed
at seeds 1..9 (1..39 when it takes under a second) and lists the leaves that
differ from seed 0 as varying; every other leaf is compared at every seed.
Commands that fail at seed 0 get no values, and are checked only by exit
code and by the outcome predicates in run.py.
"""
from __future__ import annotations

import json
import sys
import time

import run

SEEDS = tuple(range(40))
FULL_SEEDS = 10      # every command is recorded at seeds 0..9
CHEAP_S = 1.0        # commands faster than this at seed 0 get all SEEDS


def expect_from(leaves_by_seed):
    """Expectations from one report's leaves, the first at workload seed 0."""
    first = leaves_by_seed[0]
    varying = sorted(path for path, v in first.items()
                     if not all(path in other and run.same_leaf(v, other[path])
                                for other in leaves_by_seed[1:]))
    nums, text = run.split_leaves(first)
    return {"numbers": nums, "varying": varying,
            "text_sha": run.text_digest(text),
            "text_sha_invariant": run.text_digest(text, set(varying))}


def record_workload(name, env, threads):
    ops = run.WORKLOADS[name]
    base = run.run_pass([op.argv(0, threads) for op in ops], env, False,
                        time.perf_counter() + 900)["ops"]
    ok = [i for i, r in enumerate(base)
          if r and not r["error"] and r["code"] == 0]
    leaves = {i: [run.flatten(base[i]["report"])] for i in ok}
    # Only commands whose inputs follow the workload seed can vary with it.
    for wseed in SEEDS[1:]:
        todo = [i for i in ok if not ops[i].pinned and (
            wseed < FULL_SEEDS or base[i]["seconds"] < CHEAP_S)]
        if not todo:
            break
        got = run.run_pass([ops[i].argv(wseed, threads) for i in todo], env,
                           False, time.perf_counter() + 900)["ops"]
        for i, r in zip(todo, got):
            if not r or r["error"] or r["code"] != 0:
                raise SystemExit(f"{ops[i].cmd} failed at workload seed "
                                 f"{wseed}: {r and (r['error'] or r['code'])}")
            leaves[i].append(run.flatten(r["report"]))
    entries = []
    for i, op in enumerate(ops):
        entry = {"cmd": op.cmd, "seed": 0, "numbers": None}
        if i in ok:
            entry.update(expect_from(leaves[i]))
            entry["seeds_compared"] = len(leaves[i])
        r = base[i]
        outcome = ("no result" if r is None
                   else r["error"] or f"exit {r['code']}")
        print(f"{name}: {op.cmd}: {outcome}, "
              f"{len(entry.get('varying', ()))} leaves vary over "
              f"{entry.get('seeds_compared', 0)} seeds", flush=True)
        entries.append(entry)
    return entries


def main():
    threads = min(2, run.nproc())
    env = run.child_env(threads)
    out = {"revision": run.git_revision(),
           "rel_tol": run.REL_TOL, "abs_tol": run.ABS_TOL,
           "workloads": {name: record_workload(name, env, threads)
                         for name in run.WORKLOADS}}
    run.EXPECTED.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

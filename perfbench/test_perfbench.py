"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

REPEATED_COUNTS = ("simulate.tuples", "frames.vectors",
                   "groups.table_entries", "simulate.mixed_trace_eigensolves")


def _pass(argvs, trace):
    env = run.child_env(min(2, run.nproc()))
    p = run.run_pass(argvs, env, trace, time.perf_counter() + 170)
    assert p["done"] is not None, p
    return p


def test_counts_repeat_and_reports_match_untraced():
    # every sampling command but the 20 s wreath:4 one
    threads = min(2, run.nproc())
    argvs = [op.argv(0, threads) for op in run.WORKLOADS["simulate"][1:6]]
    plain = _pass(argvs, False)
    first, second = _pass(argvs, True), _pass(argvs, True)
    t1, t2 = first["done"]["trace"], second["done"]["trace"]
    assert t1["missing"] == {}
    for name in REPEATED_COUNTS:
        assert t1["counters"][name] > 0
        assert t1["counters"][name] == t2["counters"][name], name
    calls = "simulate.projected_forms"
    assert t1["calls"][calls] > 0 and t1["calls"][calls] == t2["calls"][calls]
    for a, b in zip(plain["ops"], first["ops"]):
        assert a["code"] == 0 and a["report"] == b["report"]


def test_self_time_subtracts_children_once_across_threads():
    rec = spans.Recorder()

    def child(_):
        rec.call("child", time.sleep, (0.2,), {})

    def parent():
        here = rec.current()
        workers = [threading.Thread(target=rec.adopt, args=(here, child, None))
                   for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
            assert not w.is_alive()
        time.sleep(0.2)

    rec.call("parent", parent, (), {})
    assert rec.calls == {"parent": 1, "child": 2}
    # Two overlapping 0.2 s children cover about 0.2 s of the parent's 0.4 s:
    # about 0 if they were subtracted twice, 0.4 if not at all.
    assert 0.12 < rec.self_s["parent"] < 0.32
    assert 0.38 < rec.self_s["child"] < 0.6


def test_missing_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(spans, "LAYERS",
                        (("gone.layer", ["hspsim.nowhere:fn"], None),))
    monkeypatch.setattr(spans, "POOL_TARGET", "hspsim.nowhere:parallel_map")
    missing = spans.install(spans.Recorder())
    assert set(missing) == {"gone.layer", "pool"}


def test_broken_counter_hook_is_recorded_not_raised():
    rec = spans.Recorder()

    def hook(args, kwargs, pre, result):
        return {"x.count": result.missing_attribute}

    wrapped = spans._wrap(rec, "x", lambda v: v + 1, (None, hook))
    assert wrapped(1) == 2 and wrapped(2) == 3
    assert set(rec.broken) == {"x"} and rec.calls["x"] == 2


def test_outcomes():
    op = run.Op("verify --suite tables --group s3")
    cap = run.Op("simulate --group wreath:5 --k 1", refusable=True)
    empty = run.text_digest({})
    expect = {"seed": 0, "numbers": {"n_fail": 0, "x": 1.0}, "varying": ["x"],
              "text_sha": empty, "text_sha_invariant": empty}

    def status(op, expect, wseed, code, report="", error=None):
        result = {"error": error, "stderr": "", "seconds": 1.0,
                  "code": code, "report": report}
        return run.check_op(op, expect, wseed, result)[0]

    assert status(op, expect, 0, 0, '{"n_fail": 0, "x": 1.0000000000001}') \
        == "ok"
    assert status(op, expect, 0, 0, '{"n_fail": 0, "x": 2}') == "wrong"
    assert status(op, expect, 5, 0, '{"n_fail": 0, "x": 2}') == "ok"
    assert status(op, expect, 0, 1, '{"n_fail": 1}') == "wrong"
    assert status(op, expect, 0, 69) == "failed"
    assert status(cap, None, 0, 69) == "ok"
    assert status(cap, None, 0, None, error="MemoryError: ") == "failed"
    assert run.check_op(op, expect, 0, None)[0] == "failed"

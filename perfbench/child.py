"""One benchmark child: import hspsim.cli, then run one pass of a command list.

Reads a job as JSON on stdin and writes JSON lines on stdout:

* ``{"ready": ...}`` once ``hspsim.cli`` is imported (the parent times this);
* one ``{"op": i, ...}`` line per command, as each finishes, so a kill
  mid-pass still leaves the finished commands on record;
* ``{"done": ...}`` with the pass's wall time, CPU time, peak RSS, the
  traced totals when tracing is on, and the environment.

Each command goes through ``hspsim.cli.main(argv)`` in this process, one
after another (a closed loop with one client).  Its stdout is the report.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        error = None
    except SystemExit as e:  # argparse refusals
        code = e.code if isinstance(e.code, int) else 64
        error = None
    except Exception as e:  # MemoryError and any traceback count as failed
        code = None
        error = f"{type(e).__name__}: {e}"
        err.write(traceback.format_exc(limit=4))
    seconds = time.perf_counter() - t0
    return {"code": code, "error": error, "seconds": seconds,
            "report": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def _environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "HSPSIM_THREADS", "HSPSIM_TIMESTAMP")},
    }


def main():
    job = json.loads(sys.stdin.read())
    limit = job.get("address_space_bytes")
    if limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    from hspsim.cli import main as cli_main
    _emit({"ready": True})
    if job.get("probe"):
        return 0

    rec = missing = None
    if job.get("trace"):
        import spans
        rec = spans.Recorder()
        missing = spans.install(rec)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for i, argv in enumerate(job["ops"]):
        _emit({"op": i, **_run_op(cli_main, argv)})
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    done = {
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if rec is not None:
        done["trace"] = {"calls": dict(rec.calls), "self_s": dict(rec.self_s),
                         "counters": dict(rec.counters),
                         "missing": {**missing, **rec.broken}}
    _emit({"done": done})
    return 0


if __name__ == "__main__":
    sys.exit(main())

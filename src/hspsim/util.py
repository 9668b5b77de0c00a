"""Shared helpers: deterministic reductions, Kronecker products, number
formatting, and the resource policy."""
from __future__ import annotations

import datetime
import os
import time

import numpy as np

TIMESTAMP_ENV = "HSPSIM_TIMESTAMP"


# Each site that allocates or loops estimates, in place and before it
# starts, what it will hold and do, and asks require().  Bytes beyond the
# interpreter, numpy and OpenBLAS: under a 1 GiB RLIMIT_AS the class
# constants of dihedral:952 (8 r^3 = 879 MB) fit, dihedral:954's do not.
MEMORY_LIMIT = 840 << 20
# Multiply-adds: psl2:13's numeric irreps (2.8e9) take 3.3 s in BLAS, and
# wreath:4's all-pairs homomorphism check (7.7e9, a minute) is refused.
WORK_LIMIT = 5e9
# A Python-level loop step with its small numpy calls takes 25-90 us (the
# facts suite on cyclic:316, 2e5 steps, 4.9 s): a minute of steps at most
STEP_WORK = 3_000


class ResourceCap(ValueError):
    """A computation refused by require() before its memory or work is
    spent, so callers can report it and go on."""


def require(what, bytes=0, work=0):
    """Refuse `what` with ResourceCap unless its estimated bytes and
    multiply-adds fit MEMORY_LIMIT and WORK_LIMIT."""
    for need, limit, unit in ((bytes, MEMORY_LIMIT, "bytes"),
                              (work, WORK_LIMIT, "multiply-adds")):
        if need > limit:
            raise ResourceCap(f"{what} needs {need:.3g} {unit} "
                              f"(limit {limit:.3g})")


def pairwise_sum(values):
    """Sum a list of numbers/arrays by balanced pairing.

    The reduction tree depends only on len(values), so results are
    bit-identical no matter how the values were produced.
    """
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def kron_stack(A, B):
    """Per-element Kronecker products of two stacks (g, a, a), (g, b, b)."""
    n, d = A.shape[0], A.shape[1] * B.shape[1]
    return np.einsum("gij,gkl->gikjl", A, B).reshape(n, d, d)


def kron_apply(blocks, V):
    """(A_1 (x) ... (x) A_k) @ V, one register at a time, for r_i x d_i
    blocks and V of shape (D, m) or (D,), D = prod d_i, with rows in
    np.kron order; the result has prod r_i rows and no D x D matrix is built.

    The blocks may instead be stacks (c, r_i, d_i) of one length c: the
    result is then the c products, shape (c, prod r_i, *V.shape[1:]), each
    made of the same gemm calls as its unstacked product."""
    lead = np.shape(blocks[0])[:-2]
    cur = np.broadcast_to(V, lead + np.shape(V))
    post = np.size(V)
    pre = 1
    for A in blocks:
        post //= A.shape[-1]
        cur = A[..., None, :, :] @ cur.reshape(*lead, pre, A.shape[-1], post)
        pre *= A.shape[-2]
    return cur.reshape(lead + (pre,) + np.shape(V)[1:])


def fmt_float(x):
    """Render a real number at 12 significant digits."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.12g}"


def fmt_complex(z):
    """Render a complex number as 'a+bi' at 12 significant digits."""
    z = complex(z)
    re, im = fmt_float(z.real), fmt_float(z.imag)
    sign = "+" if not im.startswith("-") else ""
    return f"{re}{sign}{im}i"


def dumps_report(obj, indent=2):
    """Serialize nested dict/list/scalars to JSON text.

    Floats are printed at 12 significant digits; dict insertion order is
    preserved.  Hand-rolled because json.dumps offers no float formatting.
    """
    out = []
    _emit(obj, out, indent, 0)
    return "".join(out) + "\n"


def _emit(obj, out, indent, level):
    pad = " " * (indent * (level + 1))
    end = " " * (indent * level)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f'{pad}"{k}": ')
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        out.append(f'"{fmt_complex(obj)}"')
    else:
        text = str(obj).replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'"{text}"')


# Nothing in hspsim calls this: perfbench/spans.py hooks it by name
# (POOL_TARGET) and reports it missing otherwise.  It goes with spans.py
# (ROADMAP item 5).
def parallel_map(fn, items, threads=1):
    """[fn(x) for x in items]; threads is accepted and ignored."""
    return [fn(x) for x in items]


def timestamp():
    """UTC ISO timestamp; frozen by SOURCE_DATE_EPOCH / HSPSIM_TIMESTAMP."""
    raw = os.environ.get(TIMESTAMP_ENV) or os.environ.get("SOURCE_DATE_EPOCH")
    t = int(raw) if raw and raw.strip() else int(time.time())
    return datetime.datetime.fromtimestamp(t, datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")

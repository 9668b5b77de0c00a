"""Shared helpers: verify check entries, deterministic reductions, Kronecker
products, number formatting, and the resource policy."""
from __future__ import annotations

import datetime
import os
import time

import numpy as np

TIMESTAMP_ENV = "HSPSIM_TIMESTAMP"


# Each site that allocates or loops estimates, in place and before it
# starts, what it will hold and do, and asks require().  Bytes beyond the
# interpreter, numpy and OpenBLAS: under a 1 GiB RLIMIT_AS a process that
# has imported hspsim.cli maps 921 MiB more in one array, and 840 leave 81
# of them to the small objects no estimate counts.
MEMORY_LIMIT = 840 << 20
# Multiply-adds: psl2:13's numeric irreps (2.8e9) take 3.3 s in BLAS, and
# wreath:4's all-pairs homomorphism check (7.7e9, a minute) is refused.
WORK_LIMIT = 5e9
# A Python-level loop step with its small numpy calls takes 25-90 us (the
# facts suite on cyclic:316, 2e5 steps, 4.9 s): a minute of steps at most
STEP_WORK = 3_000
# Every blocked loop takes max(1, BLOCK_BYTES // bytes_per_row) rows; the
# facts run on psl2:7 peaks 2.5 MB lower than in 4 MiB blocks, no slower.
BLOCK_BYTES = 1 << 20


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


def check_entry(name, ok, lhs=None, rhs=None, detail=None):
    """One verify check: {check, status, lhs, rhs, detail}, status PASS if
    ok, FAIL if not, WARN if ok is None; lhs, rhs and detail only if given."""
    given = {"lhs": lhs, "rhs": rhs, "detail": detail}
    return {"check": name,
            "status": "WARN" if ok is None else "PASS" if ok else "FAIL",
            **{key: value for key, value in given.items() if value is not None}}


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
    cur = np.reshape(V, (1,) * len(lead) + np.shape(V))  # matmul broadcasts
    post = np.size(V)
    pre = 1
    for A in blocks:
        post //= A.shape[-1]
        cur = A[..., None, :, :] @ cur.reshape(
            *cur.shape[:len(lead)], pre, A.shape[-1], post)
        pre *= A.shape[-2]
    return cur.reshape(lead + (pre,) + np.shape(V)[1:])


def fmt_float(x):
    """Render a real number at 12 significant digits."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.12g}"


def fmt_complexes(values):
    """Render each complex number of a 1-D array as 'a+bi', each part at
    12 significant digits by fmt_float's rule, read in one tolist()."""
    z = np.asarray(values, dtype=np.complex128)
    # -0.0 + 0.0 is 0.0; '+' signs the imaginary part, nan as '+nan'
    return [f"{a:.12g}{b:+.12g}i" for a, b in
            zip((z.real + 0.0).tolist(), (z.imag + 0.0).tolist())]


def dumps_report(obj):
    """Serialize nested dict/list/scalars to JSON text, indented by two.

    Floats are printed at 12 significant digits, a non-finite one as the
    string "inf", "-inf" or "nan" (JSON has no literal for it); dict
    insertion order is preserved.  Hand-rolled because json.dumps offers
    no float formatting.  A list or tuple of str only, such as a report's
    labels or a character table's formatted rows, is written in one join.
    """
    out = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out, level):
    pad = "  " * (level + 1)
    end = "  " * level
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f'{pad}"{k}": ')
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        if all(type(v) is str for v in obj):
            # escaped one by one only if one needs it
            if any("\\" in v or '"' in v for v in obj):
                obj = list(map(_escape, obj))
            sep = '",\n' + pad + '"'
            out += ("[\n" + pad + '"', sep.join(obj), '"\n' + end + "]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        text = fmt_float(obj)
        out.append(text if np.isfinite(obj) else f'"{text}"')
    elif isinstance(obj, (complex, np.complexfloating)):
        out.append(f'"{fmt_complexes([obj])[0]}"')
    else:
        out.append('"' + _escape(str(obj)) + '"')


def _escape(text):
    """text with its backslashes and quotes escaped, for a JSON string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


# Nothing in hspsim calls this: perfbench/spans.py hooks it by name
# (POOL_TARGET) and reports it missing otherwise.  It goes when spans.py
# drops that hook (ROADMAP item 1).
def parallel_map(fn, items, threads=1):
    """[fn(x) for x in items]; threads is accepted and ignored."""
    return [fn(x) for x in items]


def timestamp():
    """UTC ISO timestamp; frozen by HSPSIM_TIMESTAMP, else SOURCE_DATE_EPOCH.

    A frozen value that is not whole seconds since 1970 of a date in years
    1 to 9999 is a ValueError that names its variable."""
    name = TIMESTAMP_ENV if os.environ.get(TIMESTAMP_ENV) \
        else "SOURCE_DATE_EPOCH"
    raw = os.environ.get(name, "")
    try:
        t = int(raw) if raw.strip() else int(time.time())
        when = datetime.datetime.fromtimestamp(t, datetime.timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ValueError(f"environment variable {name}: must be whole "
                         "seconds since 1970 of a date in years 1 to 9999, "
                         f"got {raw!r}") from None
    return when.strftime("%Y-%m-%dT%H:%M:%SZ")

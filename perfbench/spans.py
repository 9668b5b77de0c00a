"""Spans around calls into hspsim's layers, installed from outside the package.

The benchmark's traced run wraps the public entry points of each layer
(groups, irreps, chartable, fourier, frames, simulate, bounds, cli) with a
recorder.  Nothing under ``src/`` knows about it: the wrappers replace each
function at every place hspsim binds it, so ``from .fourier import
factor_stack`` inside ``simulate`` is wrapped as well as ``fourier`` itself.

A span's self time is its duration minus the part of that interval covered
by its child spans.  Span stacks are per thread; work that
``parallel_map`` hands to pool threads is parented to the span that called
``parallel_map``, so overlapping pool-thread children are counted once.
"""
from __future__ import annotations

import collections
import functools
import importlib
import sys
import threading
import time


class Recorder:
    """Per-name totals of calls, self time and counters, kept in memory."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = collections.Counter()
        self.self_s = collections.Counter()
        self.counters = collections.Counter()
        self.broken = {}  # span name -> why its counter hook stopped working

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack and stack[-1] is not None and stack[-1].name == name:
            return fn(*args, **kwargs)  # re-entry: fold into the outer span
        span = _Span(name, stack[-1] if stack else None)
        stack.append(span)
        span.t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            covered = _union_length(span.children, span.t0, t1)
            with self._lock:
                self.calls[name] += 1
                self.self_s[name] += (t1 - span.t0) - covered
                if span.parent is not None:
                    span.parent.children.append((span.t0, t1))

    def adopt(self, parent, fn, x):
        """Run fn(x) with parent as the current span of this thread."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(x)
        finally:
            stack.pop()

    def hook(self, name, fn, *args):
        """Run a counter hook; a failing hook is recorded, never raised."""
        if fn is None or name in self.broken:
            return None
        try:
            return fn(*args)
        except Exception as e:  # a later hspsim changed what the hook reads
            self.broken[name] = f"counter hook: {type(e).__name__}: {e}"
            return None

    def count(self, amounts):
        with self._lock:
            for key, amount in amounts.items():
                self.counters[key] += int(amount)


class _Span:
    __slots__ = ("name", "parent", "t0", "children")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.t0 = 0.0
        self.children = []


def _union_length(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


# ---------------------------------------------------------------------------
# what is wrapped: (span name, "module:qualname" targets, counter hook)
#
# A counter hook gets (args, kwargs, state_before_call, result) and returns
# {counter name: amount}; its "pre" part reads state before the call.


def _table_pre(args, kwargs):
    return getattr(args[0], "_table", None) is None


def _table_count(args, kwargs, pre, result):
    return {"groups.table_entries": args[0].order ** 2 if pre else 0}


def _check_count(args, kwargs, pre, result):
    first = args[0]
    if hasattr(first, "mats"):  # hom_unitarity_error(rho, pairs=None)
        pairs = kwargs.get("pairs", args[1] if len(args) > 1 else None)
        n = first.group.order if pairs is None else 1
        return {"irreps.check_bytes": n * n * first.degree ** 2 * 16}
    irreps = kwargs.get("irreps", args[1] if len(args) > 1 else [])
    degs = [r.degree for r in irreps]
    return {"irreps.check_bytes": sum(a * a * b * b * 16
                                      for a in degs for b in degs)}


def _factor_stack_count(args, kwargs, pre, result):
    return {"fourier.factor_stack_bytes": result.nbytes}


def _frame_count(args, kwargs, pre, result):
    return {"frames.vectors": result.size}


def _space_count(args, kwargs, pre, result):
    return {"simulate.tuples": len(args[0].tuples)}


def _forms_count(args, kwargs, pre, result):
    space, ti = args[0], args[1]
    return {"simulate.projected_forms_bytes": space.dims[ti] ** 2 * 16}


def _mixed_count(args, kwargs, pre, result):
    irreps = args[1] if len(args) > 1 else kwargs["irreps"]
    t = args[3] if len(args) > 3 else kwargs["t"]
    return {"simulate.mixed_trace_eigensolves": len(irreps) ** t}


LAYERS = (
    ("groups.table", ["hspsim.groups:FiniteGroup.table"],
     (_table_pre, _table_count)),
    ("groups.classes", ["hspsim.groups:FiniteGroup.conjugacy_classes"], None),
    ("groups.make_group", ["hspsim.groups:make_group"], None),
    ("irreps.build", ["hspsim.irreps:irreps_for",
                      "hspsim.irreps:irreps_symmetric",
                      "hspsim.irreps:irreps_wreath",
                      "hspsim.irreps:irreps_cyclic",
                      "hspsim.irreps:irreps_generic"], None),
    ("irreps.check", ["hspsim.irreps:hom_unitarity_error",
                      "hspsim.irreps:schur_orthogonality_error"],
     (None, _check_count)),
    ("irreps.hook_length", ["hspsim.irreps:hook_length_degree"], None),
    ("chartable.table", ["hspsim.chartable:best_character_table",
                         "hspsim.chartable:character_table_numeric"], None),
    ("fourier.factor_stack", ["hspsim.fourier:factor_stack"],
     (None, _factor_stack_count)),
    ("fourier.qft", ["hspsim.fourier:qft", "hspsim.fourier:rank_r"], None),
    ("fourier.checks", ["hspsim.fourier:check_likemub",
                        "hspsim.fourier:check_projection_length",
                        "hspsim.fourier:check_expected_multiplicity"], None),
    ("frames.frame", ["hspsim.frames:random_frame"], (None, _frame_count)),
    ("simulate.space", ["hspsim.simulate:RegisterSpace.__init__"],
     (None, _space_count)),
    ("simulate.projected_forms",
     ["hspsim.simulate:RegisterSpace.projected_forms"], (None, _forms_count)),
    ("simulate.avg_tv", ["hspsim.simulate:avg_tv_over_conjugates"], None),
    ("simulate.lemma", ["hspsim.simulate:lemma_suite"], None),
    ("simulate.second_moment", ["hspsim.simulate:second_moment_check"], None),
    ("simulate.q_subset", ["hspsim.simulate:q_subset_values"], None),
    ("simulate.roundtrip", ["hspsim.simulate:fourier_roundtrip_error"], None),
    ("simulate.mixed_trace",
     ["hspsim.simulate:mixed_conjugate_trace_distance"], (None, _mixed_count)),
    ("bounds.family", ["hspsim.bounds:wreath_bound", "hspsim.bounds:psl_bound",
                       "hspsim.bounds:direct_power_bound",
                       "hspsim.bounds:gl_bound", "hspsim.bounds:group_report"],
     None),
    ("bounds.params", ["hspsim.bounds:params_from_irreps"], None),
    ("cli.render", ["hspsim.cli:render_report", "hspsim.cli:dumps_report"],
     None),
)

# counters, filled by the hooks above, and their units
COUNTERS = {
    "groups.table_entries": "count",
    "irreps.check_bytes": "bytes",
    "fourier.factor_stack_bytes": "bytes",
    "frames.vectors": "count",
    "simulate.tuples": "count",
    "simulate.projected_forms_bytes": "bytes",
    "simulate.mixed_trace_eigensolves": "count",
}

# parallel_map hands work to pool threads; its callers become their parents
POOL_TARGET = "hspsim.util:parallel_map"


def _resolve(target):
    mod_name, _, qual = target.partition(":")
    owner = importlib.import_module(mod_name)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _rebind(owner, attr, orig, new):
    """Replace orig by new on its owner and wherever hspsim imported it."""
    setattr(owner, attr, new)
    if isinstance(owner, type):
        return
    for name, mod in list(sys.modules.items()):
        if name.startswith("hspsim") and mod is not None:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)


def _wrap(rec, name, fn, hook):
    pre, count = hook if hook else (None, None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = rec.hook(name, pre, args, kwargs)
        result = rec.call(name, fn, args, kwargs)
        amounts = rec.hook(name, count, args, kwargs, state, result)
        if amounts:
            rec.count(amounts)
        return result
    return wrapper


def install(rec):
    """Wrap every layer target; return {span name: reason} for missing ones.

    A target that a later version of hspsim renamed or removed is reported,
    never raised, so the benchmark keeps running and marks the metric absent.
    """
    missing = {}
    for name, targets, hook in LAYERS:
        for target in targets:
            try:
                owner, attr, fn = _resolve(target)
            except (ImportError, AttributeError) as e:
                missing.setdefault(name, []).append(f"{target}: {e}")
                continue
            _rebind(owner, attr, fn, _wrap(rec, name, fn, hook))
    try:
        owner, attr, pmap = _resolve(POOL_TARGET)
    except (ImportError, AttributeError) as e:
        missing["pool"] = [f"{POOL_TARGET}: {e}"]
    else:
        @functools.wraps(pmap)
        def parallel_map(fn, items, threads=1):
            parent = rec.current()
            return pmap(functools.partial(rec.adopt, parent, fn), items,
                        threads)
        _rebind(owner, attr, pmap, parallel_map)
    return {name: "; ".join(why) for name, why in missing.items()}

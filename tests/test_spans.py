"""perfbench/spans.py hooks hspsim functions by name, and its traced run
reports a name it cannot find instead of failing; here every name must
resolve, so renaming a hooked function fails the tests."""
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TARGETS = [target for _, targets, _ in spans.LAYERS for target in targets]


@pytest.mark.parametrize("target", [*TARGETS, spans.POOL_TARGET])
def test_every_span_target_resolves(target):
    _, _, fn = spans._resolve(target)
    assert callable(fn)

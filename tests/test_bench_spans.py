"""The traced benchmark names library functions by module and attribute;
every name must still resolve, or ``bench/run.py --trace 1`` fails."""

import importlib.util
from pathlib import Path

import tolerant  # noqa: F401  (imports every module the targets name)

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_and_count_target_resolves():
    spans = load_spans()
    targets = spans.SPAN_TARGETS + spans.COUNT_TARGETS
    assert targets
    for name, module, path in targets:
        assert callable(spans._resolve(module, path)), name

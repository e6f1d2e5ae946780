"""Span recorder that times the library's public functions from outside.

The package binds names directly (``from .resultant import resultant_in_u``),
so patching a function only in its defining module would miss most calls.
``Recorder.install`` therefore replaces every binding of the same function
object, in every ``tolerant`` module namespace and class dictionary, and
``Recorder.remove`` puts each original back.  Spans are kept in memory as
(name, start, end, parent index) and written out by the caller.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (span name, module, attribute path).  The name prefix is the module, with
# `_rings` written `rings` because metric names start with a letter.
SPAN_TARGETS = [
    ("parsing.parse_polynomial", "tolerant.parsing", "parse_polynomial"),
    ("parsing.polynomial_text", "tolerant.parsing", "polynomial_text"),
    ("cli.main", "tolerant.cli", "main"),
    ("cli.report_to_dict", "tolerant.cli", "report_to_dict"),
    ("invariants.build_report", "tolerant.invariants", "build_report"),
    ("invariants.tol", "tolerant.invariants", "tol"),
    ("invariants.dupl", "tolerant.invariants", "dupl"),
    ("invariants.gdisc", "tolerant.invariants", "gdisc"),
    ("invariants.in_T", "tolerant.invariants", "in_T"),
    ("invariants.tol_from_factorization", "tolerant.invariants",
     "tol_from_factorization"),
    ("invariants.homothety_exponent", "tolerant.invariants",
     "homothety_exponent"),
    ("factor.squarefree_decomposition", "tolerant.factor",
     "squarefree_decomposition"),
    ("factor.factor_prime_field", "tolerant.factor", "factor_prime_field"),
    ("factor.Factorization.pairwise_coprime", "tolerant.factor",
     "Factorization.pairwise_coprime"),
    ("resultant.resultant_in_u", "tolerant.resultant", "resultant_in_u"),
    ("resultant.sylvester_resultant", "tolerant.resultant",
     "sylvester_resultant"),
    ("resultant.discriminant", "tolerant.resultant", "discriminant"),
    ("rings.bareiss_det", "tolerant._rings", "bareiss_det"),
    ("poly.Polynomial.gcd", "tolerant.poly", "Polynomial.gcd"),
    ("poly.Polynomial.hasse_derivative", "tolerant.poly",
     "Polynomial.hasse_derivative"),
]

# Called too often for a span each: counted only.
_BOXED_OPS = ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
              "__truediv__", "__rtruediv__", "__pow__")
COUNT_TARGETS = [("poly.Polynomial.__mul__.calls", "tolerant.poly",
                  "Polynomial.__mul__")] + [
    ("field.FieldElement.ops", "tolerant.field", f"FieldElement.{op}")
    for op in _BOXED_OPS]


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


def _namespaces():
    """Every module and class dictionary the package defines."""
    for name, module in list(sys.modules.items()):
        if name != "tolerant" and not name.startswith("tolerant."):
            continue
        yield module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                yield value


def _bindings(target):
    """(owner, attribute) for every binding of `target` in the package."""
    return [(owner, attr) for owner in _namespaces()
            for attr, value in list(vars(owner).items()) if value is target]


class Recorder:
    """Spans and counts for one traced run; install, run, remove."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, size]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            size = len(args[0]) if name == "rings.bareiss_det" else 0
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1, size])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("recorder already installed")
        for name, module, path in SPAN_TARGETS + COUNT_TARGETS:
            original = _resolve(module, path)
            make = self._count if (name, module, path) in COUNT_TARGETS else self._span
            wrapper = make(name, original)
            for owner, attr in _bindings(original):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def leftover_wrappers() -> list[str]:
    """Bindings in the package that still hold a recorder wrapper."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in _namespaces()
            for attr, value in list(vars(owner).items())
            if hasattr(value, "__bench_wrapped__")]


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per span name: calls, inclusive seconds of outermost spans (`s`),
    self seconds (`self_s`); plus matrix-order sums and the determinant time
    split by the resultant that called it."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for name, _, _ in SPAN_TARGETS:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for caller in ("resultant.resultant_in_u", "resultant.sylvester_resultant"):
        out[f"{caller}.dim_sum"] = 0
    out["rings.bareiss_det.u.s"] = 0.0
    out["rings.bareiss_det.scalar.s"] = 0.0
    for i, (name, start, end, parent, size) in enumerate(spans):
        duration = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += duration - child[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.s"] += duration
        if name == "rings.bareiss_det" and parent >= 0:
            caller = spans[parent][0]
            if caller in ("resultant.resultant_in_u",
                          "resultant.sylvester_resultant"):
                out[f"{caller}.dim_sum"] += size
                kind = "u" if caller == "resultant.resultant_in_u" else "scalar"
                out[f"rings.bareiss_det.{kind}.s"] += duration
    for name, _, _ in COUNT_TARGETS:
        out[name] = counts.get(name, 0)
    return out

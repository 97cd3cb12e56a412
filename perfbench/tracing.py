"""Spans and profiler counts for the traced benchmark run.

The traced run is separate from the timed runs. Spans come from the
benchmark's own replay code, one around each call into a heckeo layer;
nothing inside ``src/`` is instrumented. Call counts come from the stdlib
profiler, which is attached only for one pass of the traced run.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import pstats
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans kept in memory and written out once, when the run ends.

    A span records its name, start, end, parent span and request id. A span
    without a parent starts a new request; its children share its id.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        request = idx if parent is None else self.spans[parent]["request"]
        rec = {"name": name, "start": time.perf_counter() - self.t0, "end": None,
               "parent": parent, "request": request}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def summary(self) -> dict[str, dict]:
        """Per span name: number of spans, total time and self time, where
        self time is a span's duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, dict] = {}
        for rec, inner in zip(self.spans, child_time):
            dur = rec["end"] - rec["start"]
            row = out.setdefault(rec["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - inner
        return out

    def total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.spans if r["name"] == name)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, spans=self.spans, summary=self.summary(), counts=dict(self.counts))
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# profiler call counts: metric -> (module, dotted attribute of the function)
COUNTED_CALLS = {
    "laurent.mul_calls": ("heckeo.laurent", "LaurentPoly.__mul__"),
    "laurent.add_calls": ("heckeo.laurent", "LaurentPoly.__add__"),
    "hecke.mul_calls": ("heckeo.hecke", "HeckeAlgebra.mul"),
    "k0.invert_calls": ("heckeo.hecke", "invert_unitriangular"),
    "linalg.mmul_calls": ("heckeo.block.linalg", "mmul"),
    "linalg.rref_calls": ("heckeo.block.linalg", "rref"),
    "block.fraction_new_calls": ("fractions", "Fraction.__new__"),
    "block.nat_at_calls": ("heckeo.block.functors", "Nat.at"),
}
ALGEBRA_INIT = ("heckeo.hecke", "HeckeAlgebra.__init__")
GROUP_INIT = ("heckeo.weyl", "WeylGroup.__init__")


def _code_key(module: str, attr: str):
    """The profiler's key for a Python function, or None once the function
    no longer exists, so that a counter of removed code reads 0."""
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = getattr(obj, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile(fn):
    """Run fn() under cProfile; returns (result, raw profiler stats)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    return result, pstats.Stats(prof).stats


def profile_metrics(stats: dict) -> dict[str, float]:
    """Exact call counts and profiled self time from one profiled pass."""

    def calls(target) -> int:
        key = _code_key(*target)
        return stats[key][1] if key in stats else 0

    out: dict[str, float] = {name: calls(t) for name, t in COUNTED_CALLS.items()}
    groups = calls(GROUP_INIT)
    out["hecke.algebra_inits"] = calls(ALGEBRA_INIT) / groups if groups else 0.0
    laurent = importlib.import_module("heckeo.laurent").__file__
    out["laurent.self_s"] = sum(row[2] for key, row in stats.items() if key[0] == laurent)
    return out

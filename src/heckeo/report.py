"""Verification reports: named checks with pass/fail, detail and timing."""

from __future__ import annotations

import csv
import io
import json
import textwrap
import time


class CheckResult:
    __slots__ = ("name", "passed", "detail", "elapsed_ms")

    def __init__(self, name: str, passed: bool, detail: str = "", elapsed_ms: float = 0.0):
        self.name = name
        self.passed = passed
        self.detail = detail
        self.elapsed_ms = elapsed_ms


class VerificationReport:
    __slots__ = ("suite", "checks")

    def __init__(self, suite: str, checks: list[CheckResult] | None = None):
        self.suite = suite
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "", elapsed_ms: float = 0.0) -> None:
        self.checks.append(CheckResult(name, bool(passed), detail, elapsed_ms))

    def run(self, name: str, fn) -> None:
        """Run fn() -> (passed, detail) as a timed named check."""
        t0 = time.monotonic()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"exception: {exc!r}"
        self.checks.append(
            CheckResult(name, bool(passed), detail, (time.monotonic() - t0) * 1000.0)
        )

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def sorted(self) -> "VerificationReport":
        return VerificationReport(self.suite, sorted(self.checks, key=lambda c: c.name))

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def emit(report: VerificationReport, format: str = "json", *, width: int = 60,
         timings: bool = False) -> str:
    """Render a report; field order is stable and timing is opt-in so that
    identical invocations produce byte-identical output."""
    rep = report.sorted()
    if format == "json":
        obj = {
            "schema": 1,
            "suite": rep.suite,
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in rep.checks
            ],
            "pass": rep.passed,
        }
        return json.dumps(obj, separators=(",", ":")) + "\n"
    if format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "pass", "detail"])
        for c in rep.checks:
            w.writerow([c.name, "true" if c.passed else "false", c.detail])
        return buf.getvalue()
    if format == "table":
        lines = [f"suite: {rep.suite}"]
        for c in rep.checks:
            mark = "PASS" if c.passed else "FAIL"
            stamp = f"  [{c.elapsed_ms:.1f} ms]" if timings else ""
            lines.append(f"  {mark}  {c.name}{stamp}")
            if c.detail:
                for ln in textwrap.wrap(c.detail, width=width):
                    lines.append(f"        {ln}")
        lines.append(f"overall: {'PASS' if rep.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {format!r}")

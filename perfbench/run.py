"""heckeo benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload kl_table --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from the repository root. With --trace 0 the run times every
request of every pass with tracing off, in reference seconds (see
refclock), and reports the end-to-end metrics; with --trace 1 it
times a few untraced passes, replays one pass with spans around every
layer call, profiles one more pass for call counts, reports the per-layer
metrics and writes the spans to perfbench/traces/. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload in its own process and prints every
end-to-end metric by name and unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import Meter, median_sum, probe, reference_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("kl_table", "verify_suite", "block_check", "cli_queries")
SETUP_IMPORTS = 21  # at least this many cold imports per run
SETUP_PER_PASS = 2
SETUP_PROBE_REPS = 5
TRACE_BASE_SHARE = 0.3  # share of --seconds spent on untraced passes in a traced run


def percentile_beyond(samples: list[float], pct: float, beyond: int = 10) -> float | None:
    """The nearest-rank pct-th percentile, or None unless at least `beyond`
    samples rank above it (p90 needs 100 samples)."""
    xs = sorted(samples)
    rank = max(math.ceil(len(xs) * pct / 100.0) - 1, 0)
    if len(xs) - 1 - rank < beyond:
        return None
    return xs[rank]


def import_time() -> float:
    """One cold `import heckeo.cli, heckeo.block` in a fresh interpreter,
    wall seconds."""
    code = ("import sys, time; sys.path.insert(0, %r); t0 = time.perf_counter(); "
            "import heckeo.cli, heckeo.block; print(time.perf_counter() - t0)" % str(SRC))
    res = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(res.stdout)


class Passes:
    """Closed loop of passes. A pass starts only if one more pass and its
    check still fit in `seconds`, after the first `min_passes`.

    Every pass makes the same requests. Each request is timed in reference
    seconds (see refclock), which takes out most of the shared host's
    slow stretches, and `pass_s` is the sum of each request's median over
    the run."""

    def __init__(self, wl, between=None):
        self.wl = wl
        self.between = between
        self.walls: list[float] = []
        self.samples: dict = {}
        self.attempted = self.failed = 0

    def run(self, seconds: float, min_passes: int) -> "Passes":
        start = time.perf_counter()
        cycle = 0.0
        while len(self.walls) < min_passes or time.perf_counter() - start + cycle <= seconds:
            gc.collect()
            t0 = time.perf_counter()
            meter = Meter()
            out = self.wl.run_pass(meter)
            for key, dt in meter.finish():
                self.samples.setdefault(key, []).append(dt)
            self.walls.append(meter.wall_s)
            a, f = self.wl.check(out)
            del out
            self.attempted += a
            self.failed += f
            if self.between is not None:
                self.between()
            cycle = time.perf_counter() - t0
        return self

    @property
    def pass_s(self) -> float:
        return median_sum(self.samples)


def normalised_setup() -> float:
    """import_time() in reference seconds. The probes on either side are
    several calls long: one call is short beside an import and varies more."""
    before = probe(SETUP_PROBE_REPS)
    dt = import_time()
    return reference_seconds(dt, [before, probe(SETUP_PROBE_REPS)])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare_checks(wl) -> None:
    prepare = getattr(wl, "prepare_checks", None)
    if prepare is not None:
        prepare()


def run_untraced(wl, seconds: float) -> tuple[dict, int, int, list[str]]:
    # set-up is sampled between passes, so that its median spans the run,
    # and timed in reference seconds like the passes
    import_time()  # writes the bytecode cache, which users pay once
    setup = [normalised_setup()]

    def between():
        for _ in range(SETUP_PER_PASS):
            setup.append(normalised_setup())

    prepare_checks(wl)
    p = Passes(wl, between).run(seconds, wl.min_passes)
    while len(setup) < SETUP_IMPORTS:
        setup.append(normalised_setup())
    times = p.walls
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (p.pass_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [f"passes: {len(times)}  wall pass times (s): "
             + " ".join(f"{t:.3f}" for t in times)
             + f"  median {statistics.median(times):.3f}",
             f"requests per pass: {len(p.samples)}  sum of medians: {p.pass_s:.4f} "
             "reference s",
             f"setup imports: {len(setup)}  (reference s): "
             + " ".join(f"{t:.4f}" for t in setup)]
    lat = getattr(wl, "latencies", None)
    if lat:
        all_ms = [dt * 1000.0 for _, dt in lat]
        p90 = percentile_beyond(all_ms, 90)
        notes.append(f"queries: {len(all_ms)}  query_p50_ms {statistics.median(all_ms):.2f}  "
                     f"query_p90_ms {'n/a' if p90 is None else f'{p90:.2f}'}  "
                     f"queries_per_s {len(all_ms) / sum(times):.3f}")
    return metrics, p.attempted, p.failed, notes


def run_traced(wl, seconds: float, seed: int) -> tuple[dict, int, int, list[str]]:
    from tracing import Tracer, profile, profile_metrics
    from workloads import kl_stats

    prepare_checks(wl)
    p = Passes(wl).run(TRACE_BASE_SHARE * seconds, 1)
    times, attempted, failed = p.walls, p.attempted, p.failed
    base = statistics.median(times)
    lat = list(getattr(wl, "latencies", []))

    gc.collect()
    tr = Tracer()
    t0 = time.perf_counter()
    with tr.span("pass"):
        kept = wl.replay(tr)
    traced = time.perf_counter() - t0
    size = kl_stats(kept)
    del kept

    gc.collect()
    out, stats = profile(lambda: wl.run_pass(Meter(probing=False)))
    a, f = wl.check(out)
    del out
    attempted += a
    failed += f

    metrics: dict[str, tuple[float, str]] = {}
    for metric, span in _layer_spans().items():
        metrics[metric] = (tr.total(span), "s")
    metrics["weyl.order"] = (tr.counts["weyl.order"], "count")
    for name in ("hecke.kl_nonzeros", "hecke.kl_terms", "hecke.kl_max_degree", "hecke.kl_max_mu"):
        metrics[name] = (size[name], "count")
    for name, value in profile_metrics(stats).items():
        if name.endswith("_s"):
            metrics[name] = (value, "s")
        elif name == "hecke.algebra_inits":
            metrics[name] = (value, "per_group")
        else:
            metrics[name] = (value, "count")
    for kind, metric in (("weyl", "cli.weyl_ms"), ("klpoly", "cli.klpoly_ms"),
                         ("basis-change", "cli.basis_change_ms")):
        ms = [dt * 1000.0 for k, dt in lat if k == kind]
        metrics[metric] = (statistics.median(ms) if ms else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (traced / base, "ratio")

    path = BENCH_DIR / "traces" / f"{wl.name}-seed{seed}.json"
    tr.write(path, {"workload": wl.name, "seed": seed, "untraced_pass_s": times,
                    "traced_pass_s": traced})
    notes = [f"untraced passes (s): " + " ".join(f"{t:.3f}" for t in times),
             f"traced pass (s): {traced:.3f}", f"spans: {len(tr.spans)} written to "
             f"{path.relative_to(ROOT)}"]
    return metrics, attempted, failed, notes


def _layer_spans() -> dict[str, str]:
    spans = {
        "weyl.enumerate_s": "weyl.build_group",
        "weyl.bruhat_s": "weyl.bruhat_leq",
        "weyl.covers_s": "weyl.bruhat_covers",
        "weyl.names_s": "weyl.name",
        "hecke.kl_table_s": "hecke.kl_element",
        "hecke.dual_basis_s": "hecke.dual_basis",
        "hecke.bar_solver_s": "hecke.bar_solver",
        "k0.prepare_s": "k0.prepare",
        "k0.basis_inverse_s": "k0.coords_in_basis",
        "block.build_s": "block.build_rank_one",
        "block.homology_table_s": "block.homology_table",
    }
    from workloads import BLOCK_VERIFIERS, HECKE_VERIFIERS, K0_VERIFIERS

    for layer, methods in (("hecke", HECKE_VERIFIERS), ("k0", K0_VERIFIERS),
                           ("block", BLOCK_VERIFIERS)):
        for m in methods:
            spans[f"{layer}.{m}_s"] = f"{layer}.{m}"
    return spans


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, so that setup_s and peak_rss_mb
    cover that workload alone."""
    ok = True
    for name in WORKLOAD_NAMES:
        res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                              "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", str(trace)], capture_output=True, text=True)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            print(f"{name}: exit {res.returncode}\n{res.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"== {name}")
        for ln in lines[:-1]:
            print("  " + ln)
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "heckeo" / "__init__.py").is_file():
        print(f"error: no heckeo sources under {SRC}; run from a heckeo checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    sys.path.insert(0, str(SRC))
    # an empty config file: no ./heckeo.cfg can change formats or the cap
    os.environ["HECKEO_CONFIG"] = os.devnull
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, attempted, failed, notes = run_traced(wl, args.seconds, args.seed)
    else:
        metrics, attempted, failed, notes = run_untraced(wl, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for ln in notes:
        print(ln)
    print(f"error_rate {failed / attempted:.6g} ({failed}/{attempted} outputs failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests for the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They run in about half a minute: two short benchmark runs of block_check,
one with tracing, plus unit checks of the query stream, the percentile
helper, the reference-second scaling and the output checks.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
os.environ["HECKEO_CONFIG"] = os.devnull

import run  # noqa: E402
import workloads  # noqa: E402
import refclock  # noqa: E402
from refclock import Meter  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_query_stream_is_deterministic_per_seed_and_differs_across_seeds():
    assert workloads.query_stream(7) == workloads.query_stream(7)
    assert workloads.query_stream(7) != workloads.query_stream(8)
    kinds = Counter(kind for kind, _, _ in workloads.query_stream(7))
    assert kinds == {"weyl": 15, "klpoly": 12, "basis-change": 3}


def test_percentile_leaves_ten_samples_beyond():
    for n in range(1, 400):
        xs = [float(i) for i in range(n)]
        got = run.percentile_beyond(xs, 90)
        if got is None:
            assert n < 100
        else:
            assert sum(x > got for x in xs) >= 10
    assert run.percentile_beyond([float(i) for i in range(100)], 90) == 89.0


def test_meter_scales_each_request_by_the_probes_around_it(monkeypatch):
    probes = iter([0.006, 0.003, 0.0015])
    monkeypatch.setattr(refclock, "probe", lambda reps=1: next(probes))
    monkeypatch.setattr(refclock, "PROBE_EVERY", 0.0)
    monkeypatch.setattr(refclock, "TICK_S", 60.0)
    meter = Meter()
    assert meter.time("a", lambda: 7) == 7
    meter.time("b", lambda: None)
    got = dict(meter.finish())
    wall = {key: dt for key, dt, _, _ in meter.samples}
    assert got["a"] == pytest.approx(wall["a"] * refclock.REF_S / 0.0045)
    assert got["b"] == pytest.approx(wall["b"] * refclock.REF_S / 0.00225)
    assert refclock.median_sum({"a": [3.0, 1.0, 2.0], "b": [0.5]}) == 2.5


def test_meter_probes_inside_a_long_request(monkeypatch):
    monkeypatch.setattr(refclock, "probe", lambda reps=1: 0.006)
    monkeypatch.setattr(refclock, "TICK_S", 0.05)
    meter = Meter()
    meter.time("slow", time.sleep, 0.3)
    (key, dt, _, ticks), = meter.samples
    assert len(ticks) >= 3 and dt == pytest.approx(0.3, abs=0.05)
    assert meter.finish() == [("slow", pytest.approx(dt / 2))]


def test_benchmark_json_keeps_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, key):
    res = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "block_check",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace:
        assert result["metrics"]["hecke.algebra_inits"]["value"] == 1.0


def test_corrupted_expected_output_counts_as_failure():
    block = workloads.BlockCheck(1, golden="module,degree,dimension\n")
    assert block.check(block.run_pass(Meter(probing=False))) == (2, 1)

    verify = workloads.VerifySuite(1)
    good = '{"schema":1,"suite":"all","checks":[],"pass":true}\n'
    assert verify.check([("A1", (0, good))]) == (1, 0)
    assert verify.check([("A1", (0, good.replace("all", "any")))]) == (1, 1)
    assert verify.check([("A2", (0, good.replace("true", "false")))]) == (1, 1)

    kl = workloads.KlTable(1, expected={"kl_table": {}})
    g = workloads.build_group(workloads.CartanDatum.parse("A2"))
    alg = workloads.HeckeAlgebra(g)
    attempted, failed = kl.check([("A2", g, alg, workloads.all_kl_elements(alg))])
    assert failed == 1 and attempted == 1 + workloads.ORACLE_SAMPLE

    cli = workloads.CliQueries(1)
    for kind, label, argv in workloads.query_stream(1):
        code, text = workloads.call_cli(argv)
        assert cli.check_query(kind, label, argv, code, text)
        obj = json.loads(text)
        if kind == "weyl":
            obj["order"] += 1
        elif kind == "klpoly":
            obj["coeff"] = {"1": 1} if obj["coeff"] == {} else {}
        else:
            obj["coords"] = {}
        bad = json.dumps(obj)
        assert cli.check([(kind, label, argv, code, bad)]) == (1, 1)
        assert cli.check([(kind, label, argv, 1, text)]) == (1, 1)
        if kind == "basis-change" and label == "D4":
            break

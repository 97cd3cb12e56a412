import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from heckeo import cli
from heckeo.cli import load_config, run
from heckeo.weyl import WeylError
from heckeo.report import CheckResult, VerificationReport, emit

GOLDEN = Path(__file__).parent / "golden" / "v1"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_weyl_info():
    code, text = run(["weyl", "--type", "G2", "--info"])
    assert code == 0
    assert "order 12" in text and "longest_length 6" in text


def test_weyl_json_schema():
    code, text = run(["weyl", "--type", "A2", "--format", "json"])
    data = json.loads(text)
    assert code == 0
    assert data["schema"] == 1
    assert data["order"] == 6
    assert data["lengths"]["1.2.1"] == 3
    assert ["e", "1"] in data["covers"]


def test_klpoly_examples():
    code, text = run(["klpoly", "--type", "A1", "--x", "s", "--y", "e", "--format", "json"])
    assert code == 0
    assert json.loads(text) == {"schema": 1, "x": "1", "y": "e", "coeff": {"1": 1}}
    code, text = run(["klpoly", "--type", "A1", "--x", "s", "--y", "e",
                      "--variant", "Cprime", "--format", "json"])
    assert json.loads(text)["coeff"] == {"-1": -1}


def test_basis_change_roundtrip():
    code, text = run(["basis-change", "--type", "A2", "--from", "Simple",
                      "--to", "Simple", "--x", "1.2", "--format", "json"])
    data = json.loads(text)
    assert code == 0
    assert data["coords"] == {"1.2": {"0": 1}}


def test_basis_change_rejects_unknown_basis():
    code, text = run(["basis-change", "--type", "A2", "--from", "Nope",
                      "--to", "Verma", "--x", "e"])
    assert code == 2
    assert "basis" in text


def test_verify_exit_codes_and_schema():
    code, text = run(["verify", "--type", "A1", "--suite", "k0", "--format", "json"])
    assert code == 0
    data = json.loads(text)
    assert data["schema"] == 1 and data["pass"] is True
    assert all(set(c) == {"name", "pass", "detail"} for c in data["checks"])
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)


def test_verify_builds_one_hecke_algebra(monkeypatch):
    inits = []
    init = cli.HeckeAlgebra.__init__

    def counted(self, group):
        inits.append(group)
        init(self, group)

    monkeypatch.setattr(cli.HeckeAlgebra, "__init__", counted)
    code, _ = run(["verify", "--type", "A2", "--suite", "all"])
    assert code == 0
    assert len(inits) == 1


@pytest.mark.parametrize("type_", ["A3", "B2"])
def test_each_sub_suite_matches_its_rows_in_the_full_suite(type_):
    # the hecke and k0 suites share derived results, so a detail must not
    # depend on which suite derives a result first
    def rows(suite):
        code, text = run(["verify", "--type", type_, "--suite", suite, "--format", "json"])
        assert code == 0
        return [(c["name"], c["pass"], c["detail"]) for c in json.loads(text)["checks"]]

    full = rows("all")
    for suite in ("hecke", "k0"):
        sub = rows(suite)
        assert sub and sub == [r for r in full if r[0].startswith(suite + ".")], suite


def test_usage_errors_are_distinct():
    code, text = run(["weyl", "--type", "E8"])
    assert code == 2 and "inadmissible Cartan datum" in text
    code, text = run(["weyl", "--type", "A8"])
    assert code == 2 and "enumeration cap exceeded" in text
    code, text = run(["klpoly", "--type", "A2", "--x", "oops", "--y", "e"])
    assert code == 2 and "malformed word string" in text
    code, text = run(["nonsense"])
    assert code == 2


def test_cap_flag_overrides():
    # the default cap admits A5; an explicit smaller cap must win
    code, text = run(["weyl", "--type", "A5", "--cap", "100"])
    assert code == 2 and "cap exceeded" in text
    code, _ = run(["weyl", "--type", "A5", "--cap", "1000"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["verify", "--type", "A7"],
    ["verify", "--type", "A6"],
    ["klpoly", "--type", "A7", "--x", "e", "--y", "e"],
])
def test_default_caps_fail_fast(argv, monkeypatch, tmp_path):
    # a group too large for the command exits 2 before it is enumerated,
    # with a message that names the override
    monkeypatch.setenv("HECKEO_CONFIG", str(tmp_path / "absent.cfg"))
    start = time.perf_counter()
    code, text = run(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "cap exceeded" in text and "--cap" in text


def test_explicit_and_config_caps_override_command_defaults(monkeypatch, tmp_path):
    # read off the cap each command passes, so no large group is built
    seen = []

    def build(datum, cap):
        seen.append((datum.label, cap))
        raise WeylError("not built")

    monkeypatch.setattr(cli, "build_group", build)
    monkeypatch.setenv("HECKEO_CONFIG", str(tmp_path / "absent.cfg"))
    for argv in (["weyl", "--type", "A7"], ["klpoly", "--type", "A6", "--x", "e", "--y", "e"],
                 ["basis-change", "--type", "A6", "--from", "Simple", "--to", "Verma", "--x", "e"],
                 ["verify", "--type", "F4"], ["verify", "--type", "A6", "--cap", "5040"]):
        assert run(argv)[0] == 2
    assert seen == [("A7", 40320), ("A6", 5040), ("A6", 5040), ("F4", 1152), ("A6", 5040)]
    cfg = tmp_path / "big.cfg"
    cfg.write_text("cap = 40320\n", encoding="utf-8")
    monkeypatch.setenv("HECKEO_CONFIG", str(cfg))
    assert run(["verify", "--type", "A7"])[0] == 2
    assert run(["klpoly", "--type", "A7", "--x", "e", "--y", "e", "--cap", "7"])[0] == 2
    assert seen[-2:] == [("A7", 40320), ("A7", 7)]


def test_each_command_takes_only_the_options_it_reads():
    # block-check enumerates no group; only verify and block-check time checks
    assert run(["block-check", "--cap", "5"])[0] == 2
    for argv in (["weyl", "--type", "A1"], ["klpoly", "--type", "A1", "--x", "e", "--y", "e"],
                 ["basis-change", "--type", "A1", "--from", "Verma", "--to", "Simple", "--x", "e"]):
        assert run(argv)[0] == 0
        assert run(argv + ["--timings"])[0] == 2
    assert run(["verify", "--type", "A1", "--timings"])[0] == 0


def test_block_check_csv_table():
    code, text = run(["block-check", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "module,degree,dimension"
    assert "Theta!(L_s),-1,1" in lines
    assert "Theta*(Delta_e),0,2" in lines


def test_determinism_byte_identical():
    a = run(["verify", "--type", "A2", "--suite", "all", "--format", "json"])
    b = run(["verify", "--type", "A2", "--suite", "all", "--format", "json"])
    assert a == b
    assert a[0] == 0


def test_config_file(tmp_path, monkeypatch):
    cfg = tmp_path / "my.cfg"
    cfg.write_text("cap = 10\nformat = json\n# comment\n", encoding="utf-8")
    monkeypatch.setenv("HECKEO_CONFIG", str(cfg))
    assert load_config() == {"cap": 10, "format": "json"}
    # cap from the config now rejects A3 (order 24 > 10)
    code, text = run(["weyl", "--type", "A3"])
    assert code == 2 and "cap exceeded" in text
    # flags override the file
    code, _ = run(["weyl", "--type", "A3", "--cap", "100"])
    assert code == 0
    cfg.write_text("cap = banana\n", encoding="utf-8")
    code, text = run(["weyl", "--type", "A2"])
    assert code == 2 and "config error" in text
    # an unknown format is an error; one only some commands take is not
    cfg.write_text("format = xml\n", encoding="utf-8")
    code, text = run(["weyl", "--type", "A2"])
    assert code == 2 and "config error" in text and "'xml'" in text
    cfg.write_text("format = csv\n", encoding="utf-8")
    code, text = run(["weyl", "--type", "A2", "--info"])
    assert code == 0 and text.startswith("type A2\n")
    # a width the table cannot wrap to is an error, not a traceback
    for width in ("0", "-3"):
        cfg.write_text(f"table_width = {width}\n", encoding="utf-8")
        for argv in (["verify", "--type", "A1"], ["block-check"]):
            code, text = run(argv)
            assert code == 2 and "config error" in text and "table_width" in text


def test_each_config_in_one_process_gets_its_own_parser(monkeypatch, tmp_path):
    # the parser is built once per config contents, so a second config must
    # not read the first one's --format and --cap defaults
    first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
    first.write_text("format = json\ncap = 10\n", encoding="utf-8")
    second.write_text("format = table\ncap = 100\n", encoding="utf-8")
    for _ in range(2):
        monkeypatch.setenv("HECKEO_CONFIG", str(first))
        code, text = run(["weyl", "--type", "A2"])
        assert code == 0 and json.loads(text)["order"] == 6
        assert run(["weyl", "--type", "A3"])[0] == 2
        monkeypatch.setenv("HECKEO_CONFIG", str(second))
        code, text = run(["weyl", "--type", "A3"])
        assert code == 0 and text.startswith("type A3\n")
        # a usage error still exits 2, and leaves the parser usable
        assert run(["weyl"]) == (2, "")
        assert run(["weyl", "--type", "A2", "--format", "xml"]) == (2, "")
    key = tuple(sorted(load_config().items()))
    assert cli._parser(key) is cli._parser(key)


def test_missing_config_is_fine(monkeypatch, tmp_path):
    monkeypatch.setenv("HECKEO_CONFIG", str(tmp_path / "nope.cfg"))
    assert load_config() == {}


@pytest.mark.parametrize("fname,argv", [
    ("weyl_A2_info.txt", ["weyl", "--type", "A2", "--info"]),
    ("weyl_A2.json", ["weyl", "--type", "A2", "--format", "json"]),
    ("weyl_G2_info.txt", ["weyl", "--type", "G2", "--info"]),
    ("klpoly_A1_s_e.json", ["klpoly", "--type", "A1", "--x", "s", "--y", "e", "--format", "json"]),
    ("klpoly_A3_nontrivial.txt", ["klpoly", "--type", "A3", "--x", "2.1.3.2", "--y", "2", "--format", "table"]),
    ("basis_change_B2.json", ["basis-change", "--type", "B2", "--from", "Tilting", "--to", "Verma", "--x", "1.2", "--format", "json"]),
    ("verify_A1_all.json", ["verify", "--type", "A1", "--suite", "all", "--format", "json"]),
    ("verify_A2_k0.csv", ["verify", "--type", "A2", "--suite", "k0", "--format", "csv"]),
    ("block_check_tilting.json", ["block-check", "--suite", "tilting", "--format", "json"]),
    ("block_check_homology.csv", ["block-check", "--format", "csv"]),
    ("verify_B2_all.json", ["verify", "--type", "B2", "--suite", "all", "--format", "json"]),
    ("weyl_B3.json", ["weyl", "--type", "B3", "--format", "json"]),
    ("block_check_all.json", ["block-check", "--suite", "all", "--format", "json"]),
    ("verify_A3_all.json", ["verify", "--type", "A3", "--suite", "all", "--format", "json"]),
    ("basis_change_B3_projective.json", ["basis-change", "--type", "B3", "--from", "Projective", "--to", "Tilting", "--x", "e", "--format", "json"]),
    ("basis_change_B3_dualverma.json", ["basis-change", "--type", "B3", "--from", "DualVerma", "--to", "Projective", "--x", "w0", "--format", "json"]),
    ("verify_B3_all.json", ["verify", "--type", "B3", "--suite", "all", "--format", "json"]),
    ("basis_change_A4_dualverma.json", ["basis-change", "--type", "A4", "--from", "DualVerma", "--to", "Verma", "--x", "w0", "--format", "json"]),
])
def test_golden_outputs(fname, argv, monkeypatch, tmp_path):
    monkeypatch.setenv("HECKEO_CONFIG", str(tmp_path / "absent.cfg"))
    code, text = run(argv)
    assert code == 0
    expected = (GOLDEN / fname).read_text(encoding="utf-8")
    assert text == expected, f"golden mismatch for {fname}"


@pytest.mark.parametrize("label,golden", [("A2", "weyl_A2.json"), ("B3", "weyl_B3.json"),
                                          ("D4", None)])
def test_main_streams_the_weyl_export_that_run_returns(label, golden, monkeypatch, tmp_path):
    monkeypatch.setenv("HECKEO_CONFIG", str(tmp_path / "absent.cfg"))
    argv = ["weyl", "--type", label, "--format", "json"]
    code, text = run(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == code == 0
    assert out.getvalue() == text
    if golden is not None:
        assert text == (GOLDEN / golden).read_text(encoding="utf-8")


def test_main_writes_a_usage_error_to_stderr_only(monkeypatch, tmp_path):
    monkeypatch.setenv("HECKEO_CONFIG", str(tmp_path / "absent.cfg"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["weyl", "--type", "A9", "--format", "json"]) == 2
    assert out.getvalue() == "" and "enumeration cap exceeded" in err.getvalue()


def test_a_cold_import_loads_neither_dataclasses_nor_inspect():
    # which modules load, not how long they take: host load cannot flake it.
    # -S keeps the host's site-packages .pth hooks out of the count
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import heckeo.cli, heckeo.block; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert res.stdout.strip() == "[]"


# -- report emission -----------------------------------------------------------

def _sample_report():
    rep = VerificationReport("demo")
    rep.add("b_check", True, "fine", 1.25)
    rep.add("a_check", False, "broke", 0.5)
    return rep


def test_emit_json_sorted_and_versioned():
    data = json.loads(emit(_sample_report(), "json"))
    assert data["schema"] == 1
    assert [c["name"] for c in data["checks"]] == ["a_check", "b_check"]
    assert data["pass"] is False


def test_emit_empty_report():
    assert (
        emit(VerificationReport("empty"), "json")
        == '{"schema":1,"suite":"empty","checks":[],"pass":true}\n'
    )


def test_emit_csv_and_table():
    text = emit(_sample_report(), "csv")
    assert text.splitlines()[0] == "name,pass,detail"
    assert "a_check,false,broke" in text
    table = emit(_sample_report(), "table", width=20)
    assert "FAIL" in table and "PASS" in table and "overall: FAIL" in table
    assert "ms" not in table  # timings are opt-in
    assert "ms" in emit(_sample_report(), "table", timings=True)
    long_detail = VerificationReport("w")
    long_detail.add("x", True, "word " * 30)
    wrapped = emit(long_detail, "table", width=25)
    assert max(len(line) for line in wrapped.splitlines()) < 40


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(_sample_report(), "xml")


def test_run_exception_becomes_failed_check():
    rep = VerificationReport("x")
    rep.run("boom", lambda: 1 / 0)
    assert not rep.passed
    assert "exception" in rep.checks[0].detail

"""Every source file parses as Python 3.10, the oldest version that
`requires-python` admits and the CI matrix runs."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_the_sources_are_found():
    assert len(SOURCES) > 20
    assert ROOT / "src" / "heckeo" / "block" / "functors.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_source_parses_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_3_10_grammar_rejects_a_3_11_construct():
    text = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(text)
    with pytest.raises(SyntaxError):
        ast.parse(text, feature_version=(3, 10))

"""Every Python file of the project parses as the oldest Python it supports."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = tuple(map(int, re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
).groups()))
SOURCES = sorted(path for folder in ("src", "tests", "bench") for path in (ROOT / folder).rglob("*.py"))


def test_every_file_parses_as_the_oldest_supported_python():
    """Best-effort: ``feature_version`` rejects most newer grammar (``except*``,
    ``type`` aliases, PEP 695 generics), but not every newer construct, and it
    says nothing about library names added after that version."""
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)


@pytest.mark.parametrize("newer", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type Pair = tuple[int, int]\n",
    "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",
])
def test_newer_grammar_is_rejected(newer):
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=OLDEST)

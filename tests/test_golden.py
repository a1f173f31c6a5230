"""CLI outputs stay byte-identical to the goldens in ``tests/data/golden``.

See ``tests/data/make_golden.py`` for the cases and for when to regenerate.
"""
import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "golden"

_spec = importlib.util.spec_from_file_location("make_golden", Path(__file__).parent / "data" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def test_cli_outputs_match_goldens(tmp_path):
    written = make_golden.generate(tmp_path)
    assert sorted(p.name for p in written) == sorted(p.name for p in GOLDEN.iterdir())
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name

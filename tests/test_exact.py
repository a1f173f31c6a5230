"""Every compiled table stays what ``tests/data/exact/tables.json`` pins.

The pins hold each table's sha256 and its phase-averaged statistics apart
from any random stream; see ``tests/data/make_exact.py`` for the cases and
for when to regenerate. The two are checked separately, so a change that
only reorders sums shows as a sha256 mismatch with the statistics intact.
"""
import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"

_spec = importlib.util.spec_from_file_location("make_exact", DATA / "make_exact.py")
make_exact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_exact)

PINS = json.loads((DATA / "exact" / "tables.json").read_text(encoding="utf-8"))
FIELDS = PINS.pop("fields")


@pytest.fixture(scope="module")
def computed():
    return make_exact.pins()


def mismatches(computed, keys):
    return [
        name for name, pin in computed.items()
        if {k: pin.get(k) for k in keys} != {k: PINS.get(name, {}).get(k) for k in keys}
    ]


def test_pins_cover_every_case(computed):
    assert FIELDS == make_exact.FIELDS
    assert sorted(computed) == sorted(PINS)


def test_statistics_match_the_pins(computed):
    assert mismatches(computed, ("error", "statistics", "statistics_error")) == []


def test_tables_match_the_pinned_sha256(computed):
    assert mismatches(computed, ("error", "sha256")) == []

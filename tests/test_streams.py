"""Every run draws the random stream that ``tests/data/streams.json`` pins.

The pins hold the sha256 of each run's counts over a grid of specs,
detectors, policies, trial counts and seeds; see
``tests/data/make_streams.py`` for the cases and for when to regenerate.
Recomputing them must leave the file byte-identical.
"""
import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"

_spec = importlib.util.spec_from_file_location("make_streams", DATA / "make_streams.py")
make_streams = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_streams)


def test_recomputed_pins_leave_the_file_unedited():
    committed = (DATA / "streams.json").read_text(encoding="utf-8")
    computed = make_streams.text()
    if computed != committed:
        pins, now = json.loads(committed), json.loads(computed)
        moved = sorted(name for name in pins.keys() | now.keys() if pins.get(name) != now.get(name))
        raise AssertionError(f"{len(moved)} stream pins moved, first: {moved[:5]}")

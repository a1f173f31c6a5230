"""Write the random-stream pins that ``tests/test_streams.py`` recomputes.

Usage, from the repository root::

    PYTHONPATH=src python tests/data/make_streams.py [FILE]

FILE defaults to ``tests/data/streams.json``. For every case below the
file holds the sha256 of the run's ``summary.counts.cells``, or the class
of the exception that ``engine.run`` raised. The cases are the grid

- spec: perfect/analytic with role reversal, perfect/physical with and
  without it (all at the CHSH threshold), existing (``e_target = 1/√2``),
  improved (``p2 = 0.2612``), and quantum (phi+) at ``eta_true`` 0.9 and 1;
- detector: ``StepThreshold()`` and ``TwoThreshold(0.8, 1.2)``;
- every double-click policy;
- ``n_trials`` in {1, 3, 4096, 65537, 3 * 65536 + 123}: one partial batch,
  a full batch plus one trial, and several batches ending in a partial one;
- seed in {0, 2**32, 2**64 - 1},

all at the standard angles (0, 45, 22.5, 67.5).

The pins hold the random stream: which numbers each batch draws and what
the counts come to. A change that is meant to keep the stream leaves this
file byte-identical; a change that alters the stream on purpose
regenerates it with this script and says so in ``CHANGES.md``.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from bellsim.core import DoubleClickPolicy, MeasurementSettings, SimulationError, ValidationError
from bellsim.detector import StepThreshold, TwoThreshold
from bellsim.engine import BATCH_SIZE, RunConfig, run
from bellsim.strategies import (
    ExistingModelSpec,
    ImprovedModelSpec,
    PerfectMode,
    PerfectModelSpec,
    QuantumSpec,
    bell_phi_plus,
)

HERE = Path(__file__).parent

_spec = importlib.util.spec_from_file_location("make_golden", HERE / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

SETTINGS = MeasurementSettings.from_degrees(0.0, 45.0, 22.5, 67.5)

_A, _B = make_golden.A_THRESHOLD, make_golden.B_THRESHOLD
SPECS = {
    "perfect/analytic/reversed": PerfectModelSpec(_A, _B, PerfectMode.ANALYTIC_TABLE, True),
    "perfect/physical": PerfectModelSpec(_A, _B, PerfectMode.PHYSICAL_PULSES, False),
    "perfect/physical/reversed": PerfectModelSpec(_A, _B, PerfectMode.PHYSICAL_PULSES, True),
    "existing": ExistingModelSpec(2.0 ** -0.5),
    "improved": ImprovedModelSpec.for_settings(0.2612, SETTINGS),
    "quantum/0.9": QuantumSpec(bell_phi_plus(), 0.9),
    "quantum/1": QuantumSpec(bell_phi_plus(), 1.0),
}

DETECTORS = {"step": StepThreshold(), "two_threshold": TwoThreshold(0.8, 1.2)}

N_TRIALS = (1, 3, 4096, BATCH_SIZE + 1, 3 * BATCH_SIZE + 123)

SEEDS = (0, 2 ** 32, 2 ** 64 - 1)


def cases():
    """Case name -> the run's config."""
    return {
        f"{s_name}/{d_name}/{policy.value}/n{n}/seed{seed}": RunConfig(
            spec, SETTINGS, n, seed, policy, detector
        )
        for s_name, spec in SPECS.items()
        for d_name, detector in DETECTORS.items()
        for policy in DoubleClickPolicy
        for n in N_TRIALS
        for seed in SEEDS
    }


def record(config: RunConfig) -> dict:
    """The pin of one case: the sha256 of its counts, or what raised."""
    try:
        summary = run(config)
    except (ValidationError, SimulationError) as exc:  # the class is what is pinned
        return {"error": type(exc).__name__}
    return {"sha256": hashlib.sha256(summary.counts.cells.tobytes()).hexdigest()}


def text() -> str:
    """The file's content: one case per line."""
    lines = [f"{json.dumps(name)}: {json.dumps(record(config))}" for name, config in cases().items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE / "streams.json"
    target.resolve().write_text(text(), encoding="utf-8")
    print(target)

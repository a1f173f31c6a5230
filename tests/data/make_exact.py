"""Write the exact-table pins that ``tests/test_exact.py`` recomputes.

Usage, from the repository root::

    PYTHONPATH=src python tests/data/make_exact.py [FILE]

FILE defaults to ``tests/data/exact/tables.json``. For every case below the
file holds the sha256 of the compiled table's bytes and
``chsh_statistics(table.mean(axis=0))`` at 17 significant digits, or the
class of the exception that compiling the table or taking its statistics
raised. The cases are

- a grid of 4 geometries x 25 specs x 4 detectors x 3 policies, and
- every table that a golden config of ``tests/data/make_golden.py``
  compiles: its run, and each point of its sweep.

The pins hold the physics apart from the random stream. A change that
only reorders sums moves a sha256 and leaves the statistics; a change
that alters the physics on purpose regenerates the file with this script
and says so in ``CHANGES.md``.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from bellsim import cli
from bellsim.core import DoubleClickPolicy, MeasurementSettings, SettingPair, ValidationError
from bellsim.detector import StepThreshold, TwoThreshold, bundled_response_curve
from bellsim.engine import chsh_statistics
from bellsim.inequalities import AllZeroCoincidences
from bellsim.strategies import (
    ExistingModelSpec,
    ImprovedModelSpec,
    PerfectMode,
    PerfectModelSpec,
    QuantumSpec,
    bell_phi_plus,
    joint_table,
)

HERE = Path(__file__).parent

_spec = importlib.util.spec_from_file_location("make_golden", HERE / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

#: The statistics of a table, in the order each record lists them.
FIELDS = [f"E{pair.alice}{pair.bob}" for pair in SettingPair] + [
    "s_value", "eta_alice", "eta_bob", "eta_symmetric", "se_s", "se_eta_symmetric",
]

GEOMETRIES = {
    "standard": (0.0, 45.0, 22.5, 67.5),
    "alice84": (0.0, 84.0, 22.5, 67.5),
    "skew": (-10.0, 50.0, 15.0, 80.0),
    "perpendicular": (0.0, 90.0, 22.5, 67.5),
}

DETECTORS = {
    "step1": StepThreshold(1.0),
    "step2": StepThreshold(2.0),
    "two_threshold": TwoThreshold(0.8, 1.2),
    "bundled": bundled_response_curve(),
}


def grid_specs():
    """Spec name -> function from the settings to the spec (25 specs)."""
    specs = {
        f"existing/{e!r}": lambda s, e=e: ExistingModelSpec(e)
        for e in (0.0, 0.5, 2.0 ** -0.5, 1.0)
    }
    specs.update({
        f"improved/{p2!r}": lambda s, p2=p2: ImprovedModelSpec.for_settings(p2, s)
        for p2 in (0.0, 0.2612, 1.0)
    })
    specs["improved/0.4/trigger1.95"] = lambda s: ImprovedModelSpec(0.4, 1.95)
    for a, b in ((make_golden.A_THRESHOLD, make_golden.B_THRESHOLD), (0.9, 0.4), (1.0, 1.0), (0.3, 0.0)):
        for mode in PerfectMode:
            for role_reversal in (False, True):
                specs[f"perfect/{a!r}/{b!r}/{mode.value}/{role_reversal}"] = (
                    lambda s, a=a, b=b, m=mode, r=role_reversal: PerfectModelSpec(a, b, m, r)
                )
    specs["quantum/0.9"] = lambda s: QuantumSpec(bell_phi_plus().rotated(13.0, -27.0), 0.9)
    return specs


def cases():
    """Case name -> function that compiles its table."""
    out = {}
    for g_name, degrees in GEOMETRIES.items():
        settings = MeasurementSettings.from_degrees(*degrees)
        for s_name, make in grid_specs().items():
            for d_name, detector in DETECTORS.items():
                for policy in DoubleClickPolicy:
                    out[f"grid/{g_name}/{s_name}/{d_name}/{policy.value}"] = (
                        lambda m=make, s=settings, d=detector, p=policy: joint_table(m(s), s, d, p)
                    )
    for name, (_, args) in make_golden.CASES.items():
        path = HERE / "golden" / f"{name}.ini"
        parsed = cli.build_parser().parse_args([args[0], str(path), *args[1:], "--out", "unused.csv"])
        cp = cli.load_config(path)
        config = cli.build_run_config(cp)
        out[f"golden/{name}"] = lambda c=config: joint_table(
            c.strategy, c.settings, c.detector_model, c.double_click_policy
        )
        if args[0] == "sweep":
            point = cli._sweep_points(parsed.var, cli.parse_config(cp), config.settings)
            for i, x in enumerate(np.linspace(parsed.start, parsed.stop, parsed.steps).tolist()):
                out[f"golden/{name}/{i}"] = lambda c=config, p=point, x=x: joint_table(
                    p(x)[0], c.settings, c.detector_model, c.double_click_policy
                )
    return out


def record(compile_) -> dict:
    """The pin of one case: its table's sha256 and statistics, or what raised."""
    try:
        table = compile_()
    except ValidationError as exc:  # the class is what is pinned
        return {"error": type(exc).__name__}
    pin = {"sha256": hashlib.sha256(table.tobytes()).hexdigest()}
    try:
        stats = chsh_statistics(table.mean(axis=0))
    except AllZeroCoincidences as exc:
        pin["statistics_error"] = type(exc).__name__
        return pin
    values = [stats.correlations[pair] for pair in SettingPair] + list(stats[1:])
    pin["statistics"] = [format(v, ".17g") for v in values]
    return pin


def pins() -> dict:
    return {name: record(compile_) for name, compile_ in cases().items()}


def write(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pins().items()]
    header = f'"fields": {json.dumps(FIELDS)}'
    path.write_text("{\n" + ",\n".join([header, *lines]) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE / "exact" / "tables.json"
    write(target.resolve())
    print(target)

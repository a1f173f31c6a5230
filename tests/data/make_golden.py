"""Write the golden CLI outputs that ``tests/test_golden.py`` compares byte for byte.

Usage, from the repository root::

    PYTHONPATH=src python tests/data/make_golden.py [DIRECTORY]

DIRECTORY defaults to ``tests/data/golden``. For each case below the script
writes the config it ran (``<case>.ini``), the command's stdout
(``<case>.stdout``) and its CSV (``<case>.csv``): the ``--out`` summary of
a ``bellsim run``, or the curve of a ``bellsim sweep``.

The goldens pin every printed count and statistic, so a change that is
meant to keep the random stream must leave them byte-identical. A change
that alters the stream on purpose regenerates them with this script and
says so in ``CHANGES.md``.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

from bellsim.cli import main

SQRT2 = 2.0 ** 0.5
#: The perfect model's (a, b) at eta = 2(sqrt(2) - 1), where S = 2 sqrt(2).
A_THRESHOLD = 12.0 * SQRT2 - 16.0
B_THRESHOLD = 40.0 - 28.0 * SQRT2

SETTINGS = """
[settings]
alpha0 = 0
alpha1 = 45
beta0 = 22.5
beta1 = 67.5
"""


def _config(
    strategy: str,
    detector: str = "model = step\ni_th = 1.0",
    policy: str = "discard",
    settings: str = SETTINGS,
) -> str:
    return (
        f"[strategy]\n{strategy}\n{settings}\n[detector]\n{detector}\n\n"
        f"[engine]\ntrials = 150000\nseed = 7\ndouble_click_policy = {policy}\n"
    )


#: Case name -> (config text, CLI arguments after the config path).
CASES = {
    "existing": (_config("kind = existing\ne_target = 0.7071067811865476"), ["run", "--workers", "2"]),
    "improved": (_config("kind = improved\np2 = 0.2612"), ["run", "--workers", "2"]),
    "perfect_analytic": (
        _config(f"kind = perfect\na = {A_THRESHOLD!r}\nb = {B_THRESHOLD!r}\nmode = analytic"),
        ["run", "--workers", "2"],
    ),
    "perfect_physical": (
        _config(
            f"kind = perfect\na = {A_THRESHOLD!r}\nb = {B_THRESHOLD!r}\n"
            "mode = physical\nrole_reversal = true"
        ),
        ["run", "--workers", "2"],
    ),
    "quantum": (_config("kind = quantum\neta_true = 0.9"), ["run", "--workers", "2"]),
    # Alice's analyzers 84 degrees apart put her midpoint pulse 42 degrees
    # off both ports: at trigger 1.95 each port gets more than i_never, so
    # both arms can fire and the flag policy reports doubles.
    "improved_two_threshold_flag": (
        _config(
            "kind = improved\np2 = 0.4\ntrigger_intensity = 1.95",
            detector="model = two_threshold\ni_never = 0.8\ni_always = 1.2",
            policy="flag",
            settings=SETTINGS.replace("alpha1 = 45", "alpha1 = 84"),
        ),
        ["run", "--workers", "2"],
    ),
    "sweep_eta": (
        _config("kind = perfect\na = 0.9\nb = 0.4\nmode = analytic"),
        ["sweep", "--var", "eta", "--from", "0.7", "--to", "1.0", "--steps", "12",
         "--trials", "4096", "--seed", "3"],
    ),
    "sweep_eta_physical": (
        _config("kind = perfect\na = 0.9\nb = 0.4\nmode = physical\nrole_reversal = false"),
        ["sweep", "--var", "eta", "--from", "0.7", "--to", "1.0", "--steps", "12",
         "--trials", "4096", "--seed", "5"],
    ),
    "sweep_p2": (
        _config("kind = improved\np2 = 0.3\ntrigger_intensity = 1.5"),
        ["sweep", "--var", "p2", "--from", "0.0", "--to", "0.5", "--steps", "11",
         "--trials", "4096", "--seed", "9"],
    ),
}


def generate(directory: Path) -> list[Path]:
    """Run every case with ``directory`` as working directory; return the files written."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    here = os.getcwd()
    os.chdir(directory)
    try:
        for name, (config, args) in CASES.items():
            ini, csv_name = f"{name}.ini", f"{name}.csv"
            Path(ini).write_text(config, encoding="utf-8")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([args[0], ini, *args[1:], "--out", csv_name])
            if code != 0:
                raise RuntimeError(f"case {name} exited {code}")
            Path(f"{name}.stdout").write_text(stdout.getvalue(), encoding="utf-8")
            written += [directory / f"{name}{ext}" for ext in (".ini", ".stdout", ".csv")]
    finally:
        os.chdir(here)
    return written


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "golden"
    for path in generate(target.resolve()):
        print(path)

"""The public surface: the README's examples run and every export resolves.

A helper deleted from a module must leave neither a stale name in an
``__all__`` nor a README example that no longer runs, and a name the
benchmark calls must not go while the benchmark still calls it. The
console entry point runs as ``python -m bellsim``, and the package, which
names itself in no import, compiles the same tables under another name.
"""
import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bellsim

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SUBMODULES = sorted(
    f"bellsim.{m.name}" for m in pkgutil.iter_modules(bellsim.__path__)
    if m.name != "__main__" and not m.ispkg
)


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    namespace = {}
    for block in blocks:  # later blocks build on earlier ones, as a reader runs them
        exec(compile(block, str(README), "exec"), namespace)


@pytest.mark.parametrize("name", ["bellsim"] + SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_exactly_what_it_imports():
    public = {
        n for n, value in vars(bellsim).items()
        if not n.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(bellsim.__all__)


GOLDEN_CONFIGS = sorted(str(p.relative_to(ROOT)) for p in ROOT.glob("tests/data/golden/*.ini"))


@pytest.mark.parametrize("command", [
    ["bench/setup_probe.py", "src", *GOLDEN_CONFIGS],
    ["-c", "import sys; sys.path[:0] = ['bench', 'src']; import workloads"],
], ids=["setup-probe", "workloads-import"])
def test_benchmark_entry_points_run(command):
    proc = subprocess.run(
        [sys.executable, *command], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_sweep_calls_the_engine_once_per_point(tmp_path):
    # The sweep workload rebinds ``engine.run`` to capture each point's run and
    # checks the CSV against it: 11 grid points at 1 and 2 workers.
    script = (
        "import sys; from pathlib import Path; sys.path[:0] = ['bench', 'src']; import workloads; "
        f"w = workloads.build('sweep', 1, Path({str(tmp_path)!r}), tiny=True); w.prepare(); "
        "p = w.run_pass(); print(p.attempted, p.failed, p.problems)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(maxsplit=2)[:2] == ["22", "0"], proc.stdout


def python(*args, cwd):
    """Run this interpreter on ``args`` in ``cwd``, with the checkout's ``src`` importable."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, timeout=120,
    )


def test_python_m_bellsim_reproduces_a_golden(tmp_path):
    golden = ROOT / "tests" / "data" / "golden"
    shutil.copy(golden / "perfect_physical.ini", tmp_path)
    proc = python(
        "-m", "bellsim", "run", "perfect_physical.ini", "--workers", "2",
        "--out", "perfect_physical.csv", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (golden / "perfect_physical.stdout").read_bytes()
    assert (tmp_path / "perfect_physical.csv").read_bytes() == (golden / "perfect_physical.csv").read_bytes()


def test_python_m_bellsim_exits_2_on_a_missing_config(tmp_path):
    proc = python("-m", "bellsim", "run", "missing.ini", cwd=tmp_path)
    assert proc.returncode == 2
    assert len(proc.stderr.decode().splitlines()) == 1, proc.stderr


def digests(bs):
    """sha256 of one compiled table of each kind, and of a 4096-trial run's counts.

    Its source also runs alone in a fresh interpreter, so it imports what it uses.
    """
    import hashlib

    import numpy as np

    settings = bs.MeasurementSettings.from_degrees(0.0, 45.0, 22.5, 67.5)
    a, b, _ = bs.ab_from_eta(2.0 * (2.0 ** 0.5 - 1.0))
    specs = {
        "existing": bs.ExistingModelSpec(2.0 ** -0.5),
        "improved": bs.ImprovedModelSpec.for_settings(0.2612, settings),
        "perfect/analytic": bs.PerfectModelSpec(a, b),
        "perfect/physical": bs.PerfectModelSpec(a, b, bs.PerfectMode.PHYSICAL_PULSES),
        "quantum": bs.QuantumSpec(bs.bell_phi_plus(), 0.9),
    }
    out = {
        name: hashlib.sha256(bs.strategies.joint_table(spec, settings).tobytes()).hexdigest()
        for name, spec in specs.items()
    }
    summary = bs.run(bs.RunConfig(strategy=specs["quantum"], settings=settings, n_trials=4096, seed=3))
    out["run"] = hashlib.sha256(np.stack(list(summary.joint_counts.values())).tobytes()).hexdigest()
    return out


def test_the_package_imports_under_another_name(tmp_path):
    # Every import inside the package is relative, so a second copy loads
    # beside the first (say, to time two commits in one process).
    script = textwrap.dedent(inspect.getsource(digests)) + textwrap.dedent(f"""
        import importlib.util, json, sys
        src = {str(ROOT / "src" / "bellsim")!r}
        spec = importlib.util.spec_from_file_location(
            "renamed", src + "/__init__.py", submodule_search_locations=[src]
        )
        renamed = sys.modules["renamed"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(renamed)
        print(json.dumps([digests(renamed), sorted(sys.modules)]))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    got, modules = json.loads(proc.stdout)
    assert [m for m in modules if m == "bellsim" or m.startswith("bellsim.")] == []
    assert "renamed.strategies" in modules
    assert got == digests(bellsim)

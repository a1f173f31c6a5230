"""The public surface: the README's examples run and every export resolves.

A helper deleted from a module must leave neither a stale name in an
``__all__`` nor a README example that no longer runs, and a name the
benchmark calls must not go while the benchmark still calls it.
"""
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
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

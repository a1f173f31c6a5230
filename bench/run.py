"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload pulses --seed 1 --seconds 30 --trace 0

Prints a human-readable run record (host, commit, every metric with its
unit and sample count, failed checks) and, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` the per-layer ones. The package is
imported from the checkout's ``src/``; without it the script exits with
code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Import ``bellsim`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "bellsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no bellsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellsim

    if Path(bellsim.__file__).resolve().parent != SRC / "bellsim":
        raise ImportError(f"bellsim was imported from {bellsim.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pulses", "tables", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_source_tree()
    except (OSError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

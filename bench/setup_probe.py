"""Set-up of one workload in a fresh interpreter, for the ``setup_s`` metric.

    python3 bench/setup_probe.py SRC CONFIG.ini [CONFIG.ini ...]

Imports the package from SRC, parses each config the way ``bellsim run``
does, builds its strategy, and prints ``time.monotonic()`` once the first
trial could start. The caller subtracts the moment it started this process.
"""
import sys
import time

sys.path.insert(0, sys.argv[1])

from bellsim import cli, strategies  # noqa: E402

for path in sys.argv[2:]:
    config = cli.build_run_config(cli.load_config(path))
    strategies.build_strategy(config.strategy, config.settings)
print(repr(time.monotonic()))

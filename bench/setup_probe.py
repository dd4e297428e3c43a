"""Time one workload's program set-up in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD

Prints the seconds from interpreter start-up (excluded) through package
import, catalog builds, subset families and engine creation.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](0).setup()
print(time.perf_counter() - T0)

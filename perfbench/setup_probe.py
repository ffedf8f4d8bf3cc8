"""Time one benchmark set-up: import numpy and hybridprec, then write a workload's configs.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <work_dir>

Prints the elapsed seconds. ``run.py`` starts it in fresh processes, so
that every sample pays for the imports.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import hybridprec.cli  # noqa: E402,F401
from workloads import nproc, workload_steps, write_configs  # noqa: E402

workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
write_configs(workload_steps(workload, nproc()), seed, work)
print(time.perf_counter() - start)

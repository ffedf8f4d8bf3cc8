"""Regenerate reference.json: mean and spread of every checked value over many seeds.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py [--workload hybrid_curves ...]

Runs each workload once per seed in SEEDS and stores, per
checked value, the mean over seeds and the standard deviation of one run.
For BER values the deviation is at least the binomial one of the run's bit
count, so rare-error points keep a sensible tolerance. Workloads not named
keep their stored entries; entries of workloads that no longer exist are
dropped. Rerun it whenever a workload's configs change; the benchmark
refuses a reference made for other configs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys

import run
from checks import REFERENCE_PATH
from workloads import WORKLOADS, config_digest, nproc, workload_steps, write_configs

Z = 7.0
SEEDS = list(range(1001, 1025))


def reference_values(workload: str) -> dict[str, list[float]]:
    steps = workload_steps(workload, nproc())
    samples: dict[str, list[float]] = {}
    sizes: dict[str, int | None] = {}
    for seed in SEEDS:
        work = run.ROOT / ".bench_work" / f"reference-{workload}-{os.getpid()}"
        try:
            rep = run.run_rep(steps, write_configs(steps, seed, work), work, traced=False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        problems = [p for ps in rep.problems.values() for p in ps]
        if problems:
            raise RuntimeError(f"{workload} seed {seed}: {problems}")
        for key, (value, n) in rep.obs.items():
            samples.setdefault(key, []).append(value)
            sizes[key] = n
        print(f"{workload} seed {seed}: {rep.wall_s:.2f} s", file=sys.stderr)
    values = {}
    for key, xs in samples.items():
        mean = math.fsum(xs) / len(xs)
        sd = statistics.stdev(xs)
        n = sizes[key]
        if n:
            p = min(max(mean, 1.0 / n), 0.5)
            sd = max(sd, math.sqrt(p * (1.0 - p) / n))
        values[key] = [mean, sd]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.SRC))
    ref = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {"workloads": {}}
    ref.update({"z": Z, "seeds": SEEDS})
    ref["workloads"] = {k: v for k, v in ref["workloads"].items() if k in WORKLOADS}
    for workload in args.workload:
        ref["workloads"][workload] = {
            "config_digest": config_digest(workload),
            "values": reference_values(workload),
        }
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

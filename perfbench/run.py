"""hybridprec benchmark: run one workload through ``hybridprec.cli.main`` and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ber_digital --seed 1 --seconds 50 --trace 0

The workload's configs are generated from ``--seed`` and the CLI is called
in-process on them, repeatedly with the same seed, until ``--seconds`` have
passed; every repetition must write byte-identical CSV. End-to-end metrics
are medians over repetitions. With ``--trace 1`` repetitions alternate
untraced and traced, and the per-layer metrics come from the traced ones.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Step, config_digest, nproc, observations, trials_of, workload_steps, write_configs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# Pinned before numpy loads, so CLI threads alone decide how many cores run.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SAMPLES = 7

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Printed for reading but kept out of the JSON result, which may only carry
# metrics that are never zero and exist on every workload: each accuracy
# guard exists on some workloads only (and failed_frac is 0 when healthy).
ACCURACY_GUARDS = (
    ("ber_mean", "ratio", "lower", "ber:mean"),
    ("se_mean", "bits/s/Hz", "higher", "se:mean"),
    ("mse_final", "ratio", "lower", "mse:final"),
)


@dataclass
class Rep:
    """One repetition of a workload: timings, per-step problems and outputs."""

    traced: bool
    wall_s: float
    cpu_s: float
    trials: int = 0
    problems: dict[str, list[str]] = field(default_factory=dict)
    csv_bytes: dict[str, bytes] = field(default_factory=dict)
    obs: dict[str, tuple[float, int | None]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def probe_setup(workload: str, seed: int, work: Path) -> float:
    """Set-up time of one fresh process: it imports everything and writes the configs."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(work / "probe")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def run_rep(steps: tuple[Step, ...], argvs: dict, work: Path, traced: bool) -> Rep:
    """Run every step once; time from the first CLI call to the last return."""
    import hybridprec.cli
    from checks import check_step
    from tracer import Tracer, cli_bytes_written, layer_metrics

    shutil.rmtree(work / "out", ignore_errors=True)
    gc.collect()  # every repetition starts from the same heap state
    tracer = Tracer() if traced else None
    errors: dict[str, list[str]] = {}
    with tracer.installed() if tracer else contextlib.nullcontext():
        main = tracer.wrap("cli.main", hybridprec.cli.main, cli_bytes_written) if tracer else hybridprec.cli.main
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for step in steps:
            violations = tracer.constraint_violations if tracer else 0
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = main(argvs[step.name])
                errors[step.name] = [] if code == 0 else [f"exit code {code}: {sink.getvalue()[-500:]}"]
            except SystemExit as exc:
                errors[step.name] = [f"exit {exc.code}: {sink.getvalue()[-500:]}"]
            except Exception:
                errors[step.name] = [traceback.format_exc(limit=4)]
            if tracer and tracer.constraint_violations > violations:
                errors[step.name].append(
                    f"{tracer.constraint_violations - violations} factors violate modulus or power constraints"
                )
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
    rep = Rep(traced=traced, wall_s=wall, cpu_s=cpu, problems=errors)
    tables = {}
    for step in steps:
        out = work / "out" / step.name
        problems, rows = check_step(step, out)
        errors[step.name].extend(problems)
        if rows is not None:
            rep.csv_bytes[step.name] = (out / step.csv_name).read_bytes()
            rep.trials += trials_of(step, rows)
            if not problems:
                tables[step.name] = rows
    rep.obs = observations(steps, tables)
    if tracer:
        rep.layers = layer_metrics(tracer.spans)
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[list[Rep], list[float]]:
    """Repeat the workload for ``seconds``, with set-up probes spread over the window.

    A probe follows a repetition once ``seconds / SETUP_SAMPLES`` have passed
    since the last one, so that a short drift in host speed cannot move every
    set-up sample at once. The first probe warms the file cache and is
    dropped; probes continue after the window until there are SETUP_SAMPLES.
    """
    probe_setup(workload, seed, work)
    steps = workload_steps(workload, nproc())
    argvs = write_configs(steps, seed, work)
    reps: list[Rep] = []
    setup: list[float] = []
    start = last_probe = time.perf_counter()
    while time.perf_counter() - start < seconds or len(reps) < (2 if trace else 1):
        reps.append(run_rep(steps, argvs, work, traced=trace and len(reps) % 2 == 1))
        if time.perf_counter() - last_probe >= seconds / SETUP_SAMPLES:
            setup.append(probe_setup(workload, seed, work))
            last_probe = time.perf_counter()
    while len(setup) < SETUP_SAMPLES:
        setup.append(probe_setup(workload, seed, work))
    return reps, setup


def judge(workload: str, steps: tuple[Step, ...], reps: list[Rep]) -> list[str]:
    """Add byte-identity and reference problems to each repetition; list them all."""
    from checks import compare_reference, load_reference

    ref = load_reference(workload)
    first = reps[0]
    for rep in reps:
        for step in steps:
            if step.name in rep.csv_bytes and rep.csv_bytes[step.name] != first.csv_bytes.get(step.name):
                rep.problems[step.name].append(f"{step.csv_name} differs from the first repetition")
        if ref is None:
            rep.problems[steps[0].name].append("no committed reference for this workload")
        elif ref["config_digest"] != config_digest(workload):
            rep.problems[steps[0].name].append("reference was made for other configs; run make_reference.py")
        else:
            for key, message in compare_reference({k: v for k, (v, _) in rep.obs.items()}, ref):
                rep.problems[key.split(":", 1)[0]].append(message)
    return [f"rep {i} {name}: {p}" for i, rep in enumerate(reps) for name, ps in rep.problems.items() for p in ps]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1; use 2 to check claims)")
    parser.add_argument("--seconds", type=float, default=50.0, help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "hybridprec" / "cli.py").is_file():
        print(f"error: hybridprec sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        reps, setup = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    steps = workload_steps(args.workload, nproc())
    problems = judge(args.workload, steps, reps)
    for p in problems[:20]:
        print(p, file=sys.stderr)

    attempted = len(reps) * len(steps)
    failed = sum(1 for rep in reps for ps in rep.problems.values() if ps)
    plain = [r for r in reps if not r.traced]
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall_s for r in plain),
        "trials_per_s": statistics.median(r.trials / r.wall_s for r in plain),
        "cpu_s": statistics.median(r.cpu_s for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    table = [(name, e2e[name], unit, better) for name, unit, better in END_TO_END]
    table.append(("failed_frac", failed / attempted, "ratio", "lower"))
    table += [(name, reps[0].obs[key][0], unit, better)
              for name, unit, better, key in ACCURACY_GUARDS if key in reps[0].obs]

    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({sum(r.traced for r in reps)} traced), {failed}/{attempted} CLI experiments failed")
    print("provenance " + json.dumps(provenance(args.workload, args.seed)))
    for name, value, unit, better in table:
        print(f"  {name:<14} {value:>14.6g} {unit:<10} {better}")

    if args.trace:
        from tracer import LAYER_METRICS

        traced = [r for r in reps if r.traced]
        layers = {name: statistics.median(r.layers[name] for r in traced)
                  for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - e2e["wall_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
        for name, unit, _ in LAYER_METRICS:
            print(f"  {name:<52} {layers[name]:>14.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

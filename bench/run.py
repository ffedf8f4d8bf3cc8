"""Layer and end-to-end timings of hybridprec, written as one JSON trajectory file.

Usage, from the root of a checkout (about two minutes on 2 cores):

    python3 bench/run.py --out bench/BENCH_<tag>.json

Every row is the median of ``--repeats`` timed runs, measured with
``time.perf_counter`` only, with BLAS pinned to one thread:

- ``factorize_sgd_batch.iteration.b<n>``: one iteration of the batched
  momentum-SGD factorizer at n = 20, 500, 2000 and 20000 instances, taken as
  (time of K iterations - time of 0 iterations) / K on ensemble channels,
  with the optimizer of ``configs/ber.cfg``. K is a multiple of the
  factorizer's 50-iteration stop window. The b20000 row also records
  ``traced_peak_mb``, the ``tracemalloc`` peak of one extra, untimed call
  of its K = 50 iterations;
- ``factorize_sgd_batch.start.b20000``: the 0-iteration call that the
  b20000 row subtracts, timed alone: each instance's start drawn from its
  own seed, the first product and loss, and the power normalization. It has
  no per-iteration figure;
- ``factorize_sgd.single.i600``: one call of the single-instance factorizer
  (a batch of one) at 600 iterations on one ensemble channel, nt = 16, the
  optimizer of ``configs/ber.cfg``; this is the path that acceptance
  criterion 4 and ``complexity-bench`` time;
- ``draw_ensemble.t20000``: channels, SVD and GMD of 20000 trials;
- ``build_dataset.n500``: the MLP training set of 500 channels: draws, GMD
  targets and feature vectors (trees before the dataset stream took a
  generator instead of a seed, and get ``default_rng(1)``);
- ``mlp_train.s1500``: 1500 training steps of the precoder MLP, batch 20, on
  500 channels (the dataset is built once, outside the timing);
- ``infer_precoders.c500``: one ``infer_precoders`` call of the stock
  (untrained) precoder MLP on 500 dataset-stream channels, features through
  decoded and power-normalized factors; each timed run is the mean of 20
  calls;
- ``cli_ber.t2000``: ``hybridprec ber`` on ``configs/ber.cfg`` at
  ``trials = 2000``, called in-process.

Beside the machine, the file records ``src_lines``: the line count (as
``wc -l``) of each ``src/hybridprec`` module and their total.

Host speed drifts by 1.3-2x within an hour on shared machines, so a fixed
numpy kernel that never calls hybridprec (the host-speed probe) is timed
before every row and after the last. Each row is reported raw and as a ratio
to the mean of the probes on either side of it; compare ratios across files.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hybridprec  # noqa: E402
from hybridprec.cli import main as cli_main  # noqa: E402
from hybridprec.channel import DATASET_STREAM, draw_channels  # noqa: E402
from hybridprec.dnn import build_dataset, build_precoder_mlp, infer_precoders, train  # noqa: E402
from hybridprec.precoder import FactorizeConfig, SystemDims, factorize_sgd, factorize_sgd_batch  # noqa: E402
from hybridprec.simulate import draw_ensemble  # noqa: E402

DIMS = SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2)
# instances -> timed iterations, each a multiple of the 50-iteration stop window
FACTORIZE_SIZES = {20: 1000, 500: 300, 2000: 100, 20000: 50}
SINGLE_ITERS = 600
DRAW_TRIALS = 20000
DATASET_SIZE = 500
TRAIN_STEPS = 1500
INFER_CHANNELS = 500
INFER_CALLS = 20
CLI_TRIALS = 2000
PROBE_RUNS = 5
PROBE_ITERS = 10


def probe_kernel(runs: int = PROBE_RUNS, iters: int = PROBE_ITERS) -> float:
    """Host speed: median seconds of ``runs`` runs of a fixed numpy kernel.

    The kernel is ``iters`` exact-exp factorization steps on 2000 fixed
    instances, written out here rather than imported, so that its time
    tracks the host and not the code under test.
    """
    rng = np.random.default_rng(12345)
    target = rng.standard_normal((2000, 16, 2)) + 1j * rng.standard_normal((2000, 16, 2))
    phases0 = rng.uniform(0.0, 2.0 * np.pi, (2000, 16, 4))
    digital0 = rng.standard_normal((2000, 4, 2)) + 1j * rng.standard_normal((2000, 4, 2))

    def kernel():
        phases, digital = phases0, digital0
        for _ in range(iters):
            analog = np.exp(1j * phases) / 4.0
            err = target - analog @ digital
            g_digital = np.conj(np.swapaxes(analog, 1, 2)) @ err
            g_phases = np.imag(np.conj(err @ np.conj(np.swapaxes(digital, 1, 2))) * analog)
            phases = phases - 1e-3 * g_phases
            digital = digital + 1e-3 * g_digital
            np.linalg.norm(err, axis=(1, 2))

    return statistics.median(timed(kernel) for _ in range(runs))


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def traced_peak_mb(fn) -> float:
    """The ``tracemalloc`` peak of one call of ``fn``, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def factorize_rows():
    ens = draw_ensemble(DIMS, max(FACTORIZE_SIZES), seed=1, point=0)
    for b, iters in FACTORIZE_SIZES.items():
        r1, seeds = ens.r1[:b], ens.factor_seeds[:b]

        def call(k, r1=r1, seeds=seeds):
            cfg = FactorizeConfig(learning_rate=0.02, max_iters=k, tolerance=0.0)
            return lambda: factorize_sgd_batch(r1, DIMS.nt_rf, cfg, seeds=seeds)

        def one_iteration(iters=iters, call=call):
            return (timed(call(iters)) - timed(call(0))) / iters

        info = {"instances": b, "iterations": iters}
        if b == max(FACTORIZE_SIZES):
            info["traced_peak_mb"] = traced_peak_mb(call(iters))
        yield f"factorize_sgd_batch.iteration.b{b}", one_iteration, info
    yield f"factorize_sgd_batch.start.b{b}", lambda: timed(call(0)), {"iterations": 0}


def single_row_factory():
    ens = draw_ensemble(DIMS, 1, seed=1, point=0)
    cfg = FactorizeConfig(learning_rate=0.02, max_iters=SINGLE_ITERS, tolerance=0.0, seed=int(ens.factor_seeds[0]))
    return lambda: timed(lambda: factorize_sgd(ens.r1[0], DIMS.nt_rf, cfg))


def draw_row():
    return timed(lambda: draw_ensemble(DIMS, DRAW_TRIALS, seed=1, point=0))


def training_set():
    if "rng" in inspect.signature(build_dataset).parameters:
        return build_dataset(DIMS, DATASET_SIZE, np.random.default_rng(1))
    return build_dataset(DIMS, DATASET_SIZE, 1)


def dataset_row():
    return timed(training_set)


def train_row_factory():
    data = training_set()
    cfg = FactorizeConfig(learning_rate=0.003, max_iters=TRAIN_STEPS, tolerance=0.0, batch=20, seed=1)

    def run():
        net = build_precoder_mlp(DIMS, seed=1, noise_sigma=0.1)
        return timed(lambda: train(net, data, cfg))

    return run


def infer_row_factory():
    net = build_precoder_mlp(DIMS, seed=1)
    channels = draw_channels(DIMS, INFER_CHANNELS, 1, DATASET_STREAM)

    def calls():
        for _ in range(INFER_CALLS):
            infer_precoders(net, channels)

    return lambda: timed(calls) / INFER_CALLS


def cli_row_factory(work: Path):
    text = (ROOT / "configs" / "ber.cfg").read_text()
    lines = [f"trials = {CLI_TRIALS}" if line.startswith("trials") else line for line in text.splitlines()]
    cfg_path = work / "ber.cfg"
    cfg_path.write_text("\n".join(lines) + "\n")

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return timed(lambda: cli_main(["ber", "--config", str(cfg_path), "--out", str(work / "out")]))

    return run


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": 1,
        "hybridprec": hybridprec.__version__,
    }


def src_lines() -> dict:
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted((ROOT / "src" / "hybridprec").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. bench/BENCH_<tag>.json")
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per row (default 3)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    probes = [probe_kernel()]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        jobs = list(factorize_rows())
        jobs.append((f"factorize_sgd.single.i{SINGLE_ITERS}", single_row_factory(), {"iterations": SINGLE_ITERS}))
        jobs.append((f"draw_ensemble.t{DRAW_TRIALS}", draw_row, {"trials": DRAW_TRIALS}))
        jobs.append((f"build_dataset.n{DATASET_SIZE}", dataset_row, {"samples": DATASET_SIZE}))
        jobs.append((f"mlp_train.s{TRAIN_STEPS}", train_row_factory(), {"steps": TRAIN_STEPS, "batch": 20}))
        jobs.append((f"infer_precoders.c{INFER_CHANNELS}", infer_row_factory(), {"channels": INFER_CHANNELS, "calls": INFER_CALLS}))
        jobs.append((f"cli_ber.t{CLI_TRIALS}", cli_row_factory(Path(tmp)), {"config": "configs/ber.cfg"}))
        for name, fn, info in jobs:
            runs = [fn() for _ in range(args.repeats)]
            probes.append(probe_kernel())
            seconds = statistics.median(runs)
            probe = (probes[-2] + probes[-1]) / 2.0
            row = {"name": name, "seconds": seconds, "runs": runs, "probe_s": probe, "ratio": seconds / probe, **info}
            if "instances" in info:
                row["us_per_instance_iter"] = seconds / info["instances"] * 1e6
            rows.append(row)
            print(f"{name:42s} {seconds:10.5f} s  ratio {seconds / probe:9.4f}", file=sys.stderr)
    result = {
        "machine": machine(),
        "src_lines": src_lines(),
        "probe": {"kernel": f"median of {PROBE_RUNS} runs of {PROBE_ITERS} exact-exp factorization steps, 2000 instances", "seconds": probes},
        "rows": rows,
        "total_s": time.perf_counter() - start,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out} in {result['total_s']:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

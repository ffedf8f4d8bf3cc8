"""Benchmark workloads: the CLI steps each one runs and the configs it generates.

Every workload uses the paper's system (nt=16, nr=8, nt_rf=nr_rf=4, ns=2,
p_nlos=3). The workload seed goes into each generated config as ``seed``;
nothing else about the inputs depends on it. This module imports neither
numpy nor hybridprec, so set-up timing can measure those imports on their own.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path

SYSTEM = {"nt": 16, "nr": 8, "nt_rf": 4, "nr_rf": 4, "ns": 2, "p_nlos": 3}

# Iterations of the mse curve that enter the reference check; the full
# trace has thousands of strongly correlated rows.
MSE_CHECKPOINTS = (0.0, 0.1, 0.5, 1.0)


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Step:
    """One CLI experiment: subcommand, config/output name and config keys."""

    kind: str
    name: str
    keys: dict

    @property
    def csv_name(self) -> str:
        return {"ber": "ber.csv", "se": "se.csv", "mse": "mse.csv", "train": "train_history.csv"}[self.kind]


def workload_steps(workload: str, nproc: int) -> tuple[Step, ...]:
    """The CLI steps of one workload, in the order they run."""
    if workload == "ber_digital":
        # No factorization and no network: ensemble draw plus link loop, one thread.
        # 600 trials per point keep a repetition near 3.5 s.
        return (
            Step("ber", "ber", {
                "snr_grid_db": (-20, -15, -10, -5, 0, 5, 10), "trials": 600,
                "schemes": ("fully_digital_gmd", "fully_digital_svd", "phase_projection"),
                "threads": 1,
            }),
        )
    if workload == "hybrid_curves":
        # Every factorization and the MLP: large-batch SGD in ber (the shipped
        # ber.cfg optimizer, two SNR points so that factorizing once per curve
        # can show), then training writes the model, se reads it back, and mse
        # runs batch-20 factorization. 800 steps at learning rate 0.01 train the
        # net far enough that its SE sits well above zero, so
        # checks.DNN_SE_SHARE catches a broken one.
        return (
            Step("ber", "ber", {
                "snr_grid_db": (-5, 5), "trials": 500, "schemes": ("sgd_hybrid",),
                "learning_rate": 0.02, "max_iters": 600, "tolerance": 0.0, "threads": nproc,
            }),
            Step("train", "train", {
                "train_size": 500, "batch_size": 20, "learning_rate": 0.01,
                "max_iters": 800, "tolerance": 0.0, "noise_sigma": 0.1,
            }),
            Step("se", "se", {
                "snr_grid_db": (0, 2.5, 5, 7.5, 10, 12.5, 15), "trials": 400,
                "schemes": ("dnn_hybrid", "fully_digital_gmd", "phase_projection"),
                "model": "../out/train/model.npz",
            }),
            Step("mse", "mse", {
                "trials": 20, "schemes": ("sgd_hybrid", "analog_only"),
                "learning_rate": 0.01, "max_iters": 2000, "tolerance": 0.0,
            }),
        )
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


WORKLOADS = ("ber_digital", "hybrid_curves")


def render_config(step: Step, seed: int) -> str:
    """``key = value`` text of one step's config, system keys first."""
    lines = []
    for key, value in {**SYSTEM, **step.keys, "seed": seed}.items():
        text = ", ".join(str(v) for v in value) if isinstance(value, tuple) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def config_digest(workload: str) -> str:
    """Hash of a workload's configs with the seed left out, to tie a reference to them.

    The thread count is left out too: results do not depend on it.
    """
    text = "".join(
        render_config(Step(s.kind, s.name, {k: v for k, v in s.keys.items() if k != "threads"}), 0)
        for s in workload_steps(workload, 1)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_configs(steps: tuple[Step, ...], seed: int, work: Path) -> dict[str, list[str]]:
    """Write each step's config under ``work/cfg`` and return its CLI argv."""
    cfg_dir = work / "cfg"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    argvs = {}
    for step in steps:
        path = cfg_dir / f"{step.name}.cfg"
        path.write_text(render_config(step, seed))
        argvs[step.name] = [step.kind, "--config", str(path), "--out", str(work / "out" / step.name)]
    return argvs


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def expected_keys(step: Step) -> set[tuple[str, float]]:
    """(scheme, x) pairs a curve CSV must hold: x is the SNR or the iteration."""
    if step.kind in ("ber", "se"):
        return {(s, float(x)) for s in step.keys["schemes"] for x in step.keys["snr_grid_db"]}
    if step.kind == "mse":
        return {(s, float(i)) for s in step.keys["schemes"] for i in range(step.keys["max_iters"] + 1)}
    return set()


_VALUE_COLUMN = {"ber": "ber", "se": "bits_per_s_hz", "mse": "mse", "train": "loss"}
_X_COLUMN = {"ber": "snr_db", "se": "snr_db", "mse": "iteration"}


def curve_values(step: Step, rows: list[dict]) -> dict[tuple[str, float], float]:
    """Map (scheme, x) to the curve value of each row of a ber/se/mse CSV."""
    x_col, v_col = _X_COLUMN[step.kind], _VALUE_COLUMN[step.kind]
    return {(r["scheme"], float(r[x_col])): float(r[v_col]) for r in rows}


def trials_of(step: Step, rows: list[dict]) -> int:
    """Monte-Carlo trials behind a CSV: one channel at one SNR point for one scheme.

    For mse a trial is one channel for one scheme; iterations are not trials.
    Training runs no trials.
    """
    if step.kind == "ber":
        return sum(int(r["trials"]) for r in rows)
    if step.kind == "se":
        return len(rows) * step.keys["trials"]
    if step.kind == "mse":
        return len(step.keys["schemes"]) * step.keys["trials"]
    return 0


def observations(steps: tuple[Step, ...], tables: dict[str, list[dict]]) -> dict[str, tuple[float, int | None]]:
    """Values checked against the reference, each with its binomial sample size.

    ``tables`` maps the name of each step whose CSV passed its checks to the
    parsed rows; other steps are skipped. Keys start with the
    step name. The sample size is the bit count behind a BER value and None
    elsewhere. Aggregates: ``<step>:mean`` over all rows of a ber or se
    step, ``<step>:final`` for sgd_hybrid at the last mse iteration.
    """
    obs: dict[str, tuple[float, int | None]] = {}
    for step in steps:
        rows = tables.get(step.name)
        if rows is None:
            continue
        if step.kind == "train":
            obs[f"{step.name}:final_loss"] = (float(rows[-1]["loss"]), None)
            continue
        values = curve_values(step, rows)
        if step.kind == "ber":
            n_bits = step.keys["trials"] * 2 * SYSTEM["ns"]
            for (scheme, snr), v in sorted(values.items()):
                obs[f"{step.name}:{scheme}@{snr:g}"] = (v, n_bits)
            obs[f"{step.name}:mean"] = (math.fsum(values.values()) / len(values), n_bits * len(values))
        elif step.kind == "se":
            for (scheme, snr), v in sorted(values.items()):
                obs[f"{step.name}:{scheme}@{snr:g}"] = (v, None)
            obs[f"{step.name}:mean"] = (math.fsum(values.values()) / len(values), None)
        else:
            last = step.keys["max_iters"]
            for scheme in step.keys["schemes"]:
                for frac in MSE_CHECKPOINTS:
                    it = round(frac * last)
                    obs[f"{step.name}:{scheme}@{it}"] = (values[(scheme, float(it))], None)
            obs[f"{step.name}:final"] = (values[("sgd_hybrid", float(last))], None)
    return obs

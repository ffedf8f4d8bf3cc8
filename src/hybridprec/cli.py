"""Configuration-driven experiment runner with CSV outputs and run manifests.

Subcommands: ber | se | mse | train | complexity-bench, each
reading a line-oriented ``key = value`` config file and writing CSV files, a
gnuplot script for the curve kinds, and a JSON manifest into the output
directory. Reruns with the same config and seed produce byte-identical CSV;
the manifest carries the wall-clock numbers and is the only file that
differs between reruns.

SNR convention everywhere: snr_db = 10*log10(ns / noise_sigma^2), i.e. total
transmit power (= ns, unit-power streams at full budget) over per-receive-
antenna noise variance. Published BER/SE figures rarely pin this down, so it
is fixed here once and documented in the README.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

import hybridprec
from hybridprec.channel import DATASET_STREAM, draw_channels
from hybridprec.decomp import gmd
from hybridprec.dnn import DEFAULT_NOISE_SIGMA, build_dataset, build_precoder_mlp, load_mlp, save_mlp, train
from hybridprec.precoder import FactorizeConfig, SystemDims, factorize_sgd
from hybridprec.simulate import (
    MSE_METHODS,
    SCHEME_IDS,
    ber_curve,
    mse_vs_iterations,
    se_curve,
    validate_schemes,
)

KINDS = ("ber", "se", "mse", "train", "complexity-bench")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description: its fields are the config keys, each typed by its default."""

    kind: str
    nt: int = 16
    nr: int = 8
    nt_rf: int = 4
    nr_rf: int = 4
    ns: int = 2
    p_nlos: int = SystemDims.p_nlos
    spacing_ratio: float = SystemDims.spacing_ratio
    snr_grid_db: tuple = (-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0)
    trials: int = 20000
    seed: int = FactorizeConfig.seed
    schemes: tuple = ("fully_digital_gmd", "fully_digital_svd", "sgd_hybrid", "phase_projection")
    learning_rate: float = FactorizeConfig.learning_rate
    momentum: float = FactorizeConfig.momentum
    max_iters: int = FactorizeConfig.max_iters
    tolerance: float = FactorizeConfig.tolerance
    batch_size: int = FactorizeConfig.batch
    threads: int = 1  # checked and recorded in the manifest, read by nothing; existing configs set it
    model: str = ""
    train_size: int = 500
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    nt_sweep: tuple = (16, 32, 64)
    bench_repeats: int = 5
    bench_iters: int = 50

    def __post_init__(self) -> None:
        """Check every rule on the keys, so a file, an override and a library caller all meet them.

        The rules of :class:`FactorizeConfig`, :class:`SystemDims` and :func:`validate_schemes`
        are re-raised as ConfigError. Each message names the keys it concerns.
        """
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        try:
            self.factorize_config()
            self.dims()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 0:
            raise ConfigError(f"threads must be >= 0, got {self.threads}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.bench_repeats < 1:
            # no timed repeat leaves every median undefined
            raise ConfigError(f"bench_repeats must be >= 1, got {self.bench_repeats}")
        if self.kind == "train" and self.train_size < 1:
            raise ConfigError(f"a run that trains needs train_size >= 1, got {self.train_size}")
        if self.kind in ("ber", "se", "mse"):
            try:
                validate_schemes(self.schemes, MSE_METHODS if self.kind == "mse" else SCHEME_IDS)
            except ValueError as exc:
                raise ConfigError(f"schemes: {exc}") from exc
        if self.kind in ("ber", "se") and not self.snr_grid_db:
            raise ConfigError(f"{self.kind} requires a non-empty snr_grid_db")
        if self.kind in ("ber", "se") and "dnn_hybrid" in self.schemes and not self.model:
            raise ConfigError("schemes: dnn_hybrid needs a model file; write one with the train subcommand and set model")
        if self.kind == "train" and self.max_iters < 1:
            # zero steps give an empty history: no loss to report, no trained model
            raise ConfigError(f"a run that trains needs max_iters >= 1, got {self.max_iters}")
        if self.kind == "complexity-bench":
            if len(self.nt_sweep) < 2:
                raise ConfigError("complexity-bench requires at least two nt_sweep values")
            if self.bench_iters < 1:
                # zero iterations would time a factorization that does no work
                raise ConfigError(f"bench_iters must be >= 1, got {self.bench_iters}")
            for nt in self.nt_sweep:
                try:
                    replace(self.dims(), nt=nt)
                except ValueError as exc:
                    raise ConfigError(f"nt_sweep: dimension rule violated ({exc}) at sweep nt={nt}") from exc

    def dims(self) -> SystemDims:
        return SystemDims(**{f.name: getattr(self, f.name) for f in fields(SystemDims)})

    def factorize_config(self) -> FactorizeConfig:
        return FactorizeConfig(
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            max_iters=self.max_iters,
            tolerance=self.tolerance,
            batch=self.batch_size,
            seed=self.seed,
        )


# every key takes its type from its default; a tuple default is a comma list
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.name != "kind"}


def _parse_value(key: str, raw: str, lineno: int):
    default = _DEFAULTS[key]
    try:
        if not isinstance(default, tuple):
            return _cast(type(default), raw)
        cast = type(default[0])
        # only a string list drops empty items
        value = tuple(_cast(cast, x.strip()) for x in raw.split(",") if x.strip() or cast is not str)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: cannot parse {key} = {raw!r}: {exc}") from exc
    if len(set(value)) < len(value):
        # a repeated grid point or scheme would write two rows under one key
        raise ConfigError(f"line {lineno}: repeated entry in {key} = {raw!r}")
    return value


def _cast(cast: type, raw: str):
    value = cast(raw)
    if cast is float and not np.isfinite(value):
        raise ValueError("value must be finite")
    return value


def parse_config(path: str | Path, kind: str) -> ExperimentConfig:
    """Read a ``key = value`` config file of the given kind, apply defaults, and build the config.

    Unknown keys are rejected with their line number, and so is a value that
    breaks a rule of :class:`ExperimentConfig`: its error names the last line
    among the keys the message names outside its quoted values. The kind
    (the CLI subcommand) is not a key of the file.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, lineno)
        lines[key] = lineno
    if kind == "mse" and "schemes" not in values:
        values["schemes"] = MSE_METHODS
    try:
        return ExperimentConfig(kind=kind, **values)
    except ConfigError as exc:
        # the message names its keys outside the quotes around values; FactorizeConfig's batch is batch_size
        unquoted = re.sub(r"'[^']*'", "", str(exc))
        named = ("batch_size" if word == "batch" else word for word in re.findall(r"\w+", unquoted))
        found = [lines[k] for k in named if k in lines]
        if not found:
            raise
        raise ConfigError(f"line {max(found)}: {exc}") from exc


def _fmt(x) -> str:
    """Shortest round-trip decimal text; deterministic across runs."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _model_for(cfg: ExperimentConfig, config_dir: Path):
    """Load the configured model when dnn_hybrid is requested; reject one whose codec or input width does not fit."""
    if "dnn_hybrid" not in cfg.schemes:
        return None
    path = config_dir / cfg.model
    net = load_mlp(str(path))
    # build_precoder_mlp's input is the real and imaginary parts of H
    dims = cfg.dims()
    want = (dims.nt, dims.nt_rf, dims.ns, 2 * dims.nt * dims.nr)
    codec = net.codec
    got = (codec.nt, codec.nt_rf, codec.ns, net.input_dim) if codec else None
    if got != want:
        raise ConfigError(
            f"model {path} does not fit the config: its (nt, nt_rf, ns, input_dim) is {got}, "
            f"the config needs {want} (input_dim = 2 * nt * nr)"
        )
    return net


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path, config_dir: str | Path = ".") -> list[Path]:
    """Dispatch one experiment and write its outputs.

    Returns the list of written files (CSV, plot script, model, manifest).
    On any error the partially written outputs are removed and the exception
    propagates. The manifest is written last, atomically.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stages: dict = {}
    extra: dict = {}
    outputs: list[Path] = []
    try:
        t0 = time.perf_counter()
        if cfg.kind in ("ber", "se"):
            net = _model_for(cfg, Path(config_dir))
            curves = (ber_curve if cfg.kind == "ber" else se_curve)(
                cfg.schemes, cfg.snr_grid_db, cfg.trials, cfg.dims(), cfg.seed,
                cfg=cfg.factorize_config(), net=net,
            )
            if cfg.kind == "ber":
                header = ["snr_db", "scheme", "ber", "ci_halfwidth", "trials"]
                rows = [
                    [snr, curve.scheme, ber, ci, cfg.trials]
                    for curve in curves
                    for snr, ber, ci in zip(curve.snr_db, curve.ber, curve.ci_halfwidth)
                ]
            else:
                header = ["snr_db", "scheme", "bits_per_s_hz"]
                rows = [[snr, curve.scheme, se] for curve in curves for snr, se in zip(curve.snr_db, curve.bits_per_s_hz)]
            _write_curve(out_dir, cfg.kind, header, rows, outputs)
        elif cfg.kind == "mse":
            channels = draw_channels(cfg.dims(), cfg.trials, cfg.seed, DATASET_STREAM)
            rows = []
            for method in cfg.schemes:
                curve = mse_vs_iterations(method, channels, cfg.dims(), cfg.factorize_config())
                rows.extend([it, method, mse] for it, mse in zip(curve.iteration, curve.mse))
            _write_curve(out_dir, "mse", ["iteration", "scheme", "mse"], rows, outputs)
        elif cfg.kind == "train":
            extra["training"] = _run_train(cfg, out_dir, stages, outputs)
        else:  # complexity-bench
            outputs.append(_run_complexity_bench(cfg, out_dir))
        stages["compute"] = time.perf_counter() - t0 - sum(stages.values())
        manifest = {
            "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
            "code_version": hybridprec.__version__,
            "stages_seconds": {k: round(v, 6) for k, v in stages.items()},
            **extra,
            "outputs": [p.name for p in outputs],
        }
        manifest_path = out_dir / "manifest.json"
        tmp = manifest_path.with_suffix(".json.tmp")
        outputs.append(tmp)
        tmp.write_text(json.dumps(manifest, indent=2) + "\n")
        os.replace(tmp, manifest_path)
        outputs[-1] = manifest_path
        return outputs
    except Exception:
        for p in outputs:
            try:
                p.unlink()
            except OSError:
                pass
        raise


def _run_train(cfg: ExperimentConfig, out_dir: Path, stages: dict, outputs: list[Path]) -> dict:
    """Build the dataset, train and save, timing the ``dataset``, ``train`` and ``save`` stages.

    Returns the manifest's ``training`` block. Each file joins ``outputs`` as
    soon as it is written, so a failed run removes the model it saved.
    """
    t0 = time.perf_counter()
    data = build_dataset(cfg.dims(), cfg.train_size, cfg.seed)
    t1 = time.perf_counter()
    net = build_precoder_mlp(cfg.dims(), seed=cfg.seed, noise_sigma=cfg.noise_sigma)
    net, history = train(net, data, cfg.factorize_config())
    t2 = time.perf_counter()
    model_path = out_dir / "model.npz"
    save_mlp(net, str(model_path))
    outputs.append(model_path)
    csv_path = out_dir / "train_history.csv"
    _write_csv(csv_path, ["epoch", "loss"], [[i, v] for i, v in enumerate(history, start=1)])
    outputs.append(csv_path)
    stages.update(dataset=t1 - t0, train=t2 - t1, save=time.perf_counter() - t2)
    print(f"final_train_loss={history[-1]:.6f} epochs={len(history)}")
    # train stops only at an epoch's end or at max_iters
    steps_per_epoch = -(-len(data) // cfg.batch_size)
    return {
        "epochs": len(history),
        "steps": min(cfg.max_iters, len(history) * steps_per_epoch),
        "final_loss": float(history[-1]),
    }


def _run_complexity_bench(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Median factorization wall-clock versus nt at a fixed iteration count."""
    bench_cfg = replace(cfg.factorize_config(), max_iters=cfg.bench_iters, tolerance=0.0)
    rows = []
    medians = []
    for nt in cfg.nt_sweep:
        h = draw_channels(replace(cfg.dims(), nt=nt), 1, cfg.seed, DATASET_STREAM)[0]
        r1 = gmd(h, cfg.ns).r1
        times = []
        for _ in range(cfg.bench_repeats):
            t0 = time.perf_counter()
            factorize_sgd(r1, cfg.nt_rf, bench_cfg)
            times.append(time.perf_counter() - t0)
        med = float(np.median(times))
        medians.append(med)
        rows.append([nt, med, cfg.bench_repeats, cfg.bench_iters])
    csv_path = out_dir / "complexity.csv"
    _write_csv(csv_path, ["nt", "median_seconds", "repeats", "iterations"], rows)
    ratio = medians[-1] / medians[0]
    print(
        f"time_ratio nt={cfg.nt_sweep[-1]} over nt={cfg.nt_sweep[0]}: {ratio:.2f} "
        f"(medians: {', '.join(f'{m:.4f}s' for m in medians)})"
    )
    return csv_path


_GNUPLOT_AXES = {
    "ber": ("snr_db", "ber", "set logscale y"),
    "se": ("snr_db", "bits_per_s_hz", "unset logscale"),
    "mse": ("iteration", "mse", "set logscale y"),
}


def _write_curve(out_dir: Path, kind: str, header: list[str], rows: list[list], outputs: list[Path]) -> None:
    """Write ``<kind>.csv`` and a standalone gnuplot script ``<kind>.gp`` next to it.

    Both come from the same header and rows, so the script references only
    columns that exist in the CSV, one line per scheme, with a logarithmic y
    axis for BER and MSE and linear axes for SE. No plotting dependency is
    needed here; gnuplot renders the file later. Each file joins ``outputs``
    as soon as it is written.
    """
    csv_path = out_dir / f"{kind}.csv"
    _write_csv(csv_path, header, rows)
    outputs.append(csv_path)
    x_col, y_col, scale_cmd = _GNUPLOT_AXES[kind]
    x_idx, y_idx, scheme_idx = (header.index(col) + 1 for col in (x_col, y_col, "scheme"))
    plots = ", \\\n  ".join(
        f"'{csv_path.name}' using (strcol({scheme_idx}) eq '{s}' ? ${x_idx} : NaN):{y_idx} "
        f"with linespoints title '{s}'"
        for s in sorted({row[scheme_idx - 1] for row in rows})
    )
    script = "\n".join(
        [
            "set datafile separator ','",
            "set key outside",
            f"set xlabel '{x_col}'",
            f"set ylabel '{y_col}'",
            scale_cmd,
            "set terminal pngcairo size 900,600",
            f"set output '{kind}.png'",
            f"plot {plots}",
            "",
        ]
    )
    gp_path = csv_path.with_suffix(".gp")
    gp_path.write_text(script)
    outputs.append(gp_path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hybridprec",
        description="Hybrid precoding experiments: BER/SE/MSE curves, DNN training, factorization timing.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", required=True, help="output directory for CSV and manifest")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, kind=args.kind)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        outputs = run_experiment(cfg, args.out, config_dir=Path(args.config).parent)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in outputs:
        print(f"wrote {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden outputs: every CSV, gnuplot script and ``model.npz`` of five short CLI runs keeps its sha256.

Each run is ``python -m hybridprec.cli`` in a subprocess, with BLAS on one
thread, on a shipped config with a few keys overridden (``RUNS``). The
committed ``golden.json`` holds each output's sha256 and the platform the
table was made on: numpy version, BLAS name and version, CPU model.

Floating-point results depend on the BLAS build and on the kernels it picks
for the CPU, so the hashes are compared only on the recorded platform, and
there every byte must match. On any other platform the test is skipped, and
the skip reason names both platforms.

A change that alters outputs on purpose regenerates the table, from the
root of a checkout, with

    python tests/test_golden.py
"""

import contextlib
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")

# run name -> (kind, shipped config, overridden keys), in run order: se_dnn reads train's model
RUNS = {
    "ber": ("ber", "ber.cfg", {"trials": "2000"}),
    "se": ("se", "se.cfg", {}),
    "mse": ("mse", "mse.cfg", {}),
    "train": ("train", "train.cfg", {"max_iters": "1500"}),
    "se_dnn": ("se", "se.cfg", {"schemes": "dnn_hybrid", "model": "train/model.npz"}),
}
HASHED_SUFFIXES = (".csv", ".gp", ".npz")


def platform_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}", "cpu": cpu}


def write_config(name: str, work: Path) -> Path:
    """The shipped config with the run's overrides replacing (or appended to) its lines."""
    _, shipped, overrides = RUNS[name]
    lines = []
    for line in (ROOT / "configs" / shipped).read_text().splitlines():
        key = line.partition("=")[0].strip()
        if key not in overrides:
            lines.append(line)
    lines.extend(f"{key} = {value}" for key, value in overrides.items())
    path = work / f"{name}.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def run_all(work: Path) -> dict:
    """Run every entry of ``RUNS`` under ``work`` and return ``{"<run>/<file>": sha256}``."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    hashes = {}
    for name, (kind, _, _) in RUNS.items():
        out = work / name
        cmd = [sys.executable, "-m", "hybridprec.cli", kind, "--config", str(write_config(name, work)), "--out", str(out)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} run failed ({proc.returncode}): {proc.stderr}")
        for path in sorted(out.iterdir()):
            if path.suffix in HASHED_SUFFIXES:
                hashes[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def test_outputs_match_the_golden_table(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = platform_record()
    if here != golden["platform"]:
        pytest.skip(f"golden table made on {golden['platform']}, this platform is {here}")
    hashes = run_all(tmp_path)
    changed = sorted(k for k in golden["sha256"].keys() | hashes.keys() if golden["sha256"].get(k) != hashes.get(k))
    assert not changed, f"outputs differ from the golden table on its platform {here}: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        table = {"platform": platform_record(), "sha256": run_all(Path(work))}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(table['sha256'])} files")

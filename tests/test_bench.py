import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_zero_repeats_rejected_before_any_run(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--out", str(out), "--repeats", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "argument --repeats: must be >= 1, got 0" in proc.stderr
    assert not out.exists()

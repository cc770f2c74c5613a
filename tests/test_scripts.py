import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_ionosphere.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=120
    )


def test_run_ionosphere_smoke(tmp_path):
    # 60 rows in the UCI raw layout: 34 numbers, then a g/b class tag
    rng = np.random.default_rng(0)
    tags = np.repeat(["g", "b"], 30)
    points = rng.normal(size=(60, 34)) + np.where(tags == "g", 1.5, -1.5)[:, None]
    path = tmp_path / "ionosphere.csv"
    path.write_text(
        "".join(",".join(f"{v:.5f}" for v in row) + f",{tag}\n" for row, tag in zip(points, tags))
    )
    proc = _run("--data", str(path), "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    assert "loaded 60 samples, 34 features" in proc.stdout
    assert "mean over 1 seeds:" in proc.stdout


def test_run_ionosphere_missing_data_exits_1(tmp_path):
    proc = _run("--data", str(tmp_path / "absent.csv"))
    assert proc.returncode == 1
    assert "not found" in proc.stderr


def test_run_ionosphere_malformed_data_exits_1(tmp_path):
    # an empty file and a non-numeric feature cell: an error line, no traceback
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,1.0,g\n0.5,oops,b\n")
    for path in (empty, bad):
        proc = _run("--data", str(path))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCRIPT = SCRIPTS / "run_ionosphere.py"


def _run(*args, script=SCRIPT):
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=120
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


def test_weight_step_cost_smoke():
    # one run per step and figure: a row per group with its calls and
    # iterations, and the per-iteration time split into products and the rest
    proc = _run("--repeats", "1", script=SCRIPTS / "weight_step_cost.py")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == [
        "group", "calls", "inner_iters", "us_per_iter", "products_us", "rest_us", "setup_us"
    ]
    groups = {}
    for row in rows:
        name, calls, iters, *figures = row.rsplit(maxsplit=6)
        groups[name] = (int(calls), int(iters), [float(v) for v in figures])
    assert list(groups) == ["tune n=120", "moons-400", "moons-200-noisy", "blobs-300"]
    # the tuner's 42 weight steps (tests/test_driver.py pins their iterations)
    assert groups["tune n=120"][0] == 42
    for calls, iters, (per_iter, products, rest, setup) in groups.values():
        assert calls >= 1 and iters >= 1
        assert products > 0.0 and setup > 0.0
        assert abs(per_iter - (products + rest)) <= 0.15

"""The benchmark's own tests: smoke runs of every workload, tracer behaviour.

    python3 -m pytest benchmark
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tracer import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# metrics the readable report prints, per workload where they apply
REPORTED = {
    "weighted-fit": ("accuracy_gap",),
    "lambda-sweep": ("entropy_min",),
    "spectral-large": (),
}
ALWAYS_REPORTED = ("setup_s", "wall_s", "slowest_s", "accuracy", "nmi", "failed_frac", "peak_rss_mb")


def _run(script: Path, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    done = _run(HERE / "run.py", workload, trace, HERE.parent)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    report = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert set(ALWAYS_REPORTED + REPORTED[workload]) <= report
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "seed", "heldout_seed"} <= set(env)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path / HERE.name / "run.py", "weighted-fit", 0, tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_missing_hook_is_recorded_as_absent():
    module = types.ModuleType("fake")
    module.present = lambda x: x + 1
    with Tracer() as tracer:
        tracer.hook(module, "present", "layer.present")
        tracer.hook(module, "removed_by_refactor", "layer.removed")
        assert module.present(1) == 2
    assert tracer.absent == ["fake.removed_by_refactor"]
    assert len(tracer.named("layer.present")) == 1 and tracer.named("layer.removed") == []
    assert module.present(1) == 2 and len(tracer.spans) == 1


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == 0
    assert tracer.self_time("outer") == pytest.approx(outer.seconds - inner.seconds)

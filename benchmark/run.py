"""Benchmark of the cdsk clustering pipeline.

    python3 benchmark/run.py --workload weighted-fit --seed 1 --seconds 20 --trace 0

Runs one workload in-process through the public library API and the ``cdsk``
CLI, repeats whole passes for about ``--seconds`` seconds (at least one), checks
every output, prints a readable report and, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` one more pass runs with
the layer hooks installed and the metrics are the per-layer ones.  ``--smoke``
runs the same code on tiny inputs in a few seconds.  Exit code 0 when every
check passes, 1 when one fails, 2 when the program cannot be found or set up.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("weighted-fit", "lambda-sweep", "spectral-large")
# Gain claims measured on the development seeds must also hold on this seed.
HELDOUT_SEED = 7919
# One BLAS thread: the weight step's many small matvecs run slower with two,
# and a fixed count keeps figures comparable across machine sizes.
BLAS_THREADS = "1"
SETUP_REPEATS = 5
CPU_CANDIDATES = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_s": "s",
    "accuracy": "ratio",
    "nmi": "ratio",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _prepare_process() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    cpu = _pin_fastest_cpu()
    if not (ROOT / "src" / "cdsk" / "__init__.py").is_file():
        print(f"error: no cdsk sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    return cpu


def _pin_fastest_cpu() -> int:
    """Pin this process (and the set-up probes it starts, which inherit it) to one CPU.

    On a shared host the CPUs run at different speeds from minute to minute,
    depending on what shares their cores and memory.  A process that lands on
    either at random widens the run-to-run spread, so the run stays on the
    CPU that currently runs a small dense kernel (solves and large matvecs)
    fastest.
    """
    cpus = sorted(os.sched_getaffinity(0))[:CPU_CANDIDATES]
    if len(cpus) == 1:
        return cpus[0]
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((300, 300)) + 300.0 * np.eye(300)
    large = rng.standard_normal((2000, 2000))
    vec = rng.standard_normal(2000)

    def kernel() -> float:
        start = time.perf_counter()
        for _ in range(10):
            np.linalg.solve(small, vec[:300])
            large @ vec
        return time.perf_counter() - start

    timings = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = min(kernel() for _ in range(3))
    fastest = min(timings, key=timings.get)
    os.sched_setaffinity(0, {fastest})
    return fastest


def _set_up(args, work_dir: Path):
    """Everything a user pays before the first call: imports, inputs, warm-up."""
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.smoke, work_dir)
    workloads.warm_up()
    return workloads, workload, inputs


def _setup_seconds(args, work_root: Path) -> float:
    """Median wall time of fresh processes that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=work_root, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            raise SystemExit(2)
    return statistics.median(times)


def _blas_threads():
    """Thread count reported by each loaded OpenBLAS, else the configured one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts.append(getter())
                break
    return counts or [int(BLAS_THREADS)]


def _environment(args, passes: int, program_seed: int, cpu: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "program_seed": program_seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "passes": passes,
        "closed_loop_callers": 1,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, inputs, seconds: float) -> tuple[list, float]:
    """Whole passes until the next one would overrun ``seconds`` (at least one).

    Also returns the peak resident set after set-up and the first pass: later
    passes only add allocator fragmentation, which would tie the figure to how
    many passes fit.
    """
    passes, start = [], time.perf_counter()
    while True:
        passes.append(workload.run_pass(inputs))
        if len(passes) == 1:
            peak_rss_mb = _peak_rss_mb()
        typical = statistics.median(sum(op.seconds for op in pass_ops) for pass_ops in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes, peak_rss_mb


def _mark_reruns(passes) -> None:
    """Reruns of the same inputs must return identical labels."""
    for pass_ops in passes[1:]:
        for first, op in zip(passes[0], pass_ops):
            if first.labels is not None and op.labels is not None and not (first.labels == op.labels).all():
                op.problems.append("labels differ from the first pass on identical inputs")


def _mean(values) -> float:
    """Mean of the scored values; 0 when nothing was scored (a failed run)."""
    scored = [v for v in values if not math.isnan(v)]
    return statistics.fmean(scored) if scored else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    cpu = _prepare_process()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        if args.setup_only:
            _set_up(args, Path(tmp))
            return 0
        setup_s = _setup_seconds(args, work_root)
        workloads, workload, inputs = _set_up(args, Path(tmp))
        reference = workload.reference(inputs) if workload.reference is not None else []
        untraced, peak_rss_mb = _measure(workload, inputs, args.seconds)
        untraced_wall = statistics.median(sum(op.seconds for op in pass_ops) for pass_ops in untraced)
        passes, layer_metrics, absent = list(untraced), None, []
        if args.trace:
            import layers
            from tracer import Tracer

            with Tracer() as tracer:
                layers.install_hooks(tracer)
                with tracer.span("pass") as span:
                    passes.append(workload.run_pass(inputs))
            layer_metrics = layers.per_layer_metrics(tracer, span.seconds, untraced_wall)
            absent = tracer.absent
        _mark_reruns(passes)

    ops = reference + [op for pass_ops in passes for op in pass_ops]
    failed = [op for op in ops if op.problems]
    first = passes[0]
    # quality comes from the timed outputs, or from the reference where the
    # timed operation returns no labels (`cdsk tune`)
    scored = first if any(not math.isnan(op.accuracy) for op in first) else reference
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": untraced_wall,
        "slowest_s": statistics.median(max(op.seconds for op in pass_ops) for pass_ops in untraced),
        "accuracy": _mean([op.accuracy for op in scored]),
        "nmi": _mean([op.nmi for op in scored]),
        "peak_rss_mb": peak_rss_mb,
    }
    report = dict(end_to_end)
    if reference and scored is first:
        base = {op.name: op.accuracy for op in reference}
        report["accuracy_gap"] = _mean([op.accuracy - base[op.name] for op in first])
    if any(not math.isnan(op.entropy_min) for op in first):
        report["entropy_min"] = min(op.entropy_min for op in first if not math.isnan(op.entropy_min))
    report["failed_frac"] = len(failed) / len(ops)
    units = dict(END_TO_END_UNITS, accuracy_gap="ratio", entropy_min="nats", failed_frac="ratio")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)}  trace {args.trace}")
    for op in reference:
        print(f"  reference {op.name:<20} {op.seconds:9.3f} s  accuracy {op.accuracy:.4f}  nmi {op.nmi:.4f}")
    for op in first:
        print(f"  op {op.name:<27} {op.seconds:9.3f} s  accuracy {op.accuracy:.4f}  nmi {op.nmi:.4f}")
    for name, value in report.items():
        print(f"  {name:<16} {value!r} {units[name]}")
    if layer_metrics is not None:
        for name, entry in layer_metrics.items():
            print(f"  layer {name:<34} {entry['value']!r} {entry['unit']}")
        if absent:
            print(f"  absent hooks: {', '.join(absent)}")
    for op in failed:
        print(f"  FAILED {op.name}: {'; '.join(op.problems)}")
    print("env " + json.dumps(_environment(args, len(untraced), workloads.PROGRAM_SEED, cpu)))

    metrics = layer_metrics if args.trace else {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in end_to_end.items()
    }
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())

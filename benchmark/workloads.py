"""The three workloads: their instances, one timed pass, and output checks.

Every workload is a closed loop: one process, one caller, one operation at a
time.  Instance data come from fixed generator seeds, so each workload keeps
its character (and the known noisy-moons defect stays in).  The workload seed
moves the inputs without changing the problem: it applies a random rotation
and, where the program does not subsample by row index, a random row order.
Both leave every pairwise distance and inner product unchanged, so the work
per pass and the expected quality stay put while the bytes the program sees
differ from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import cdsk.cli
import cdsk.driver
from cdsk.data_io import SampleMatrix, make_blobs, make_two_moons, read_result, write_csv

# Seed handed to the program itself (k-means restarts, tuner subsample).
PROGRAM_SEED = 2
SIMPLEX_TOL = 1e-10
# the acceptance suite's slack for a nonincreasing objective trace
MONOTONE_REL = 1e-8
METRIC_TOL = 1e-12


@dataclass(frozen=True)
class Instance:
    name: str
    data: SampleMatrix
    c: int
    bandwidth: float | None


@dataclass
class Op:
    """One timed call into the program and what its checks found."""

    name: str
    seconds: float
    problems: list[str]
    labels: np.ndarray | None = None
    accuracy: float = math.nan
    nmi: float = math.nan
    entropy_min: float = math.nan


@dataclass
class Inputs:
    instances: list[Instance]
    work_dir: Path
    csv_path: Path | None = None


def _moved(sample: SampleMatrix, rng: np.random.Generator, permute: bool) -> SampleMatrix:
    """Rotate (Haar-uniform orthogonal map) and optionally reorder the rows."""
    q, r = np.linalg.qr(rng.standard_normal((sample.d, sample.d)))
    q = q * np.sign(np.diag(r))
    order = rng.permutation(sample.n) if permute else np.arange(sample.n)
    return SampleMatrix(sample.data[order] @ q.T, sample.labels[order])


def _instances(specs, seed: int, permute: bool) -> list[Instance]:
    out = []
    for index, (name, sample, bandwidth) in enumerate(specs):
        rng = np.random.default_rng([seed % (1 << 64), index])
        out.append(Instance(name, _moved(sample, rng, permute), int(sample.labels.max()), bandwidth))
    return out


def score(labels: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Accuracy under the best one-to-one matching, and sqrt-normalized NMI.

    Computed here rather than read from the program, so a change to the
    library's metric code cannot move the benchmark's quality figures.
    """
    pred_ids, pred = np.unique(labels, return_inverse=True)
    true_ids, true = np.unique(truth, return_inverse=True)
    table = np.zeros((pred_ids.size, true_ids.size))
    np.add.at(table, (pred, true), 1.0)
    rows, cols = linear_sum_assignment(-table)
    acc = float(table[rows, cols].sum() / labels.size)
    joint = table / labels.size
    pp, pt = joint.sum(axis=1), joint.sum(axis=0)
    hp = -float(np.sum(pp * np.log(pp)))
    ht = -float(np.sum(pt * np.log(pt)))
    if hp == 0.0 or ht == 0.0:
        return acc, 1.0 if hp == ht else 0.0
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pp, pt)[nz])))
    return acc, mi / math.sqrt(hp * ht)


def check_clustering(op: Op, result, inst: Instance) -> None:
    """Labels in {1..c} with length n, alpha on the simplex, monotone trace."""
    n = inst.data.n
    labels = np.asarray(result.labels)
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
        op.problems.append(f"labels have shape {labels.shape} and dtype {labels.dtype}, expected ({n},) integers")
        return
    op.labels = labels
    if labels.min() < 1 or labels.max() > inst.c:
        op.problems.append(f"labels span {labels.min()}..{labels.max()}, expected 1..{inst.c}")
    alpha = np.asarray(result.alpha, dtype=np.float64)
    if (
        alpha.shape != (n,)
        or not np.all(np.isfinite(alpha))
        or alpha.min() < -SIMPLEX_TOL
        or abs(alpha.sum() - 1.0) > SIMPLEX_TOL
    ):
        op.problems.append("alpha is off the probability simplex")
    trace = list(result.objective_trace)
    for k, (prev, cur) in enumerate(zip(trace, trace[1:])):
        if cur - prev > MONOTONE_REL * max(1.0, abs(prev)):
            op.problems.append(f"objective trace rises at iteration {k + 1}: {prev} -> {cur}")
            break
    op.accuracy, op.nmi = score(labels, inst.data.labels)
    reported = result.metrics or {}
    for key, mine in (("accuracy", op.accuracy), ("nmi", op.nmi)):
        if key in reported and abs(float(reported[key]) - mine) > METRIC_TOL:
            op.problems.append(f"reported {key} {reported[key]} differs from the labels' {mine}")


def _timed(name: str, call) -> tuple[Op, object]:
    """Run one operation; an exception becomes a failed operation."""
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:
        return Op(name, time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]), None
    return Op(name, time.perf_counter() - start, []), out


def _check(op: Op, check) -> None:
    """Run an output check; a check that raises fails the operation."""
    try:
        check()
    except Exception as exc:
        op.problems.append(f"check raised {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------- weighted-fit


def weighted_fit_inputs(seed: int, smoke: bool, work_dir: Path) -> Inputs:
    centers = [[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]]
    if smoke:
        specs = [
            ("moons-40", make_two_moons(40, 0.05, seed=1), 0.3),
            ("moons-30-noisy", make_two_moons(30, 0.15, seed=2), 0.3),
            ("blobs-45", make_blobs(15, centers, 1.0, seed=3), None),
        ]
    else:
        specs = [
            ("moons-400", make_two_moons(400, 0.05, seed=1), 0.1),
            # known defect: CDSK 0.73 against the baseline's 0.925
            ("moons-200-noisy", make_two_moons(200, 0.15, seed=2), 0.1),
            ("blobs-300", make_blobs(100, centers, 1.0, seed=3), None),
        ]
    return Inputs(_instances(specs, seed, permute=True), work_dir)


def spectral_baseline(inputs: Inputs) -> list[Op]:
    """Uniform-weight spectral clustering of every instance, one op each."""
    ops = []
    for inst in inputs.instances:
        op, result = _timed(
            inst.name,
            lambda: cdsk.driver.run_baseline_spectral(inst.data, inst.c, seed=PROGRAM_SEED, bandwidth=inst.bandwidth),
        )
        if result is not None:
            _check(op, lambda: check_clustering(op, result, inst))
        ops.append(op)
    return ops


def weighted_fit_pass(inputs: Inputs) -> list[Op]:
    ops = []
    for inst in inputs.instances:
        config = cdsk.driver.CdskConfig(c=inst.c, bandwidth=inst.bandwidth, seed=PROGRAM_SEED)
        op, result = _timed(inst.name, lambda: cdsk.driver.run_cdsk(inst.data, config))
        if result is not None:
            _check(op, lambda: check_clustering(op, result, inst))
        ops.append(op)
    return ops


# ---------------------------------------------------------------- lambda-sweep


def lambda_sweep_inputs(seed: int, smoke: bool, work_dir: Path) -> Inputs:
    # n=1200 gives the tuner a 120-point subsample: ~40 small weight-step QPs
    # and a pass of ~2 s, so a run repeats it many times and reports a median
    n = 200 if smoke else 1200
    bandwidth = 0.3 if smoke else 0.1
    # no row permutation: the tuner draws its validation subsample by row
    # index, and a reordered file would hand it different points
    inst = _instances([(f"moons-{n}-noisy", make_two_moons(n, 0.15, seed=1), bandwidth)], seed, permute=False)[0]
    path = work_dir / "moons.csv"
    write_csv(inst.data, path)
    return Inputs([inst], work_dir, csv_path=path)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cdsk.cli.main(argv)
    return code, out.getvalue()


def _report_values(text: str) -> dict[str, str]:
    pairs = (line.split(":", 1) for line in text.splitlines() if ":" in line)
    return {key.strip(): value.strip() for key, value in pairs}


def _cli_flags(inputs: Inputs) -> list[str]:
    inst = inputs.instances[0]
    return [
        "--input", str(inputs.csv_path), "--labels", str(inst.data.d),
        "--clusters", str(inst.c), "--bandwidth", repr(inst.bandwidth), "--seed", str(PROGRAM_SEED),
    ]


def lambda_sweep_reference(inputs: Inputs) -> list[Op]:
    """`cdsk baseline` on the same file; `cdsk tune` prints no labels to score."""
    doc = inputs.work_dir / "baseline.json"
    op, out = _timed("cli-baseline", lambda: _cli(["baseline", *_cli_flags(inputs), "--output", str(doc)]))
    if out is not None:
        _check(op, lambda: _check_baseline(op, out[0], doc, inputs.instances[0]))
    return [op]


def lambda_sweep_pass(inputs: Inputs) -> list[Op]:
    op, out = _timed("cli-tune", lambda: _cli(["tune", *_cli_flags(inputs)]))
    if out is not None:
        _check(op, lambda: _check_tune(op, *out))
    return [op]


def _check_baseline(op: Op, code: int, doc: Path, inst: Instance) -> None:
    if code != 0:
        op.problems.append(f"`cdsk baseline` exited with {code}")
    else:
        check_clustering(op, read_result(doc), inst)


def _check_tune(op: Op, code: int, text: str) -> None:
    """Exit 0, one finite entropy per grid value, chosen lambda in the grid."""
    if code != 0:
        op.problems.append(f"`cdsk tune` exited with {code}")
        return
    values = _report_values(text)
    grid = [float(v) for v in values["lambda_grid"].split()]
    chosen = float(values["chosen_lambda"])
    entropies = {float(k.split()[1]): float(v) for k, v in values.items() if k.startswith("entropy ")}
    if sorted(entropies) != sorted(grid):
        op.problems.append("tune report does not give one entropy per grid value")
    if not all(math.isfinite(v) for v in entropies.values()):
        op.problems.append("tune reports a non-finite entropy")
    if chosen not in grid:
        op.problems.append(f"chosen lambda {chosen} is not in the grid")
    if not op.problems:
        op.entropy_min = min(entropies.values())


# ---------------------------------------------------------------- spectral-large


def spectral_large_inputs(seed: int, smoke: bool, work_dir: Path) -> Inputs:
    per_blob = 100 if smoke else 1000
    n_moons = 900 if smoke else 4000
    centers = 1.5 * np.random.default_rng(5).standard_normal((3, 34))
    blobs = make_blobs(per_blob, centers, 1.0, seed=6)
    specs = [
        (f"moons-{n_moons}", make_two_moons(n_moons, 0.05, seed=4), 0.1),
        (f"blobs-{3 * per_blob}-d34", blobs, None),
    ]
    return Inputs(_instances(specs, seed, permute=True), work_dir)


@dataclass(frozen=True)
class Workload:
    """``reference`` runs once, untimed, before the passes; its ops are checked
    and counted like the timed ones."""

    name: str
    make_inputs: object
    run_pass: object
    reference: object = None


WORKLOADS = {
    w.name: w
    for w in (
        # the reference is the uniform baseline behind accuracy_gap
        Workload("weighted-fit", weighted_fit_inputs, weighted_fit_pass, spectral_baseline),
        Workload("lambda-sweep", lambda_sweep_inputs, lambda_sweep_pass, lambda_sweep_reference),
        Workload("spectral-large", spectral_large_inputs, spectral_baseline),
    )
}


def warm_up() -> None:
    """First-call BLAS and ARPACK set-up (n above the dense eigensolver limit)."""
    cdsk.driver.run_baseline_spectral(make_two_moons(900, 0.05, seed=0), 2, bandwidth=0.1)

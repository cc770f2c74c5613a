"""Dataset container, CSV/JSON round-trip helpers, synthetic generators."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import ParseError, ValidationError

_LABEL_INT_TOL = 1e-9
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class SampleMatrix:
    """n samples in d dimensions, optional 1-based integer class labels."""

    data: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValidationError(f"data must be 2-D, got shape {data.shape}")
        n, d = data.shape
        if n < 2:
            raise ValidationError(f"need at least 2 samples, got {n}")
        if d < 1:
            raise ValidationError("need at least 1 feature")
        if not np.all(np.isfinite(data)):
            raise ValidationError("data contains non-finite entries")
        object.__setattr__(self, "data", data)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (n,):
                raise ValidationError(
                    f"labels shape {labels.shape} does not match n={n}"
                )
            if not np.all(np.abs(labels - np.round(labels)) <= _LABEL_INT_TOL):
                raise ValidationError("labels must be integers")
            labels = np.round(labels).astype(np.int64)
            c = labels.max(initial=0)
            if labels.min(initial=1) < 1 or c < 1:
                raise ValidationError("labels must lie in {1..c}")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def _relabel_to_contiguous(values: np.ndarray) -> np.ndarray:
    """Map integer label values onto {1..c} by sorted order of the vocabulary."""
    return (np.unique(values, return_inverse=True)[1] + 1).astype(np.int64)


def load_csv(path, label_column: int | None = None, header: bool = False) -> SampleMatrix:
    """Read a numeric CSV into a SampleMatrix.

    No header line is expected by default; pass header=True to skip line 1.
    label_column is a 0-based column index whose (integer) values become the
    class labels; label values are mapped onto {1..c} preserving sorted order.
    """
    rows: list[list[float]] = []
    raw_labels: list[float] = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        width = None
        for lineno, cells in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not cells or (len(cells) == 1 and cells[0].strip() == ""):
                continue
            try:
                values = [float(cell) for cell in cells]
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: non-numeric cell") from exc
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(values)}"
                )
            if label_column is not None:
                if not 0 <= label_column < len(values):
                    raise ValidationError(
                        f"label column {label_column} out of range for {len(values)} columns"
                    )
                lab = values.pop(label_column)
                # math.isfinite first: round() raises on nan and inf
                if not (math.isfinite(lab) and abs(lab - round(lab)) <= _LABEL_INT_TOL):
                    raise ValidationError(
                        f"{path}: line {lineno}: label {lab!r} is not an integer"
                    )
                if not _INT64_MIN <= round(lab) <= _INT64_MAX:
                    raise ValidationError(
                        f"{path}: line {lineno}: label {lab!r} is outside the 64-bit integer range"
                    )
                raw_labels.append(round(lab))
            rows.append(values)
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least 2 data rows, got {len(rows)}")
    data = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: non-finite value in data")
    labels = None
    if label_column is not None:
        labels = _relabel_to_contiguous(np.array(raw_labels, dtype=np.int64))
    return SampleMatrix(data=data, labels=labels)


def write_csv(sample: SampleMatrix, path) -> None:
    """Write features (and labels, as a final column) back out as plain CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(sample.n):
            row = [repr(v) for v in sample.data[i].tolist()]
            if sample.labels is not None:
                row.append(str(int(sample.labels[i])))
            writer.writerow(row)


def make_blobs(n_per_cluster: int, centers, sigma: float, seed: int = 0) -> SampleMatrix:
    """Isotropic Gaussian blobs; labels are 1-based center indices."""
    try:
        centers = np.asarray(centers, dtype=np.float64)
    except ValueError:  # ragged rows, or entries that are not numbers
        raise ValidationError("centers must be numeric rows of equal length") from None
    if centers.ndim != 2 or centers.shape[0] < 2:
        raise ValidationError("need at least 2 centers, one per row")
    if n_per_cluster < 1:
        raise ValidationError("n_per_cluster must be >= 1")
    if not 0 < sigma < np.inf:
        raise ValidationError(f"sigma must be finite and > 0, got {sigma}")
    rng = np.random.default_rng(seed)
    chunks = []
    labels = []
    for k, center in enumerate(centers, start=1):
        chunks.append(center + sigma * rng.standard_normal((n_per_cluster, centers.shape[1])))
        labels.extend([k] * n_per_cluster)
    return SampleMatrix(np.vstack(chunks), np.array(labels, dtype=np.int64))


def make_two_moons(n: int, noise: float, seed: int = 0) -> SampleMatrix:
    """Two interleaved half-circles of n/2 points each; labels 1 and 2.

    With noise=0 each moon lies exactly on a unit circle (centers (0,0) and
    (1, 0.5)).
    """
    if n < 4 or n % 2 != 0:
        raise ValidationError("n must be an even number >= 4")
    if not 0 <= noise < np.inf:
        raise ValidationError(f"noise must be finite and >= 0, got {noise}")
    half = n // 2
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, np.pi, half)
    outer = np.column_stack([np.cos(t), np.sin(t)])
    inner = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    pts = np.vstack([outer, inner])
    if noise > 0:
        pts = pts + noise * rng.standard_normal(pts.shape)
    labels = np.concatenate([np.ones(half, dtype=np.int64), np.full(half, 2, dtype=np.int64)])
    return SampleMatrix(pts, labels)


@dataclass
class ClusteringResult:
    """Output of one clustering run."""

    labels: np.ndarray
    alpha: np.ndarray
    objective_trace: list[float]
    metrics: dict | None
    lambda_used: float
    bandwidth_used: float
    seed: int
    qp_converged: bool


_RESULT_KEYS = (
    "labels",
    "alpha",
    "objective_trace",
    "metrics",
    "lambda",
    "bandwidth",
    "seed",
    "qp_converged",
)


def write_result(result: ClusteringResult, path) -> None:
    """Serialize a ClusteringResult as a JSON document with fixed keys."""
    doc = {
        "labels": [int(v) for v in result.labels.tolist()],
        "alpha": [float(v) for v in np.asarray(result.alpha).tolist()],
        "objective_trace": [float(v) for v in result.objective_trace],
        "metrics": result.metrics,
        "lambda": float(result.lambda_used),
        "bandwidth": float(result.bandwidth_used),
        "seed": int(result.seed),
        "qp_converged": bool(result.qp_converged),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _is_number(value) -> bool:
    """A finite JSON number; JSON true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def read_result(path) -> ClusteringResult:
    """Inverse of write_result; raises ParseError on malformed documents.

    Every field must have the type write_result gives it, and labels and
    alpha must have one entry per sample; the error names the key that does
    not.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read result document {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: a result document must be a JSON object")
    missing = [k for k in _RESULT_KEYS if k not in doc]
    if missing:
        raise ParseError(f"{path}: missing result keys {missing}")

    def fail(key: str, expected: str) -> NoReturn:
        raise ParseError(f"{path}: {key} must be {expected}")

    def numbers(key: str) -> list[float]:
        if not isinstance(doc[key], list) or not all(_is_number(v) for v in doc[key]):
            fail(key, "a list of finite numbers")
        return [float(v) for v in doc[key]]

    def number(key: str) -> float:
        if not _is_number(doc[key]):
            fail(key, "a finite number")
        return float(doc[key])

    alpha = numbers("alpha")
    labels = doc["labels"]
    # cluster ids run from 1 to c <= n
    if not isinstance(labels, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= len(labels) for v in labels
    ):
        fail("labels", "a list of integers in 1..n")
    if len(labels) != len(alpha):
        raise ParseError(f"{path}: labels has {len(labels)} entries but alpha has {len(alpha)}")
    metrics = doc["metrics"]
    if metrics is not None and not (
        isinstance(metrics, dict) and all(_is_number(v) for v in metrics.values())
    ):
        fail("metrics", "null or an object of finite numbers")
    seed = doc["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        fail("seed", "a nonnegative integer")
    if not isinstance(doc["qp_converged"], bool):
        fail("qp_converged", "true or false")
    return ClusteringResult(
        labels=np.array(labels, dtype=np.int64),
        alpha=np.array(alpha, dtype=np.float64),
        objective_trace=numbers("objective_trace"),
        metrics=metrics,
        lambda_used=number("lambda"),
        bandwidth_used=number("bandwidth"),
        seed=seed,
        qp_converged=doc["qp_converged"],
    )

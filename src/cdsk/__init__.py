"""Clustering by discriminative similarity with learned per-point kernel weights."""

from .data_io import (
    ClusteringResult,
    SampleMatrix,
    load_csv,
    make_blobs,
    make_two_moons,
    read_result,
    write_csv,
    write_result,
)
from .driver import CdskConfig, run_baseline_spectral, run_cdsk, tune_lambda
from .kernel import GramMatrix, KernelSpec, default_bandwidth, eval_kernel, gram
from .kmeans_metrics import Partition, accuracy, kmeans, nmi
from .spectral import PsdSplit, psd_split

__all__ = [
    "CdskConfig",
    "ClusteringResult",
    "GramMatrix",
    "KernelSpec",
    "Partition",
    "PsdSplit",
    "SampleMatrix",
    "accuracy",
    "default_bandwidth",
    "eval_kernel",
    "gram",
    "kmeans",
    "load_csv",
    "make_blobs",
    "make_two_moons",
    "nmi",
    "psd_split",
    "read_result",
    "run_baseline_spectral",
    "run_cdsk",
    "tune_lambda",
    "write_csv",
    "write_result",
]

__version__ = "0.1.0"

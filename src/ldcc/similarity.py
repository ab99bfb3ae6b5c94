"""Task similarity from posterior Dirichlet parameters.

A task's embedding is the Dirichlet parameter lambda of its inferred
task-theme posterior.  Dissimilarity is the closed-form KL divergence
between Dirichlet distributions, directed from the test task's posterior to
the training task's.  On top of that sit the mean-distance report, the
distance-vs-accuracy correlation diagram, and nearest-task selection.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .data import read_table, write_table
from .errors import DataError, DomainError, FormatError, NumericError
from .special import digamma, log_beta_dirichlet, log_beta_rows

_NEGATIVE_KL_TOL = -1e-9


def dirichlet_kl(a, b) -> float:
    """KL[Dir(a) || Dir(b)] in closed form.

    ln B(b) - ln B(a) + sum_k (a_k - b_k)(psi(a_k) - psi(sum_j a_j))
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"parameter vectors must match, got {a.shape} and {b.shape}")
    with np.errstate(over="ignore"):
        if not (np.isfinite(a.sum()) and np.isfinite(b.sum())):
            raise NumericError("dirichlet parameters overflow the KL computation")
    value = (
        log_beta_dirichlet(b)
        - log_beta_dirichlet(a)
        + ((a - b) * (digamma(a) - digamma(a.sum()))).sum()
    )
    return float(value)


@dataclass
class DistanceReport:
    """Per-test-task mean KL to the training tasks, plus the full matrix."""

    mean_kl: np.ndarray
    matrix: np.ndarray | None = None


def _kl_matrix(test_lambdas, train_lambdas) -> np.ndarray:
    """KL[Dir(test_i) || Dir(train_d)] for every pair, checked and clamped at 0.

    All pairs are computed in one array pass.  With
    E_i = psi(a_i) - psi(sum a_i), entry (i, d) is

        (ln B(b_d) - ln B(a_i)) + (a_i . E_i - E_i . b_d).

    Both dot products add the themes one at a time in the same order, so an
    identical pair gives exactly 0, equal training rows give bit-equal
    columns, and the result does not depend on BLAS or its thread count.
    """
    test = np.asarray(test_lambdas, dtype=np.float64)
    train = np.asarray(train_lambdas, dtype=np.float64)
    if test.ndim != 2 or train.ndim != 2:
        raise ValueError("lambda inputs must be 2-d (tasks by themes)")
    if test.shape[1] != train.shape[1]:
        raise DataError(
            f"test and train lambdas disagree on theme count: "
            f"{test.shape[1]} vs {train.shape[1]}"
        )
    if test.shape[1] == 0:
        raise DomainError("dirichlet parameters need at least one theme")
    with np.errstate(over="ignore"):
        if not (np.isfinite(test.sum(axis=1)).all() and np.isfinite(train.sum(axis=1)).all()):
            raise NumericError("dirichlet parameters overflow the KL computation")
    expected = digamma(test) - digamma(test.sum(axis=1))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        self_term = test[:, 0] * expected[:, 0]
        matrix = np.multiply.outer(expected[:, 0], train[:, 0])
        scratch = np.empty_like(matrix)
        for k in range(1, test.shape[1]):
            self_term += test[:, k] * expected[:, k]
            matrix += np.multiply.outer(expected[:, k], train[:, k], out=scratch)
        np.subtract(self_term[:, None], matrix, out=matrix)
        matrix += np.subtract(log_beta_rows(train)[None, :], log_beta_rows(test)[:, None], out=scratch)
    if matrix.min() < _NEGATIVE_KL_TOL or not np.isfinite(matrix).all():
        raise NumericError(
            f"KL matrix contains invalid entries (min {matrix.min()})"
        )
    return np.maximum(matrix, 0.0, out=matrix)


def distance_matrix(test_lambdas, train_lambdas, keep_matrix=True) -> DistanceReport:
    """KL of every test posterior from every training posterior.

    Entry (i, d) is dirichlet_kl(test_i, train_d), clamped at 0; mean_kl
    averages each row.  The whole matrix costs one O(n_test * n_train * L)
    array pass.
    """
    matrix = _kl_matrix(test_lambdas, train_lambdas)
    return DistanceReport(mean_kl=matrix.mean(axis=1), matrix=matrix if keep_matrix else None)


@dataclass
class DiagramBin:
    """One occupied bin of the correlation diagram."""

    index: int
    low: float
    high: float
    mean_distance: float
    mean_accuracy: float
    count: int


def correlation_diagram(distances, accuracies, num_bins: int) -> list[DiagramBin]:
    """Bin tasks by mean distance and average accuracy within each bin.

    Bin j covers ((j - 1) w, j w] with w = max(distances) / num_bins; exact
    zeros land in bin 1, empty bins are omitted.  If every distance is zero
    the single degenerate bin (0, 0] holds everything.
    """
    distances = np.asarray(distances, dtype=np.float64)
    accuracies = np.asarray(accuracies, dtype=np.float64)
    if distances.ndim != 1 or distances.shape != accuracies.shape:
        raise ValueError("distances and accuracies must be matching vectors")
    if distances.size == 0:
        raise ValueError("cannot bin an empty distance vector")
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    if (distances < 0).any() or not np.isfinite(distances).all():
        raise ValueError("distances must be finite and nonnegative")
    top = distances.max()
    if top == 0.0:
        return [
            DiagramBin(
                index=1,
                low=0.0,
                high=0.0,
                mean_distance=0.0,
                mean_accuracy=float(accuracies.mean()),
                count=int(distances.size),
            )
        ]
    width = top / num_bins
    assignment = np.ceil(distances / width).astype(int)
    assignment = np.clip(assignment, 1, num_bins)
    bins = []
    for j in range(1, num_bins + 1):
        members = assignment == j
        if not members.any():
            continue
        bins.append(
            DiagramBin(
                index=j,
                low=float((j - 1) * width),
                high=float(j * width),
                mean_distance=float(distances[members].mean()),
                mean_accuracy=float(accuracies[members].mean()),
                count=int(members.sum()),
            )
        )
    return bins


def select_tasks(train_lambdas, test_lambdas, count: int) -> list[int]:
    """Indices of the `count` training tasks closest to the test set.

    A training task's score is its mean KL from all test posteriors;
    smallest scores win, ties broken by ascending index.
    """
    train_lambdas = np.asarray(train_lambdas, dtype=np.float64)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > train_lambdas.shape[0]:
        raise ValueError(
            f"cannot select {count} of {train_lambdas.shape[0]} training tasks"
        )
    if count == 0:
        return []
    scores = _kl_matrix(test_lambdas, train_lambdas).mean(axis=0)
    order = np.lexsort((np.arange(scores.size), scores))
    return [int(i) for i in order[:count]]


def write_distance_csv(path, ids, mean_kl) -> None:
    """Mean-distance output: test_id, mean_kl."""
    mean_kl = np.asarray(mean_kl, dtype=np.float64)
    if len(ids) != mean_kl.shape[0]:
        raise DataError("ids and mean_kl lengths differ")
    write_table(path, ["test_id", "mean_kl"], zip(ids, mean_kl.tolist()))


def read_distance_csv(path):
    """Mean distances back as (ids, values); each must be finite and >= 0."""
    rows = read_table(
        path, lambda header: header == ["test_id", "mean_kl"], "test_id,mean_kl"
    )
    for line_no, _, (value,) in rows:
        if not 0.0 <= value < math.inf:
            raise FormatError(f"{path}:{line_no}: mean_kl must be finite and >= 0")
    return [task_id for _, task_id, _ in rows], np.asarray([v for _, _, (v,) in rows])


def read_accuracy_csv(path):
    """Per-task accuracies: task_id, accuracy in [0, 1]."""
    rows = read_table(
        path, lambda header: header == ["task_id", "accuracy"], "task_id,accuracy"
    )
    table = {}
    for line_no, task_id, (value,) in rows:
        if not 0.0 <= value <= 1.0:
            raise FormatError(f"{path}:{line_no}: accuracy must lie in [0, 1]")
        if task_id in table:
            raise FormatError(f"{path}:{line_no}: duplicate task id {task_id!r}")
        table[task_id] = value
    return table


def write_diagram_csv(path, bins) -> None:
    """Diagram output: bin, low, high, mean_distance, mean_accuracy, count."""
    header = ["bin", "low", "high", "mean_distance", "mean_accuracy", "count"]
    write_table(path, header, map(astuple, bins))


def write_selection(path, ids) -> None:
    """Selected training-task ids, one per line."""
    Path(path).write_text("".join(f"{i}\n" for i in ids), encoding="utf-8")

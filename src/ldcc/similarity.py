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
# The last training pool `_kl_matrix` was given, as (a copy, its log_beta_rows).
# It is read and replaced in single assignments, so threads may share it.
_pool_terms = (np.empty((0, 0)), None)


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

    The pool's ln B(b_d) are kept with a copy of the last pool (8 bytes per
    entry) and reused, exactly, for a pool of equal shape and values: a NaN
    never equals, and a 0 fails `log_beta_rows` before it is kept.
    """
    global _pool_terms
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
        pool, pool_log_beta = _pool_terms
        if not np.array_equal(pool, train):
            pool_log_beta = log_beta_rows(train)
            _pool_terms = (train.copy(), pool_log_beta)
        self_term = test[:, 0] * expected[:, 0]
        matrix = np.multiply.outer(expected[:, 0], train[:, 0])
        scratch = np.empty_like(matrix)
        for k in range(1, test.shape[1]):
            self_term += test[:, k] * expected[:, k]
            matrix += np.multiply.outer(expected[:, k], train[:, k], out=scratch)
        np.subtract(self_term[:, None], matrix, out=matrix)
        matrix += np.subtract(pool_log_beta[None, :], log_beta_rows(test)[:, None], out=scratch)
    if matrix.min() < _NEGATIVE_KL_TOL or not np.isfinite(matrix).all():
        raise NumericError(f"KL matrix contains invalid entries (min {matrix.min()})")
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
    width = distances.max() / num_bins
    if width > 0.0:
        assignment = np.clip(np.ceil(distances / width).astype(int), 1, num_bins)
    else:
        assignment = np.ones(distances.size, dtype=int)
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
    smallest scores win, ties broken by ascending index.  The pool's terms
    are reused while the same pool comes back (`_kl_matrix`), and only the
    scores at or below the `count`-th smallest, found by partition, are sorted.
    """
    train_lambdas = np.asarray(train_lambdas, dtype=np.float64)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > train_lambdas.shape[0]:
        raise ValueError(f"cannot select {count} of {train_lambdas.shape[0]} training tasks")
    if count == 0:
        return []
    scores = _kl_matrix(test_lambdas, train_lambdas).mean(axis=0)
    near = np.flatnonzero(scores <= np.partition(scores, count - 1)[count - 1])
    return near[np.lexsort((near, scores[near]))][:count].tolist()


def write_distance_csv(path, ids, mean_kl) -> None:
    """Mean-distance output: test_id, mean_kl."""
    mean_kl = np.asarray(mean_kl, dtype=np.float64)
    if len(ids) != mean_kl.shape[0]:
        raise DataError("ids and mean_kl lengths differ")
    write_table(path, ["test_id", "mean_kl"], zip(ids, mean_kl.tolist()))


def _read_scores(path, header, valid, problem):
    """A task_id,value CSV as a dict in file order; ids unique, every value valid."""
    table = {}
    for line_no, task_id, (value,) in read_table(path, lambda h: h == header, ",".join(header)):
        if not valid(value):
            raise FormatError(f"{path}:{line_no}: {header[1]} {problem}")
        if task_id in table:
            raise FormatError(f"{path}:{line_no}: duplicate task id {task_id!r}")
        table[task_id] = value
    return table


def read_distance_csv(path):
    """Mean distances back as (ids, values); ids unique, values finite and >= 0."""
    table = _read_scores(
        path, ["test_id", "mean_kl"], lambda v: 0.0 <= v < math.inf, "must be finite and >= 0"
    )
    return list(table), np.asarray(list(table.values()))


def read_accuracy_csv(path):
    """Per-task accuracies: task_id, accuracy in [0, 1]."""
    return _read_scores(
        path, ["task_id", "accuracy"], lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"
    )


def write_diagram_csv(path, bins) -> None:
    """Diagram output: bin, low, high, mean_distance, mean_accuracy, count."""
    header = ["bin", "low", "high", "mean_distance", "mean_accuracy", "count"]
    write_table(path, header, map(astuple, bins))


def write_selection(path, ids) -> None:
    """Selected training-task ids, one per line."""
    Path(path).write_text("".join(f"{i}\n" for i in ids), encoding="utf-8")

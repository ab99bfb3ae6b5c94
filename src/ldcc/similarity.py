"""Task similarity from posterior Dirichlet parameters.

A task's embedding is the Dirichlet parameter lambda of its inferred
task-theme posterior.  Dissimilarity is the closed-form KL divergence
between Dirichlet distributions, directed from the test task's posterior to
the training task's.  Distance and selection read only its mean over one
side, built from per-row terms; the correlation diagram bins the distances.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .data import read_table, write_table
from .errors import DataError, DomainError, FormatError, NumericError
from .special import _positive_array, expected_log, log_beta

_NEGATIVE_KL_TOL = -1e-9
# The last training pool `_mean_kl` was given, as (a theme-major copy, its ln B rows).
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
    if a.size == 0:
        raise DomainError("dirichlet parameters need at least one theme")
    with np.errstate(over="ignore"):
        if not (np.isfinite(a.sum()) and np.isfinite(b.sum())):
            raise NumericError("dirichlet parameters overflow the KL computation")
    pair = _positive_array(np.stack([b, a], axis=1), "dirichlet_kl")  # theme-major
    log_beta_b, log_beta_a = log_beta(pair)
    return float(log_beta_b - log_beta_a + ((a - b) * expected_log(pair)[:, 1]).sum())


def _dot(x, y):
    """x . y over the themes, one theme at a time in a fixed order (no BLAS)."""
    total = x[..., 0] * y[..., 0]
    for k in range(1, x.shape[-1]):
        total = total + x[..., k] * y[..., k]
    return total


def _mean(rows):
    """Mean of a vector, or of each column: scaled by 1/n, so no partial sum
    overflows, then summed pairwise along a contiguous axis."""
    return np.add.reduce(np.multiply(rows.T, 1.0 / rows.shape[0], order="C"), axis=-1)


def _mean_kl(test_lambdas, train_lambdas, axis) -> np.ndarray:
    """Mean KL[Dir(test_i) || Dir(train_d)] over one side, checked and clamped at 0.

    axis=1 averages over the training rows, axis=0 over the test rows.  With
    E_i = psi(a_i) - psi(sum a_i), pair (i, d) is (ln B(b_d) - ln B(a_i)) +
    (a_i . E_i - E_i . b_d), affine in either side, so a mean needs only the
    other side's mean ln B, a . E, E or row: O((n_test + n_train) * L).  So
    grouped, an identical pair gives exactly 0.  Means are summed pairwise:
    a sequential column sum over 10^5 equal rows errs by up to 2e-8.

    The pool's ln B(b_d) are kept with a theme-major copy of the last pool
    (8 bytes per entry) and reused, exactly, for a pool of equal shape and
    values: a NaN never equals, and a 0 or an overflowing row sum fails
    before it is kept, so the pool's checks run only when the kept terms
    are refreshed.
    """
    global _pool_terms
    test = np.asarray(test_lambdas, dtype=np.float64)
    train = np.asarray(train_lambdas, dtype=np.float64)
    if test.ndim != 2 or train.ndim != 2:
        raise ValueError("lambda inputs must be 2-d (tasks by themes)")
    for name, lambdas in (("test", test), ("train", train)):
        if not lambdas.shape[0]:
            raise ValueError(f"the {name} lambdas have no rows")
    if test.shape[1] != train.shape[1]:
        raise DataError(
            f"test and train lambdas disagree on theme count: "
            f"{test.shape[1]} vs {train.shape[1]}"
        )
    if test.shape[1] == 0:
        raise DomainError("dirichlet parameters need at least one theme")
    pool, pool_log_beta = _pool_terms
    fresh = not np.array_equal(pool, train.T)
    with np.errstate(over="ignore"):
        if not (np.isfinite(test.sum(axis=1)).all()
                and (not fresh or np.isfinite(train.sum(axis=1)).all())):
            raise NumericError("dirichlet parameters overflow the KL computation")
    # Theme-major copies (`special`): a `.T` view sums a lone row in another order.
    test_t = _positive_array(test.T.copy(), "the mean KL")
    expected = expected_log(test_t).T
    with np.errstate(over="ignore", invalid="ignore"):
        if fresh:
            pool = _positive_array(train.T.copy(), "the mean KL")
            pool_log_beta = log_beta(pool)
            _pool_terms = (pool, pool_log_beta)
        test_log_beta, a_e = log_beta(test_t), _dot(test, expected)
        if axis == 1:
            mean_kl = (_mean(pool_log_beta) - test_log_beta) + (a_e - _dot(expected, _mean(train)))
        else:
            mean_kl = ((pool_log_beta - _mean(test_log_beta))
                       + (_mean(a_e) - _dot(_mean(expected), train)))
    if mean_kl.min() < _NEGATIVE_KL_TOL or not np.isfinite(mean_kl).all():
        raise NumericError(f"mean KL contains invalid entries (min {mean_kl.min()})")
    return np.maximum(mean_kl, 0.0)


def distance_matrix(test_lambdas, train_lambdas) -> np.ndarray:
    """Each test posterior's mean KL from the training posteriors, shape (n_test,).

    Entry i is the mean over d of dirichlet_kl(test_i, train_d), clamped at 0.
    """
    return _mean_kl(test_lambdas, train_lambdas, axis=1)


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
    the single degenerate bin (0, 0] holds everything.  num_bins is an
    integer (a bool is refused).
    """
    distances = np.asarray(distances, dtype=np.float64)
    accuracies = np.asarray(accuracies, dtype=np.float64)
    if distances.ndim != 1 or distances.shape != accuracies.shape:
        raise ValueError("distances and accuracies must be matching vectors")
    if distances.size == 0:
        raise ValueError("cannot bin an empty distance vector")
    if type(num_bins) is bool or not isinstance(num_bins, (int, np.integer)):
        raise ValueError(f"num_bins must be an integer, got {num_bins!r}")
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
    for j in np.unique(assignment).tolist():  # the occupied bins, ascending, as ints
        members = assignment == j
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

    A training task's score is its mean KL from all test posteriors, clamped
    at 0; smallest scores win, ties broken by ascending index.  The pool's
    terms are reused while the same pool comes back (`_mean_kl`), and only
    the scores at or below the `count`-th smallest, found by partition, are
    sorted.  count is an integer (a bool is refused).
    """
    train_lambdas = np.asarray(train_lambdas, dtype=np.float64)
    if type(count) is bool or not isinstance(count, (int, np.integer)):
        raise ValueError(f"count must be an integer, got {count!r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > train_lambdas.shape[0]:
        raise ValueError(f"cannot select {count} of {train_lambdas.shape[0]} training tasks")
    if count == 0:
        return []
    scores = _mean_kl(test_lambdas, train_lambdas, axis=0)
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

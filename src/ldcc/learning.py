"""Online learning of the shared themes.

Each batch solves the E-steps of its tasks together, a block at a time,
pools responsibility-weighted moments into one M-step estimate of the
Gaussian themes, builds a Newton step for the Dirichlet rows alpha from the
batch posteriors, and blends everything into the running model with step
size rho_b = (tau0 + b)^(-tau1).  When the batch is the whole collection,
training is batch variational EM instead: each E-step continues from the
last posterior and rho = 1, so the bound does not fall from batch to batch
(Neal & Hinton 1998; coordinate-ascent VI is SVI with the whole data set
as the batch and step 1, Hoffman et al. 2013).

As in stochastic variational inference, the global step needs only the
batch's expected sufficient statistics, so `train` folds each block's
`Posterior` into the statistics (`accumulate_stats`) and the bound as the
block is solved, and keeps only its per-class and per-task arrays for the
alpha step.  The bound is the one each E-step read from its own
normalizers (`Posterior.bound`), so the log costs no pass over the
block's responsibilities.

The statistics are raw moments (count, weighted sum, weighted second
moment), summed per task over the theme-major responsibilities and folded
in task order: a full batch gives the exact M-step, whatever its blocks.
The alpha step solves H dx = g per row through the rank-one structure
H = diag(q) + u 11^T, never forming H.
"""

from __future__ import annotations

import logging
from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy.special import zeta

from .data import write_table
from .errors import ModelError, NumericError
from .inference import _estep_block, _plan_blocks, warn_estep_waste
from .model import ThemeModel, TrainConfig, init_model
from .special import _column_sums, _positive_array, expected_log
from .streams import shuffle_stream

logger = logging.getLogger(__name__)

_ALPHA_FLOOR = 1e-6
_MAX_HALVINGS = 20
_EMPTY_THEME_MASS = 1e-8
_SINGULAR_REL_TOL = 1e-12


@dataclass
class LocalThemeStats:
    """Pooled responsibility-weighted Gaussian moments.

    count[k] is the responsibility mass on theme k; weighted_sum is (K, D);
    scatter holds raw second moments (K, D, D).  Sums of these across
    disjoint task sets are the stats of the union.
    """

    count: np.ndarray
    weighted_sum: np.ndarray
    scatter: np.ndarray


def _fold(running, products, starts):
    """Add each task's sum of products (K, rows) over its rows to running, in task order."""
    sums = np.add.reduceat(products, starts, axis=1)
    sums[:, 0] += running
    running[...] = np.add.accumulate(sums, axis=1, out=sums)[:, -1]


def accumulate_stats(posterior, stats=None) -> LocalThemeStats:
    """Sum each task's moments (segment sums of r, r x_i, r x_i x_j) in task order.

    The moments are those of a `Posterior`'s r and samples.  With stats,
    the sums continue from it (in place), so a batch taken in parts or
    E-step blocks gives the same bits as the whole batch.
    """
    x, r, starts = posterior.samples.T, posterior.r, posterior.seg.task_row_starts
    k, dim = r.shape[0], x.shape[0]
    if stats is None:
        stats = LocalThemeStats(np.zeros(k), np.zeros((k, dim)), np.zeros((k, dim, dim)))
    _fold(stats.count, r, starts)
    for i in range(dim):
        rx = r * x[i]
        _fold(stats.weighted_sum[:, i], rx, starts)
        for j in range(dim):
            _fold(stats.scatter[:, i, j], rx * x[j], starts)
    return stats


def local_mstep(stats: LocalThemeStats, jitter: float):
    """Maximum-likelihood Gaussian themes from pooled moments.

    Returns (means, covariances, active): themes whose responsibility mass
    is below 1e-8 are marked inactive, and their rows are not estimates;
    `online_update` keeps the previous model values for those themes.
    """
    active = stats.count > _EMPTY_THEME_MASS
    safe = np.where(active, stats.count, 1.0)
    means = stats.weighted_sum / safe[:, None]
    covs = stats.scatter / safe[:, None, None] - np.einsum("ki,kj->kij", means, means)
    covs = 0.5 * (covs + np.transpose(covs, (0, 2, 1)))
    covs = covs + jitter * np.eye(means.shape[1])
    return means, covs, active


@dataclass
class AlphaNewtonWork:
    """Per-row pieces of the Newton system H = diag(q) + u 11^T.

    gradient is that of the eta-weighted Dirichlet log-likelihood in alpha,
    g_lk = sum_{d,c} eta_dcl [psi(sum_k' alpha_lk') - psi(alpha_lk) + E ln theta_dck].
    q_diag entries are negative wherever the row carries mass; u is the
    positive rank-one coefficient; b is the Sherman-Morrison offset (zero
    for rows where the rank-one correction is singular or massless, which
    degrades those rows to the diagonal-only direction g/q).
    """

    gradient: np.ndarray
    q_diag: np.ndarray
    u: np.ndarray
    b: np.ndarray
    active_rows: np.ndarray


def alpha_newton_work(posteriors, alpha) -> AlphaNewtonWork:
    """Assemble gradient, Hessian diagonal, and rank-one terms per row, from
    the eta and gamma of a batch's `Posterior`s."""
    eta = np.concatenate([part.eta for part in posteriors])
    classes = len(eta)
    # Each class's gamma and each alpha row, as the theme-major columns of one array.
    params = np.concatenate([*(part.gamma for part in posteriors), alpha]).T.copy()
    _positive_array(params, "alpha_newton_work")
    with np.errstate(over="ignore"):  # an overflowing column sum is refused
        totals = _positive_array(_column_sums(params), "alpha_newton_work")
    expected = expected_log(params).T
    mass = eta.sum(axis=0)  # S_l = sum_{d,c} eta_dcl
    active = mass > 0.0
    gradient = eta.T @ expected[:classes] - mass[:, None] * expected[classes:]
    gradient = np.where(active[:, None], gradient, 0.0)
    # Trigamma is zeta(2, x) of alpha and its row sums, both checked above.
    q_diag = np.where(active[:, None], -mass[:, None] * zeta(2.0, alpha), -1.0)
    u = np.where(active, mass * zeta(2.0, totals[classes:]), 0.0)

    inv_u = np.where(u > 0.0, 1.0 / np.where(u > 0.0, u, 1.0), 0.0)
    inv_q = 1.0 / q_diag
    sum_inv_q = inv_q.sum(axis=1)
    denom = inv_u + sum_inv_q
    # inv_u > 0 and sum_inv_q < 0 can cancel; a (near-)singular rank-one
    # correction degrades to the diagonal-only direction via b = 0.
    singular = np.abs(denom) <= _SINGULAR_REL_TOL * (inv_u + np.abs(sum_inv_q))
    numer = (gradient * inv_q).sum(axis=1)
    b = np.where(active & ~singular, numer / np.where(singular, 1.0, denom), 0.0)
    return AlphaNewtonWork(gradient, q_diag, u, b, active)


def alpha_newton_direction(work: AlphaNewtonWork) -> np.ndarray:
    """Solve H dx = g per row: dx_k = (g_k - b) / q_kk."""
    direction = (work.gradient - work.b[:, None]) / work.q_diag
    return np.where(work.active_rows[:, None], direction, 0.0)


def online_update(model, means, covs, newton_direction, rho, active=None) -> ThemeModel:
    """Blend batch estimates into the model with step size rho.

    Gaussian themes move along the convex combination (1 - rho) old +
    rho new, except that inactive themes (no batch mass) keep their
    previous mean and covariance bit for bit, with one warning.
    alpha takes a damped Newton step alpha - rho * direction: the rows
    whose step leaves an entry nonpositive halve it together, up to
    _MAX_HALVINGS times, and then every entry is floored at _ALPHA_FLOOR.
    Rows that use every halving or hit the floor are logged in one
    warning.  The result is re-validated and re-factorized.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    new_mu = (1.0 - rho) * model.mu + rho * means
    new_sigma = (1.0 - rho) * model.sigma + rho * covs
    if active is not None and not active.all():
        logger.warning(
            "themes %s received no responsibility mass; keeping previous values",
            np.flatnonzero(~active).tolist(),
        )
        new_mu = np.where(active[:, None], new_mu, model.mu)
        new_sigma = np.where(active[:, None, None], new_sigma, model.sigma)
    step = rho * newton_direction
    halving = np.ones(model.L, dtype=bool)
    for _ in range(_MAX_HALVINGS):
        halving &= ~(model.alpha - step > 0).all(axis=1)
        if not halving.any():
            break
        step[halving] *= 0.5
    new_alpha = model.alpha - step
    exhausted = np.flatnonzero(halving).tolist()
    below = np.count_nonzero(new_alpha < _ALPHA_FLOOR, axis=1).tolist()
    floored = {l: count for l, count in enumerate(below) if count}
    new_alpha = np.maximum(new_alpha, _ALPHA_FLOOR)
    if exhausted or floored:
        logger.warning(
            "alpha rows %s used all %d step halvings; entries floored at %g per row: %s",
            exhausted,
            _MAX_HALVINGS,
            _ALPHA_FLOOR,
            floored,
        )
    try:
        return ThemeModel(new_mu, new_sigma, new_alpha, model.delta)
    except ModelError as exc:
        raise NumericError(f"online update produced an invalid model: {exc}") from exc


@dataclass
class TrainLogRow:
    """One batch's diagnostics."""

    batch: int
    rho: float
    mean_elbo: float
    alpha_min: float
    alpha_max: float
    estep_iters_mean: float


def write_training_log(path, rows) -> None:
    """Per-batch diagnostics as CSV, one column per TrainLogRow field."""
    write_table(path, [f.name for f in fields(TrainLogRow)], map(astuple, rows))


def train(tasks, num_task_themes, num_image_themes, config: TrainConfig,
          delta: float = 0.5, threads: int | None = 1):
    """Online variational training over a task collection.

    Tasks are visited in a seed-shuffled order, in consecutive mini-batches
    of config.batch_size cycling through the collection, for
    config.max_batches batches.  Returns the final model and the per-batch
    diagnostic rows.  A batch whose E-steps stop at config.max_e_iters or
    clamp gamma entries logs one warning with both counts.

    A mini-batch (config.batch_size below the number of tasks) starts each
    E-step from the model's own densities (`estep_blocks`) and takes step
    rho_b = (tau0 + b)^(-tau1).  When the batch is the whole collection,
    tau0 and tau1 are not used and rho = 1, which the log's rho column
    reads.  Every batch is then the same tasks in the same order, so its
    E-step blocks (`_plan_blocks`) are built once per call, and each
    reused block continues its tasks' E-steps from their last posterior.

    threads is accepted for compatibility and has no effect: every batch is
    solved as one array problem on the calling thread.  It stays because
    the benchmark harness (`perfbench/`) calls `train(..., threads=1)` and
    may pass `--threads`; dropping it needs a change to that harness.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    model = init_model(
        tasks, num_task_themes, num_image_themes, delta, config.seed,
        jitter=config.jitter,
    )
    order = shuffle_stream(config.seed).permutation(len(tasks))
    cursor, size = 0, min(config.batch_size, len(tasks))
    whole = size == len(tasks)
    log_rows = []
    for batch_index in range(1, config.max_batches + 1):
        if batch_index == 1 or not whole:
            batch = [tasks[int(order[(cursor + j) % len(order)])] for j in range(size)]
            cursor = (cursor + size) % len(order)
            blocks = _plan_blocks(batch, model)
            blocks = list(blocks) if whole else blocks

        stats, parts, elbos = None, [], []
        for block in blocks:
            part = _estep_block(block, model, config)
            stats = accumulate_stats(part, stats)
            elbos.append(part.bound)
            # The alpha step and the counters need only per-class and per-task arrays.
            parts.append(part.classes())
            del part  # no r or log-densities alive while the next block sweeps
        warn_estep_waste(f"batch {batch_index}", parts, config)
        means, covs, active = local_mstep(stats, config.jitter)
        work = alpha_newton_work(parts, model.alpha)
        direction = alpha_newton_direction(work)
        rho = 1.0 if whole else float((config.tau0 + batch_index) ** -config.tau1)
        model = online_update(model, means, covs, direction, rho, active=active)

        log_rows.append(
            TrainLogRow(
                batch=batch_index,
                rho=rho,
                mean_elbo=float(np.mean(np.concatenate(elbos))),
                alpha_min=float(model.alpha.min()),
                alpha_max=float(model.alpha.max()),
                estep_iters_mean=float(np.mean(np.concatenate([p.iterations for p in parts]))),
            )
        )
        logger.debug(
            "batch %d rho=%.4g mean_elbo=%.6g", batch_index, rho, log_rows[-1].mean_elbo
        )
    return model, log_rows

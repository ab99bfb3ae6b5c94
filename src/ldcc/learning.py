"""Online learning of the shared themes.

Each batch solves the E-steps of its tasks together (`estep_blocks`),
pools responsibility-weighted moments into one M-step estimate of the
Gaussian themes, builds a Newton step for the Dirichlet rows alpha from the
batch posteriors, and blends everything into the running model with step
size rho_b = (tau0 + b)^(-tau1).  As in stochastic variational inference,
the global step needs only the batch's expected sufficient statistics, so
`train` builds no per-task states: it folds each block's stacked result
into the statistics and the bound as the block is solved.

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

from .data import write_table
from .errors import ModelError, NumericError
from .inference import _Plan, _Stacked, dirichlet_expected_log, estep_blocks, warn_estep_waste
from .model import ThemeModel, TrainConfig, init_model
from .special import digamma, trigamma
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


def accumulate_stats(tasks, states, stats=None) -> LocalThemeStats:
    """Sum each task's moments (segment sums of r, r x_i, r x_i x_j) in task order.

    With stats, the sums continue from it (in place), so a batch taken in
    parts or E-step blocks gives the same bits as the whole batch.
    """
    if len(tasks) != len(states):
        raise ValueError(f"{len(tasks)} tasks but {len(states)} states")
    if not tasks:
        raise ValueError("cannot accumulate statistics over an empty batch")
    part = _Stacked.of(states)
    if not np.array_equal(part.seg.class_counts, [n for task in tasks for n in task.counts]):
        raise ValueError("the states' responsibilities do not match the tasks' classes")
    # Tasks of different dimensions do not concatenate.
    part.samples = np.concatenate([task.stacked()[0] for task in tasks])
    return _accumulate(part, stats)


def _accumulate(part, stats):
    """`accumulate_stats` of stacked posteriors (`_Stacked`) and their samples."""
    x, r, starts = part.samples.T, part.r, part.seg.task_row_starts
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
    is below 1e-8 are marked inactive and get placeholder values; callers
    keep the previous model values for those themes.
    """
    active = stats.count > _EMPTY_THEME_MASS
    safe = np.where(active, stats.count, 1.0)
    means = stats.weighted_sum / safe[:, None]
    covs = stats.scatter / safe[:, None, None] - np.einsum("ki,kj->kij", means, means)
    covs = 0.5 * (covs + np.transpose(covs, (0, 2, 1)))
    dim = means.shape[1]
    covs = covs + jitter * np.eye(dim)
    if not active.all():
        means = np.where(active[:, None], means, 0.0)
        covs = np.where(active[:, None, None], covs, np.eye(dim))
    return means, covs, active


def _eta_moments(states):
    """Batch sums S_l = sum eta_dcl and T_lk = sum eta_dcl E[ln theta_dck].

    states are VariationalStates or `estep_blocks` results; both hold
    per-class eta and gamma rows.
    """
    eta = np.concatenate([state.eta for state in states])
    gamma = np.concatenate([state.gamma for state in states])
    return eta.sum(axis=0), eta.T @ dirichlet_expected_log(gamma)


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


def alpha_newton_work(states, alpha) -> AlphaNewtonWork:
    """Assemble gradient, Hessian diagonal, and rank-one terms per row."""
    alpha = np.asarray(alpha, dtype=np.float64)
    mass, weighted_log_theta = _eta_moments(states)
    active = mass > 0.0
    centered = digamma(alpha.sum(axis=1))[:, None] - digamma(alpha)
    gradient = mass[:, None] * centered + weighted_log_theta
    gradient = np.where(active[:, None], gradient, 0.0)
    q_diag = np.where(active[:, None], -mass[:, None] * trigamma(alpha), -1.0)
    u = np.where(active, mass * trigamma(alpha.sum(axis=1)), 0.0)

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


def _damped_alpha_step(alpha_row, step_row):
    """Halve a row's Newton step until the row stays positive, then floor.

    Returns the new row, whether all _MAX_HALVINGS halvings were used, and
    how many of its entries were raised to _ALPHA_FLOOR.
    """
    step = step_row.copy()
    exhausted = False
    for _ in range(_MAX_HALVINGS):
        if (alpha_row - step > 0).all():
            break
        step *= 0.5
    else:
        exhausted = True
    row = alpha_row - step
    return np.maximum(row, _ALPHA_FLOOR), exhausted, int((row < _ALPHA_FLOOR).sum())


def online_update(model, means, covs, newton_direction, rho, active=None) -> ThemeModel:
    """Blend batch estimates into the model with step size rho.

    Gaussian themes move along the convex combination (1 - rho) old +
    rho new; inactive themes (no batch mass) keep their previous values.
    alpha takes a damped Newton step alpha - rho * direction, floored
    entrywise; rows that use every halving or hit the floor are logged in
    one warning.  The result is re-validated and re-factorized.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    means = np.asarray(means, dtype=np.float64)
    covs = np.asarray(covs, dtype=np.float64)
    newton_direction = np.asarray(newton_direction, dtype=np.float64)
    if active is None:
        active = np.ones(model.K, dtype=bool)
    if not active.all():
        logger.warning(
            "themes %s received no responsibility mass; keeping previous values",
            np.flatnonzero(~active).tolist(),
        )
        means = np.where(active[:, None], means, model.mu)
        covs = np.where(active[:, None, None], covs, model.sigma)
    new_mu = (1.0 - rho) * model.mu + rho * means
    new_sigma = (1.0 - rho) * model.sigma + rho * covs
    steps = [
        _damped_alpha_step(model.alpha[l], rho * newton_direction[l])
        for l in range(model.L)
    ]
    new_alpha = np.vstack([row for row, _, _ in steps])
    exhausted = [l for l, (_, used_all, _) in enumerate(steps) if used_all]
    floored = {l: count for l, (_, _, count) in enumerate(steps) if count}
    if exhausted or floored:
        logger.warning(
            "alpha rows %s used all %d step halvings; entries floored at %g per row: %s",
            exhausted,
            _MAX_HALVINGS,
            _ALPHA_FLOOR,
            floored,
        )
    try:
        return model.with_updates(mu=new_mu, sigma=new_sigma, alpha=new_alpha)
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
    clamp gamma entries logs one warning with both counts.  When the batch
    is the whole collection, its E-step blocks are built once per call.

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
    # A batch of the whole collection never moves the cursor: the same
    # tasks come back in the same order, so the plan builds their blocks
    # once.  Otherwise it keeps each task's E-step noise when the run
    # visits some task twice.
    whole = size == len(tasks)
    plan = _Plan(model, config, keep_noise=not whole and config.max_batches * size > len(tasks),
                 keep_blocks=whole)
    log_rows = []
    for batch_index in range(1, config.max_batches + 1):
        if batch_index == 1 or not whole:
            batch = [tasks[int(order[(cursor + j) % len(order)])] for j in range(size)]
            cursor = (cursor + size) % len(order)

        stats, parts, elbos = None, [], []
        for part in estep_blocks(batch, model, config, plan):
            stats = _accumulate(part, stats)
            elbos.append(part.bounds(model))
            # The alpha step and the counters need only per-class and per-task arrays.
            parts.append(part.classes())
            del part  # no r or log-densities alive while the next block sweeps
        warn_estep_waste(f"batch {batch_index}", parts, config)
        means, covs, active = local_mstep(stats, config.jitter)
        work = alpha_newton_work(parts, model.alpha)
        direction = alpha_newton_direction(work)
        rho = float((config.tau0 + batch_index) ** -config.tau1)
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

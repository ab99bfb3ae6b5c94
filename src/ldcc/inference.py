"""Per-task variational inference, solved a batch of tasks at a time.

The mean-field posterior for one task factorizes into per-sample image-theme
responsibilities r, per-class Dirichlet parameters gamma and theme weights
eta, and a task-level Dirichlet parameter lambda.  One sweep updates the
blocks in the order r -> gamma -> eta -> lambda, each update being the exact
coordinate maximizer of the evidence lower bound given the others, so the
bound never decreases across sweeps.

Given the model, task posteriors are independent.  `estep_batch` stacks the
samples of many tasks into one matrix with class and task segment indices
and sweeps all of them at once with segment sums (`np.add.reduceat`); each
task stops at the sweep where the mean absolute change of its lambda drops
below the configured tolerance, exactly as it would alone, and `run_estep`
is a batch of one.  The sweep's arrays are theme-major: r and the
log-densities are (K, rows), gamma (K, classes), eta (L, classes) and
lambda (L, tasks).  K and L are small, and numpy pays a loop per row to
reduce along a short inner axis, but sums or maxes over K contiguous rows
in K elementwise passes.  States are transposed back to the row-major
`VariationalState` shapes once per block.  The bound is computed the same
way for a whole batch (`elbo_batch`) or one task (`elbo`).  The per-class
`update_*` functions are the readable reference: the test suite composes
them to check the sweep.
"""

from __future__ import annotations

import logging

import numpy as np

from .data import read_table, write_table
from .errors import DataError, FormatError, NumericError
from .special import (
    digamma,
    log_beta_dirichlet,
    log_beta_rows,
    xlogy,
)
from .streams import estep_stream

logger = logging.getLogger(__name__)

_GAMMA_FLOOR = 1e-8
_INIT_NOISE_CONCENTRATION = 100.0


def dirichlet_expected_log(u):
    """E[ln x] under Dirichlet(u): psi(u_k) - psi(sum u).

    Accepts a single parameter vector or a stack of rows.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim not in (1, 2):
        raise ValueError(f"expected a vector or matrix, got ndim={u.ndim}")
    return digamma(u) - digamma(u.sum(axis=-1, keepdims=True))


class VariationalState:
    """Posterior parameters for one task.

    r: per class, an (N_c, K) row-normalized responsibility matrix.
    gamma: (C, K) per-class Dirichlet parameters over image themes.
    eta: (C, L) per-class task-theme weights, row-normalized.
    lam: (L,) task-level Dirichlet parameter; the task's embedding.
    """

    def __init__(self, r, gamma, eta, lam, iterations=0, converged=False, gamma_clamps=0):
        self.r = list(r)
        self.gamma = np.asarray(gamma, dtype=np.float64)
        self.eta = np.asarray(eta, dtype=np.float64)
        self.lam = np.asarray(lam, dtype=np.float64)
        self.iterations = iterations
        self.converged = converged
        self.gamma_clamps = gamma_clamps

    @property
    def num_classes(self) -> int:
        return self.gamma.shape[0]


def _softmax(logits, axis):
    """Normalize exp(logits) in place along axis via a max shift; rejects degenerate slices."""
    m = logits.max(axis=axis, keepdims=True)
    if np.isnan(m).any():
        raise NumericError("NaN logits in a normalization step")
    if (m == -np.inf).any():
        raise NumericError("a normalization row had all -inf logits")
    logits -= m
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=axis, keepdims=True)
    return logits


def _floor_gamma(gamma):
    """Floor entries <= 0 at _GAMMA_FLOOR in place; returns how many, per class.

    gamma is one class's (K,) vector or theme-major (K, classes).
    """
    bad = gamma <= 0.0
    if not bad.any():
        return 0
    gamma[bad] = _GAMMA_FLOOR
    return bad.sum(axis=0)


def update_r(task, c, state, model, log_pdfs=None):
    """Responsibilities for class c: softmax of E[ln theta] + Gaussian log-pdf."""
    if log_pdfs is None:
        log_pdfs = model.log_pdfs(task.classes[c].astype(np.float64))
    expected_log_theta = dirichlet_expected_log(state.gamma[c])
    return _softmax(expected_log_theta[None, :] + log_pdfs, axis=1)


def update_gamma(state, c, alpha):
    """Dirichlet parameter for class c: 1 + sum_n r + eta-mixed (alpha - 1).

    Nonpositive entries are floored and counted on the state.
    """
    gamma = 1.0 + state.r[c].sum(axis=0) + state.eta[c] @ (alpha - 1.0)
    state.gamma_clamps += int(_floor_gamma(gamma))
    return gamma


def update_eta(state, c, model):
    """Task-theme weights for class c.

    Logits combine E[ln phi], each theme row's Dirichlet log-normalizer, and
    that row's affinity for the class's expected log image-theme profile.
    """
    expected_log_theta = dirichlet_expected_log(state.gamma[c])
    expected_log_phi = dirichlet_expected_log(state.lam)
    log_norm = log_beta_rows(model.alpha)
    logits = expected_log_phi - log_norm + (model.alpha - 1.0) @ expected_log_theta
    return _softmax(logits, axis=0)


def update_lambda(state, delta):
    """Task-level Dirichlet parameter: delta + per-theme eta mass."""
    return np.asarray(delta, dtype=np.float64) + state.eta.sum(axis=0)


# Largest number of sample rows solved as one array problem.  Tasks are
# grouped in order into blocks up to this size (a larger task is a block of
# its own), so memory stays flat as batches and collections grow.
_BLOCK_ROWS = 4096


def _blocks(tasks):
    """Consecutive runs of tasks holding at most _BLOCK_ROWS samples each."""
    block, rows = [], 0
    for task in tasks:
        if block and rows + task.total_samples > _BLOCK_ROWS:
            yield block
            block, rows = [], 0
        block.append(task)
        rows += task.total_samples
    if block:
        yield block


class _Segments:
    """Segment indices of tasks stacked class by class, row by row.

    Rows of a class and classes of a task are contiguous, so per-class and
    per-task sums are `np.add.reduceat` over the start offsets.
    """

    def __init__(self, class_counts, task_classes):
        self.class_counts = class_counts
        self.task_classes = task_classes
        self.row_class = np.repeat(np.arange(class_counts.size), class_counts)
        self.class_task = np.repeat(np.arange(task_classes.size), task_classes)
        self.class_starts = np.cumsum(class_counts) - class_counts
        self.task_starts = np.cumsum(task_classes) - task_classes
        self.task_row_starts = self.class_starts[self.task_starts]

    @classmethod
    def of(cls, tasks):
        return cls(
            np.array([n for task in tasks for n in task.counts]),
            np.array([task.num_classes for task in tasks]),
        )

    def subset(self, keep):
        """Segments of the tasks where keep is true, with class and row masks."""
        keep_classes = keep[self.class_task]
        keep_rows = keep_classes[self.row_class]
        sub = _Segments(self.class_counts[keep_classes], self.task_classes[keep])
        return sub, keep_classes, keep_rows


def _stacked_samples(tasks):
    return np.concatenate([task.stacked()[0] for task in tasks])


def _update_gamma(r, eta, alpha_m1, seg, clamps):
    """Theme-major gamma update, (K, classes); adds floored entries per task to clamps."""
    gamma = 1.0 + np.add.reduceat(r, seg.class_starts, axis=1) + alpha_m1.T @ eta
    floored = _floor_gamma(gamma)
    if np.any(floored):
        clamps += np.bincount(seg.class_task, floored, clamps.size).astype(np.int64)
    return gamma


def _estep_block(tasks, model, config):
    """`estep_batch` for one block of tasks, on theme-major arrays (module docstring)."""
    seg = _Segments.of(tasks)
    log_pdfs = np.ascontiguousarray(model.log_pdfs(_stacked_samples(tasks)).T)
    alpha_m1 = model.alpha - 1.0
    log_norm = log_beta_rows(model.alpha)[:, None]
    delta = model.delta[:, None]

    r_noise, eta_noise = [], []
    for task in tasks:
        noise = estep_stream(config.seed, task.id).standard_gamma
        r_noise.append(noise(_INIT_NOISE_CONCENTRATION, (task.total_samples, model.K)).T)
        eta_noise.append(noise(_INIT_NOISE_CONCENTRATION, (task.num_classes, model.L)).T)
    r = np.concatenate(r_noise, axis=1)
    r /= r.sum(axis=0)
    eta = np.concatenate(eta_noise, axis=1)
    eta /= eta.sum(axis=0)
    clamps = np.zeros(len(tasks), dtype=np.int64)
    gamma = _update_gamma(r, eta, alpha_m1, seg, clamps)
    lam = delta + np.add.reduceat(eta, seg.task_starts, axis=1)

    # Final values, filled in as tasks stop.  The arrays above always hold
    # the running tasks only; `live` and the index arrays map them back.
    out_r = np.empty_like(log_pdfs)
    out_gamma, out_eta, out_lam = np.empty_like(gamma), np.empty_like(eta), np.empty_like(lam)
    out_clamps = np.zeros(len(tasks), dtype=np.int64)
    iterations = np.zeros(len(tasks), dtype=np.int64)
    converged = np.zeros(len(tasks), dtype=bool)
    live = seg
    live_tasks = np.arange(len(tasks))
    live_classes = np.arange(gamma.shape[1])
    live_rows = np.arange(log_pdfs.shape[1])
    # dirichlet_expected_log takes one parameter vector per row; the
    # transposes are views, so it reduces over the contiguous theme rows.
    expected_log_theta = dirichlet_expected_log(gamma.T).T

    for it in range(1, config.max_e_iters + 1):
        r = np.repeat(expected_log_theta, live.class_counts, axis=1)
        r += log_pdfs
        _softmax(r, axis=0)
        gamma = _update_gamma(r, eta, alpha_m1, live, clamps)
        expected_log_theta = dirichlet_expected_log(gamma.T).T
        eta = np.repeat(dirichlet_expected_log(lam.T).T, live.task_classes, axis=1)
        eta -= log_norm
        eta += alpha_m1 @ expected_log_theta
        _softmax(eta, axis=0)
        new_lam = delta + np.add.reduceat(eta, live.task_starts, axis=1)
        done = np.abs(new_lam - lam).mean(axis=0) < config.e_tol
        lam = new_lam

        stop = done if it < config.max_e_iters else np.ones_like(done)
        if not stop.any():
            continue
        stopped = live_tasks[stop]
        iterations[stopped] = it
        converged[stopped] = done[stop]
        out_clamps[stopped] = clamps[stop]
        out_lam[:, stopped] = lam[:, stop]
        stop_classes = stop[live.class_task]
        stop_rows = stop_classes[live.row_class]
        out_gamma[:, live_classes[stop_classes]] = gamma[:, stop_classes]
        out_eta[:, live_classes[stop_classes]] = eta[:, stop_classes]
        out_r[:, live_rows[stop_rows]] = r[:, stop_rows]
        if stop.all():
            break
        keep = ~stop
        live, keep_classes, keep_rows = live.subset(keep)
        live_tasks, clamps, lam = live_tasks[keep], clamps[keep], lam[:, keep]
        live_classes, eta = live_classes[keep_classes], eta[:, keep_classes]
        expected_log_theta = expected_log_theta[:, keep_classes]
        live_rows, log_pdfs = live_rows[keep_rows], log_pdfs[:, keep_rows]

    r_blocks = np.split(out_r.T.copy(), seg.class_starts[1:])
    out_gamma, out_eta, out_lam = out_gamma.T.copy(), out_eta.T.copy(), out_lam.T.copy()
    ends = seg.task_starts + seg.task_classes
    return [
        VariationalState(
            r_blocks[a:b], out_gamma[a:b], out_eta[a:b], out_lam[d],
            iterations=int(iterations[d]),
            converged=bool(converged[d]),
            gamma_clamps=int(out_clamps[d]),
        )
        for d, (a, b) in enumerate(zip(seg.task_starts, ends))
    ]


def estep_batch(tasks, model, config):
    """Fit the posterior of every task; returns VariationalStates in task order.

    Per task, responsibilities and theme weights start uniform plus
    symmetric Dirichlet(100) noise (the noise breaks theme symmetry), gamma
    and lambda from one application of their update rules.  Sweeps run
    until the mean absolute lambda change falls below config.e_tol or
    config.max_e_iters is reached; `state.converged` records which, and
    `state.gamma_clamps` counts the gamma entries floored while the task
    ran.

    The tasks are solved together in blocks of stacked samples, and a task
    that stops is taken out of the sweeps, so each result is the one the
    task reaches alone.  Its noise stream is keyed by (config.seed, digest
    of task.id), so the same seed and task give the same state regardless
    of batch order or composition.
    """
    for task in tasks:
        if task.dimension != model.D:
            raise DataError(
                f"task {task.id!r} has dimension {task.dimension}, model expects {model.D}"
            )
    return [
        state for block in _blocks(tasks) for state in _estep_block(block, model, config)
    ]


def run_estep(task, model, config):
    """Fit one task's posterior: `estep_batch` for a batch of one."""
    return estep_batch([task], model, config)[0]


def warn_estep_waste(where, states, config) -> None:
    """One warning if any E-step stopped at max_e_iters or clamped gamma."""
    capped = sum(not state.converged for state in states)
    clamps = sum(state.gamma_clamps for state in states)
    if capped or clamps:
        logger.warning(
            "%s: %d of %d E-steps stopped at max_e_iters=%d; %d gamma entries clamped",
            where, capped, len(states), config.max_e_iters, clamps,
        )


def _elbo_terms(tasks, states, model, log_pdfs=None):
    """The nine bound expectations of each task, as arrays over the tasks."""
    seg = _Segments.of(tasks)
    if log_pdfs is None:
        log_pdfs = model.log_pdfs(_stacked_samples(tasks))
    r = np.concatenate([block for state in states for block in state.r])
    gamma = np.concatenate([state.gamma for state in states])
    eta = np.concatenate([state.eta for state in states])
    lam = np.stack([state.lam for state in states])
    expected_log_theta = dirichlet_expected_log(gamma)
    expected_log_phi = dirichlet_expected_log(lam)
    alpha_m1 = model.alpha - 1.0
    log_norm = log_beta_rows(model.alpha)
    theta_affinity = expected_log_theta @ alpha_m1.T - log_norm[None, :]
    counts = np.add.reduceat(r, seg.class_starts, axis=0)

    def over_rows(values):
        return np.add.reduceat(values.sum(axis=1), seg.task_row_starts)

    def over_classes(values):
        return np.add.reduceat(values, seg.task_starts)

    return {
        "log_px": over_rows(r * log_pdfs),
        "log_pz": over_classes((counts * expected_log_theta).sum(axis=1)),
        "log_ptheta": over_classes((eta * theta_affinity).sum(axis=1)),
        "log_py": over_classes((eta * expected_log_phi[seg.class_task]).sum(axis=1)),
        "log_pphi": -log_beta_dirichlet(model.delta)
        + ((model.delta - 1.0) * expected_log_phi).sum(axis=1),
        "log_qz": over_rows(xlogy(r, r)),
        "log_qtheta": over_classes(
            ((gamma - 1.0) * expected_log_theta).sum(axis=1) - log_beta_rows(gamma)
        ),
        "log_qy": over_classes(xlogy(eta, eta).sum(axis=1)),
        "log_qphi": -log_beta_rows(lam) + ((lam - 1.0) * expected_log_phi).sum(axis=1),
    }


def _bound(t):
    return (
        t["log_px"]
        + t["log_pz"]
        + t["log_ptheta"]
        + t["log_py"]
        + t["log_pphi"]
        - t["log_qz"]
        - t["log_qtheta"]
        - t["log_qy"]
        - t["log_qphi"]
    )


def elbo_batch(tasks, states, model) -> np.ndarray:
    """Evidence lower bound of each task under its state, in task order."""
    states = list(states)
    if len(states) != len(tasks):
        raise ValueError(f"{len(tasks)} tasks but {len(states)} states")
    bounds, start = [], 0
    for block in _blocks(tasks):
        stop = start + len(block)
        bounds.append(_bound(_elbo_terms(block, states[start:stop], model)))
        start = stop
    return np.concatenate(bounds)


def elbo_terms(task, state, model, log_pdfs=None):
    """The nine evidence-lower-bound expectations for one task.

    Keys log_px, log_pz, log_ptheta, log_py, log_pphi are added and
    log_qz, log_qtheta, log_qy, log_qphi subtracted to form the bound.
    Entropy sums use the 0 ln 0 = 0 convention.
    """
    terms = _elbo_terms([task], [state], model, log_pdfs=log_pdfs)
    return {key: float(value[0]) for key, value in terms.items()}


def elbo(task, state, model, log_pdfs=None) -> float:
    """Evidence lower bound for one task under its variational state."""
    return float(_bound(_elbo_terms([task], [state], model, log_pdfs=log_pdfs))[0])


def write_lambda_csv(path, ids, lambdas) -> None:
    """Task embeddings as CSV: task_id, lambda_1..lambda_L (full precision)."""
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if lambdas.ndim != 2 or lambdas.shape[0] != len(ids):
        raise DataError("lambda matrix must be (num tasks, L) matching ids")
    header = ["task_id"] + [f"lambda_{j + 1}" for j in range(lambdas.shape[1])]
    rows = ([task_id, *values] for task_id, values in zip(ids, lambdas.tolist()))
    write_table(path, header, rows)


def read_lambda_csv(path):
    """Read a task-embedding CSV back as (ids, (n, L) array)."""
    rows = read_table(
        path, lambda header: len(header) >= 2 and header[0] == "task_id",
        "task_id,lambda_1,...",
    )
    matrix = np.asarray([values for _, _, values in rows], dtype=np.float64)
    if (matrix <= 0).any() or not np.isfinite(matrix).all():
        raise FormatError(f"{path}: lambda entries must be positive and finite")
    return [task_id for _, task_id, _ in rows], matrix

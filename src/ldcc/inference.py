"""Per-task variational inference, solved a batch of tasks at a time.

The mean-field posterior for one task factorizes into per-sample image-theme
responsibilities r, per-class Dirichlet parameters gamma and theme weights
eta, and a task-level Dirichlet parameter lambda.  One sweep updates the
blocks in the order r -> gamma -> eta -> lambda, each update being the exact
coordinate maximizer of the evidence lower bound given the others, so the
bound never decreases across sweeps.

Given the model, task posteriors are independent.  `estep_blocks` stacks
the samples of consecutive tasks into blocks of up to 16384 rows with class
and task segment indices, and sweeps each block at once with segment sums
(`np.add.reduceat`); each task stops at the sweep where the mean absolute
change of its lambda drops below the configured tolerance, exactly as it
would alone.  All arrays are theme-major, as numpy reduces over K
contiguous rows in K elementwise passes but loops per row along a short
inner axis: r and the log-densities are (K, rows), gamma (K, classes), eta
(L, classes), lambda (L, tasks).

Responsibilities are r = normalize(w[class] * P) per sample: the densities
P = exp(log_pdfs - the sample's max) are exponentiated once per block, and
each sweep exponentiates only w = exp(E[ln theta] - the class's max) over
(K, classes).  A sample whose K products all underflow is normalized in
log space instead, and NaN, +inf or all -inf logits raise NumericError.
A sweep keeps only r's class sums.  When a task stops, the block keeps
the per-class E[ln theta] its last sweep used and drops the task's rows
from the next sweeps.  The result's r is built when it is first read, from
those and the block's densities by the same per-sample arithmetic, so it
has the bits the task's last sweep computed; a caller that reads only
lambda, as `run_estep` and `ldcc infer` do, never builds it.  Per-model
constants (alpha - 1, the rows' log-normalizers) come from the `ThemeModel`.

A `_Block` holds what no sweep changes: segments and the samples stacked
by `stack_samples`.  `_plan_blocks` checks every task's dimension, then
builds the blocks as they are drawn.  A block's E-step starts from the
model's own densities (`_start`): each sample's responsibilities are the
softmax over themes of its log-densities, and each class's eta is
uniform, so a task's result depends only on its samples and the model.
Each block's result is a `Posterior`, the one posterior type: its tasks'
arrays stacked, with the log-densities its sweep used and its samples, so
`elbo` and `learning.accumulate_stats` read it as it is.
`run_estep` is a batch of one that keeps only the task's lambda and
counters.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.special import psi

from .data import read_table, stack_samples, write_table
from .errors import DataError, FormatError, NumericError
from .special import dirichlet_expected_log, log_beta_rows, xlogy

logger = logging.getLogger(__name__)

_GAMMA_FLOOR = 1e-8


def _column_sums(a, keepdims=False):
    """np.add.reduce(a, axis=0), row after row for a 2-D a of any width.

    numpy sums a lone column of 8 or more rows pairwise, so that one is
    summed as the first of two, and a task alone gets the bits it gets in
    a block (as `_gemm` pads a one-column product).
    """
    lone = a.ndim == 2 and a.shape[1] == 1 and len(a) >= 8
    total = np.add.reduce(a.repeat(2, axis=1) if lone else a, axis=0, keepdims=keepdims)
    return total[..., :1] if lone else total


def _expected_log(u):
    """dirichlet_expected_log of theme-major (K, n) columns without the
    domain check, for the sweep's gamma and lambda, which are positive by
    construction."""
    total = _column_sums(u)
    out = psi(u)
    out -= psi(total, out=total)
    return out


def _check_shift(m):
    """Raise NumericError unless every max shift in m is finite."""
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise NumericError("NaN logits in a normalization step" if np.isnan(m).any() else
                           "a normalization row had all -inf logits" if (m == -np.inf).any()
                           else "+inf logits in a normalization step")


def _softmax(logits, axis):
    """Normalize exp(logits) in place along axis via a max shift; rejects degenerate slices."""
    m = np.maximum.reduce(logits, axis=axis, keepdims=True)
    _check_shift(m)
    logits -= m
    np.exp(logits, out=logits)
    logits /= (_column_sums(logits, keepdims=True) if axis == 0
               else np.add.reduce(logits, axis=axis, keepdims=True, out=m))
    return logits


def _floor_gamma(gamma):
    """Floor entries <= 0 at _GAMMA_FLOOR in place; returns how many, per class.

    gamma is one class's (K,) vector or theme-major (K, classes).
    """
    bad = gamma <= 0.0
    gamma[bad] = _GAMMA_FLOOR
    return bad.sum(axis=0)


# Largest number of sample rows solved as one array problem.  A sweep pays a
# fixed numpy dispatch cost besides its per-row work, so blocks are large: a
# 200-task batch of 5 x 16 shots is one block.  Tasks are grouped in order
# into blocks up to this size (a larger task is a block of its own), so
# memory stays flat.
_BLOCK_ROWS = 16384


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
    per-task sums are `np.add.reduceat` over the start offsets.  rows0 is
    where each class's rows start in the block the segments were cut from.
    """

    def __init__(self, class_counts, task_classes, rows0=None):
        self.class_counts = class_counts
        self.task_classes = task_classes
        self.class_task = np.repeat(np.arange(task_classes.size), task_classes)
        self.class_starts = np.cumsum(class_counts) - class_counts
        self.task_starts = np.cumsum(task_classes) - task_classes
        self.task_row_starts = self.class_starts[self.task_starts]
        self.rows0 = self.class_starts if rows0 is None else rows0

    @classmethod
    def of(cls, counts):
        """Segments of tasks with these class row counts, one sequence per task."""
        return cls(np.array([n for c in counts for n in c]), np.array([len(c) for c in counts]))

    def subset(self, keep):
        """Segments of the tasks where keep is true, with class and row masks."""
        keep_classes = keep[self.class_task]
        sub = _Segments(self.class_counts[keep_classes], self.task_classes[keep],
                        self.rows0[keep_classes])
        return sub, keep_classes, keep_classes.repeat(self.class_counts)


class _Block:
    """Tasks solved as one array problem, with segments and samples (rows, D) stacked.

    counts0 (K, classes) and eta0 (L, classes) are None, or a warm start:
    whole-collection training sets them to the last posterior's r class
    sums and eta, so its next E-step continues there.
    """

    def __init__(self, tasks, counts0=None, eta0=None):
        self.tasks = tasks
        self.seg = _Segments.of([task.counts for task in tasks])
        self.counts0, self.eta0 = counts0, eta0
        self.samples = stack_samples(tasks)


def _plan_blocks(tasks, model):
    """The tasks' `_Block`s, built as drawn; every dimension is checked first."""
    tasks = list(tasks)  # read twice, so an iterator of tasks is read once here
    for task in tasks:
        if task.dimension != model.D:
            raise DataError(
                f"task {task.id!r} has dimension {task.dimension}, model expects {model.D}"
            )
    return map(_Block, _blocks(tasks))


class Posterior:
    """The variational posteriors of consecutive tasks, stacked.

    r: theme-major (K, rows) responsibilities; each sample's column sums to 1
    (a sweep's r is built on first read, see the module docstring).
    gamma: (classes, K) per-class Dirichlet parameters over image themes.
    eta: (classes, L) per-class task-theme weights, rows normalized.
    lam: (tasks, L) task-level Dirichlet parameters; row d is task d's embedding.
    seg: the `_Segments` of the rows' classes and tasks.

    From a sweep it also holds the per-task iterations, converged and
    gamma_clamps, the (K, rows) log_pdfs the sweep used and its block's
    (rows, D) samples.
    """

    def __init__(self, seg, r, gamma, eta, lam, iterations=None, converged=None,
                 gamma_clamps=None, log_pdfs=None, samples=None):
        self.seg, self._r, self.gamma, self.eta, self.lam = seg, r, gamma, eta, lam
        self.iterations, self.converged, self.gamma_clamps = iterations, converged, gamma_clamps
        self.log_pdfs, self.samples = log_pdfs, samples
        self._r_inputs = None  # a sweep's (per-class E[ln theta], densities) until r is read

    @property
    def r(self):
        pending = self._r_inputs
        if pending is not None:
            self._r, self._r_inputs = _responsibilities(*pending, self.seg, self.log_pdfs), None
        return self._r

    def classes(self):
        """This result without its per-sample arrays."""
        return Posterior(None, None, self.gamma, self.eta, self.lam,
                         self.iterations, self.converged, self.gamma_clamps)


_TINY = np.finfo(np.float64).tiny


def _densities(log_pdfs):
    """exp(log_pdfs - each sample's max), r's factor (K, rows) that no sweep changes."""
    shift = np.maximum.reduce(log_pdfs, axis=0)
    _check_shift(shift)
    dens = np.subtract(log_pdfs, shift)
    return np.exp(dens, out=dens)


def _responsibilities(expected_log_theta, dens, seg, log_pdfs):
    """r (K, rows) of the classes of seg: exp(E[ln theta] - each class's max)
    times their samples' dens, normalized per sample.

    A sample whose products all underflow is normalized in log space from
    log_pdfs, the block's log-densities, instead.
    """
    weights = np.subtract(expected_log_theta, np.maximum.reduce(expected_log_theta, axis=0))
    r = np.exp(weights, out=weights).repeat(seg.class_counts, axis=1)
    r *= dens
    total = _column_sums(r)
    # Also false for a NaN total, which a NaN or infinite E[ln theta] gives:
    # the log-space path then raises NumericError.
    if not np.minimum.reduce(total) >= _TINY:
        rows = np.flatnonzero(~(total >= _TINY))
        classes = np.searchsorted(seg.class_starts, rows, side="right") - 1
        block_rows = seg.rows0[classes] + (rows - seg.class_starts[classes])
        r[:, rows] = _softmax(expected_log_theta[:, classes] + log_pdfs[:, block_rows], axis=0)
        total[rows] = 1.0
    r /= total
    return r


def _gemm(a, b):
    """a @ b; a one-column b is padded to two, as BLAS would sum it in another order (GEMV)."""
    return a @ b if b.shape[1] > 1 else (a @ b.repeat(2, axis=1))[:, :1]


def _update_gamma(counts, eta, alpha_m1, seg, clamps):
    """Gamma (K, classes) from r's class sums; adds floored entries per task to clamps."""
    gamma = counts + 1.0 + _gemm(alpha_m1.T, eta)
    if np.minimum.reduce(gamma, axis=None) <= 0.0:
        clamps += np.bincount(seg.class_task, _floor_gamma(gamma), clamps.size).astype(np.int64)
    return gamma


def _start(block, dens, num_task_themes):
    """The E-step start of a `_Block`: r's class sums (K, classes) and eta (L, classes).

    Without a warm start, r is each sample's softmax over themes of its
    log-densities, from their dens, and eta is uniform.
    """
    if block.counts0 is not None:
        return block.counts0, block.eta0
    counts0 = np.add.reduceat(dens / _column_sums(dens), block.seg.class_starts, axis=1)
    return counts0, np.full((num_task_themes, counts0.shape[1]), 1.0 / num_task_themes)


def _estep_block(block, model, config):
    """`estep_blocks` for one `_Block`, on theme-major arrays (module docstring)."""
    seg = block.seg
    log_pdfs = model.log_pdfs(block.samples)
    all_dens = dens = _densities(log_pdfs)
    alpha_m1, log_norm, delta = model.alpha_m1, model.log_norm, model.delta_col
    num_tasks = len(block.tasks)

    counts0, eta = _start(block, dens, model.L)
    clamps = np.zeros(num_tasks, dtype=np.int64)
    gamma = _update_gamma(counts0, eta, alpha_m1, seg, clamps)
    lam = delta + np.add.reduceat(eta, seg.task_starts, axis=1)

    # Final values, filled in per class as tasks stop; r is rebuilt from
    # each class's last E[ln theta] once the block is done.  The arrays
    # above always hold the running tasks only; `live_tasks` and
    # `live_classes` map them back.
    out_log_theta, out_gamma = np.empty_like(gamma), np.empty_like(gamma)
    out_eta, out_lam = np.empty_like(eta), np.empty_like(lam)
    out_clamps = np.zeros(num_tasks, dtype=np.int64)
    iterations = np.zeros(num_tasks, dtype=np.int64)
    converged = np.zeros(num_tasks, dtype=bool)
    live = seg
    live_tasks = np.arange(num_tasks)
    live_classes = np.arange(gamma.shape[1])
    expected_log_theta = _expected_log(gamma)

    for it in range(1, config.max_e_iters + 1):
        r = _responsibilities(expected_log_theta, dens, live, log_pdfs)
        counts = np.add.reduceat(r, live.class_starts, axis=1)
        del r  # only its class sums are needed
        gamma = _update_gamma(counts, eta, alpha_m1, live, clamps)
        used_log_theta, expected_log_theta = expected_log_theta, _expected_log(gamma)
        eta = _expected_log(lam).repeat(live.task_classes, axis=1)
        eta -= log_norm
        eta += _gemm(alpha_m1, expected_log_theta)
        _softmax(eta, axis=0)
        new_lam = delta + np.add.reduceat(eta, live.task_starts, axis=1)
        change = np.abs(np.subtract(lam, new_lam, out=lam), out=lam)
        done = _column_sums(change) / model.L < config.e_tol
        lam = new_lam

        stop = done if it < config.max_e_iters else np.ones_like(done)
        if not np.logical_or.reduce(stop):
            continue
        stopped = live_tasks[stop]
        iterations[stopped] = it
        converged[stopped] = done[stop]
        out_clamps[stopped] = clamps[stop]
        out_lam[:, stopped] = lam[:, stop]
        stop_classes = stop[live.class_task]
        stopped_classes = live_classes[stop_classes]
        out_log_theta[:, stopped_classes] = used_log_theta[:, stop_classes]
        out_gamma[:, stopped_classes] = gamma[:, stop_classes]
        out_eta[:, stopped_classes] = eta[:, stop_classes]
        if np.logical_and.reduce(stop):
            break
        keep = ~stop
        live, keep_classes, keep_rows = live.subset(keep)
        live_tasks, clamps, lam = live_tasks[keep], clamps[keep], np.compress(keep, lam, axis=1)
        live_classes, eta = live_classes[keep_classes], np.compress(keep_classes, eta, axis=1)
        expected_log_theta = np.compress(keep_classes, expected_log_theta, axis=1)
        dens = np.compress(keep_rows, dens, axis=1)

    posterior = Posterior(seg, None, out_gamma.T.copy(), out_eta.T.copy(), out_lam.T.copy(),
                          iterations, converged, out_clamps, log_pdfs, block.samples)
    posterior._r_inputs = (out_log_theta, all_dens)
    return posterior


def estep_blocks(tasks, model, config):
    """Fit the posterior of every task; yields one `Posterior` per block, in task order.

    Per task, each sample's responsibilities start at the softmax over
    themes of its log-densities and each class's theme weights uniform,
    gamma and lambda from one application of their update rules.  Sweeps
    run until the mean absolute lambda change falls below config.e_tol or
    config.max_e_iters is reached; `converged` records which, and
    `gamma_clamps` counts the gamma entries floored while the task ran.

    The tasks are solved together in blocks of stacked samples, and a task
    that stops is taken out of the sweeps, so each result is the one the
    task reaches alone: it depends only on the task's samples, the model
    and config's e_tol and max_e_iters, not on the task's id, the seed or
    the batch's order or composition.  Every task's dimension is checked
    before any block is solved.
    """
    return (_estep_block(block, model, config) for block in _plan_blocks(tasks, model))


def run_estep(task, model, config):
    """Fit one task's posterior: `estep_blocks` for a batch of one.

    The result keeps only the task's lambda, an (L,) array, and its
    iterations, converged and gamma_clamps as scalars.
    """
    (part,) = estep_blocks([task], model, config)
    return Posterior(None, None, None, None, part.lam[0], part.iterations[0],
                     part.converged[0], part.gamma_clamps[0])


def warn_estep_waste(where, parts, config) -> None:
    """One warning if any E-step of these `estep_blocks` results stopped at
    max_e_iters or clamped gamma."""
    converged = np.concatenate([part.converged for part in parts])
    capped = int(np.count_nonzero(~converged))
    clamps = sum(int(part.gamma_clamps.sum()) for part in parts)
    if capped or clamps:
        logger.warning(
            "%s: %d of %d E-steps stopped at max_e_iters=%d; %d gamma entries clamped",
            where, capped, converged.size, config.max_e_iters, clamps,
        )


def elbo_terms(posterior, model):
    """The nine evidence-lower-bound expectations of each task of a `Posterior`.

    Each value is an array over the posterior's tasks, read from its r,
    log_pdfs and the model's cached alpha_m1 and log_norm.  Keys log_px,
    log_pz, log_ptheta, log_py, log_pphi are added and log_qz, log_qtheta,
    log_qy, log_qphi subtracted to form the bound; entropies use 0 ln 0 = 0.
    """
    seg, r, gamma, eta, lam = (posterior.seg, posterior.r, posterior.gamma, posterior.eta,
                               posterior.lam)
    expected_log_theta = dirichlet_expected_log(gamma)
    expected_log_phi = dirichlet_expected_log(lam)
    theta_affinity = expected_log_theta @ model.alpha_m1.T - model.log_norm.T
    counts = np.add.reduceat(r, seg.class_starts, axis=1).T

    def over_rows(values):
        return np.add.reduceat(np.add.reduce(values, axis=0), seg.task_row_starts)

    def over_classes(values):
        return np.add.reduceat(values, seg.task_starts)

    return {
        "log_px": over_rows(r * posterior.log_pdfs),
        "log_pz": over_classes((counts * expected_log_theta).sum(axis=1)),
        "log_ptheta": over_classes((eta * theta_affinity).sum(axis=1)),
        "log_py": over_classes((eta * expected_log_phi[seg.class_task]).sum(axis=1)),
        "log_pphi": -log_beta_rows(model.delta[None])
        + ((model.delta - 1.0) * expected_log_phi).sum(axis=1),
        "log_qz": over_rows(xlogy(r, r)),
        "log_qtheta": over_classes(
            ((gamma - 1.0) * expected_log_theta).sum(axis=1) - log_beta_rows(gamma)
        ),
        "log_qy": over_classes(xlogy(eta, eta).sum(axis=1)),
        "log_qphi": -log_beta_rows(lam) + ((lam - 1.0) * expected_log_phi).sum(axis=1),
    }


def elbo(posterior, model):
    """Evidence lower bound of each task of a `Posterior`: its `elbo_terms` summed."""
    t = elbo_terms(posterior, model)
    return (t["log_px"] + t["log_pz"] + t["log_ptheta"] + t["log_py"] + t["log_pphi"]
            - t["log_qz"] - t["log_qtheta"] - t["log_qy"] - t["log_qphi"])


def write_lambda_csv(path, ids, lambdas) -> None:
    """Task embeddings as CSV: task_id, lambda_1..lambda_L (full precision)."""
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if lambdas.ndim != 2 or lambdas.shape[0] != len(ids):
        raise DataError("lambda matrix must be (num tasks, L) matching ids")
    header = ["task_id"] + [f"lambda_{j + 1}" for j in range(lambdas.shape[1])]
    rows = ([task_id, *values] for task_id, values in zip(ids, lambdas.tolist()))
    write_table(path, header, rows)


def read_lambda_csv(path):
    """Read a task-embedding CSV back as (ids, (n, L) array); ids are unique."""
    rows = read_table(
        path, lambda header: len(header) >= 2 and header[0] == "task_id",
        "task_id,lambda_1,...",
    )
    matrix = np.asarray([values for _, _, values in rows], dtype=np.float64)
    if (matrix <= 0).any() or not np.isfinite(matrix).all():
        raise FormatError(f"{path}: lambda entries must be positive and finite")
    return [task_id for _, task_id, _ in rows], matrix

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
(L, classes), lambda (L, tasks).  Each block's result comes back stacked
(`_Stacked`) with the log-densities its sweep used, so `train` reads the
statistics and the bound from it directly.  `estep_batch` unstacks the
blocks into one VariationalState per task, and `run_estep` is a batch of
one.
"""

from __future__ import annotations

import logging
from itertools import chain

import numpy as np
from scipy.special import psi

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


def _expected_log(u):
    """dirichlet_expected_log of theme-major (K, n) columns without the
    domain check, for the sweep's gamma and lambda, which are positive by
    construction."""
    total = np.add.reduce(u, axis=0)
    out = psi(u)
    out -= psi(total, out=total)
    return out


def _softmax(logits, axis):
    """Normalize exp(logits) in place along axis via a max shift; rejects degenerate slices."""
    m = np.maximum.reduce(logits, axis=axis, keepdims=True)
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise NumericError("NaN logits in a normalization step" if np.isnan(m).any() else
                           "a normalization row had all -inf logits" if (m == -np.inf).any()
                           else "+inf logits in a normalization step")
    logits -= m
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=axis, keepdims=True, out=m)
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
    def of(cls, counts):
        """Segments of tasks with these class row counts, one sequence per task."""
        return cls(np.array([n for c in counts for n in c]), np.array([len(c) for c in counts]))

    def subset(self, keep):
        """Segments of the tasks where keep is true, with class and row masks."""
        keep_classes = keep[self.class_task]
        keep_rows = keep_classes[self.row_class]
        sub = _Segments(self.class_counts[keep_classes], self.task_classes[keep])
        return sub, keep_classes, keep_rows


class _Plan:
    """The E-step inputs of one `estep_blocks` or `train` call that no sweep changes.

    Tasks come in `_Block`s with their segments and init noise stacked.
    A task's Dirichlet(100) noise depends only on (seed, task id, K,
    L) and its shape, so a plan that sees tasks again (`keep_noise`) draws
    it once.  Plans are never shared, so nothing carries over between calls.
    """

    def __init__(self, model, config, keep_noise=False):
        self.key, self.dim = (config.seed, model.K, model.L), model.D
        self._noise = {} if keep_noise else None

    def noise(self, task):
        """Normalized init noise of a task: r's class sums (K, classes), eta (L, classes)."""
        key = (task.id, task.total_samples, task.num_classes)
        if self._noise is not None and key in self._noise:
            return self._noise[key]
        seed, num_image, num_task = self.key
        draw = estep_stream(seed, task.id).standard_gamma
        r = draw(_INIT_NOISE_CONCENTRATION, (task.total_samples, num_image)).T
        eta = draw(_INIT_NOISE_CONCENTRATION, (task.num_classes, num_task)).T
        r = np.ascontiguousarray(r / r.sum(axis=0))
        noise = np.add.reduceat(r, task.stacked()[1][:-1], axis=1), eta / eta.sum(axis=0)
        if self._noise is not None:
            self._noise[key] = noise
        return noise

    def blocks(self, tasks):
        """The tasks' `_Block`s, built as drawn; every dimension is checked first."""
        tasks = list(tasks)  # read twice, so an iterator of tasks is read once here
        for task in tasks:
            if task.dimension != self.dim:
                raise DataError(
                    f"task {task.id!r} has dimension {task.dimension}, model expects {self.dim}"
                )
        return (_Block(run, self) for run in _blocks(tasks))


class _Block(list):
    """Tasks solved as one array problem, with segments and init noise counts0
    (K, classes), eta0 (L, classes) stacked."""

    def __init__(self, tasks, plan):
        super().__init__(tasks)
        self.seg = _Segments.of([task.counts for task in tasks])
        noise = [plan.noise(task) for task in tasks]
        self.counts0 = np.concatenate([counts for counts, _ in noise], axis=1)
        self.eta0 = np.concatenate([eta for _, eta in noise], axis=1)


class _Stacked:
    """Consecutive tasks' posteriors in stacks: r theme-major (K, rows), gamma
    (classes, K), eta (classes, L), lam (tasks, L), and from a sweep the
    per-task iterations, converged and gamma_clamps, and the (K, rows)
    log_pdfs it used."""

    def __init__(self, seg, r, gamma, eta, lam, iterations=None, converged=None,
                 gamma_clamps=None, log_pdfs=None):
        self.seg, self.r, self.gamma, self.eta, self.lam = seg, r, gamma, eta, lam
        self.iterations, self.converged, self.gamma_clamps = iterations, converged, gamma_clamps
        self.log_pdfs = log_pdfs

    @classmethod
    def of(cls, states):
        return cls(
            _Segments.of([[len(b) for b in state.r] for state in states]),
            np.concatenate([b.T for state in states for b in state.r], axis=1),
            np.concatenate([state.gamma for state in states]),
            np.concatenate([state.eta for state in states]),
            np.stack([state.lam for state in states]),
        )

    def classes(self):
        """This result without its per-sample arrays."""
        return _Stacked(None, None, self.gamma, self.eta, self.lam,
                        self.iterations, self.converged, self.gamma_clamps)

    def states(self):
        r_blocks = np.split(self.r.T.copy(), self.seg.class_starts[1:])
        starts = self.seg.task_starts
        return [
            VariationalState(
                r_blocks[a:b], self.gamma[a:b], self.eta[a:b], self.lam[d],
                iterations=int(self.iterations[d]),
                converged=bool(self.converged[d]),
                gamma_clamps=int(self.gamma_clamps[d]),
            )
            for d, (a, b) in enumerate(zip(starts, starts + self.seg.task_classes))
        ]

    def bounds(self, model):
        """Evidence lower bound of each task, from the sweep's log-densities."""
        return _bound(_elbo_terms(self, model, self.log_pdfs))


def _gemm(a, b):
    """a @ b; a one-column b is padded to two, as BLAS would sum it in another order (GEMV)."""
    return a @ b if b.shape[1] > 1 else (a @ b.repeat(2, axis=1))[:, :1]


def _update_gamma(counts, eta, alpha_m1, seg, clamps):
    """Gamma (K, classes) from r's class sums; adds floored entries per task to clamps."""
    gamma = counts + 1.0 + _gemm(alpha_m1.T, eta)
    if np.minimum.reduce(gamma, axis=None) <= 0.0:
        clamps += np.bincount(seg.class_task, _floor_gamma(gamma), clamps.size).astype(np.int64)
    return gamma


def _estep_block(block, model, config):
    """`estep_blocks` for one `_Block`, on theme-major arrays (module docstring)."""
    seg = block.seg
    samples = np.concatenate([task.stacked()[0] for task in block])
    all_log_pdfs = log_pdfs = model.log_pdfs(samples, theme_major=True)
    alpha_m1 = model.alpha - 1.0
    log_norm = log_beta_rows(model.alpha)[:, None]
    delta = model.delta[:, None]
    num_tasks = len(block)

    eta = block.eta0
    clamps = np.zeros(num_tasks, dtype=np.int64)
    gamma = _update_gamma(block.counts0, eta, alpha_m1, seg, clamps)
    lam = delta + np.add.reduceat(eta, seg.task_starts, axis=1)

    # Final values, filled in as tasks stop.  The arrays above always hold
    # the running tasks only; `live` and the index arrays map them back.
    out_r = np.empty_like(log_pdfs)
    out_gamma, out_eta, out_lam = np.empty_like(gamma), np.empty_like(eta), np.empty_like(lam)
    out_clamps = np.zeros(num_tasks, dtype=np.int64)
    iterations = np.zeros(num_tasks, dtype=np.int64)
    converged = np.zeros(num_tasks, dtype=bool)
    live = seg
    live_tasks = np.arange(num_tasks)
    live_classes = np.arange(gamma.shape[1])
    live_rows = np.arange(log_pdfs.shape[1])
    expected_log_theta = _expected_log(gamma)

    for it in range(1, config.max_e_iters + 1):
        r = None  # drop the last sweep's r before this one's is built
        r = expected_log_theta.repeat(live.class_counts, axis=1)
        r += log_pdfs
        _softmax(r, axis=0)
        counts = np.add.reduceat(r, live.class_starts, axis=1)
        gamma = _update_gamma(counts, eta, alpha_m1, live, clamps)
        expected_log_theta = _expected_log(gamma)
        eta = _expected_log(lam).repeat(live.task_classes, axis=1)
        eta -= log_norm
        eta += _gemm(alpha_m1, expected_log_theta)
        _softmax(eta, axis=0)
        new_lam = delta + np.add.reduceat(eta, live.task_starts, axis=1)
        change = np.abs(np.subtract(lam, new_lam, out=lam), out=lam)
        # The sum over L rows divided by L is bit-identical to ndarray.mean.
        done = np.add.reduce(change, axis=0) / model.L < config.e_tol
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
        stop_rows = stop_classes[live.row_class]
        out_gamma[:, live_classes[stop_classes]] = gamma[:, stop_classes]
        out_eta[:, live_classes[stop_classes]] = eta[:, stop_classes]
        out_r[:, live_rows[stop_rows]] = r[:, stop_rows]
        if np.logical_and.reduce(stop):
            break
        keep, r = ~stop, None  # r is copied out; drop it before the compaction copies
        live, keep_classes, keep_rows = live.subset(keep)
        live_tasks, clamps, lam = live_tasks[keep], clamps[keep], np.compress(keep, lam, axis=1)
        live_classes, eta = live_classes[keep_classes], np.compress(keep_classes, eta, axis=1)
        expected_log_theta = np.compress(keep_classes, expected_log_theta, axis=1)
        live_rows, log_pdfs = live_rows[keep_rows], np.compress(keep_rows, log_pdfs, axis=1)

    return _Stacked(seg, out_r, out_gamma.T.copy(), out_eta.T.copy(), out_lam.T.copy(),
                    iterations, converged, out_clamps, all_log_pdfs)


def estep_blocks(tasks, model, config, plan=None):
    """Solve the tasks' E-steps a block at a time; yields each block's `_Stacked`.

    Every task's dimension is checked before any block is solved.  `train`
    passes its own `_Plan`, which keeps each task's init noise between
    batches.
    """
    if plan is None:
        plan = _Plan(model, config)
    return (_estep_block(block, model, config) for block in plan.blocks(tasks))


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
    return list(chain.from_iterable(map(_Stacked.states, estep_blocks(tasks, model, config))))


def run_estep(task, model, config):
    """Fit one task's posterior: `estep_batch` for a batch of one."""
    return estep_batch([task], model, config)[0]


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


def _elbo_terms(part, model, log_pdfs):
    """The nine bound expectations of each task of a `_Stacked` (r and log_pdfs (K, rows))."""
    seg, r, gamma, eta, lam = part.seg, part.r, part.gamma, part.eta, part.lam
    expected_log_theta = dirichlet_expected_log(gamma)
    expected_log_phi = dirichlet_expected_log(lam)
    alpha_m1 = model.alpha - 1.0
    log_norm = log_beta_rows(model.alpha)
    theta_affinity = expected_log_theta @ alpha_m1.T - log_norm[None, :]
    counts = np.add.reduceat(r, seg.class_starts, axis=1).T

    def over_rows(values):
        return np.add.reduceat(np.add.reduce(values, axis=0), seg.task_row_starts)

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
    return (t["log_px"] + t["log_pz"] + t["log_ptheta"] + t["log_py"] + t["log_pphi"]
            - t["log_qz"] - t["log_qtheta"] - t["log_qy"] - t["log_qphi"])


def elbo_terms(task, state, model, log_pdfs=None):
    """The nine evidence-lower-bound expectations for one task.

    Keys log_px, log_pz, log_ptheta, log_py, log_pphi are added and
    log_qz, log_qtheta, log_qy, log_qphi subtracted to form the bound.
    Entropy sums use the 0 ln 0 = 0 convention.
    """
    if log_pdfs is None:
        log_pdfs = model.log_pdfs(task.stacked()[0])
    terms = _elbo_terms(_Stacked.of([state]), model, np.asarray(log_pdfs).T)
    return {key: float(value[0]) for key, value in terms.items()}


def elbo(task, state, model, log_pdfs=None) -> float:
    """Evidence lower bound for one task under its variational state."""
    return _bound(elbo_terms(task, state, model, log_pdfs))


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

"""Per-task variational inference, solved a batch of tasks at a time.

The mean-field posterior for one task factorizes into per-sample image-theme
responsibilities r, per-class Dirichlet parameters gamma and theme weights
eta, and a task-level Dirichlet parameter lambda.  One sweep updates the
blocks in the order r -> gamma -> eta -> lambda, each update being the exact
coordinate maximizer of the evidence lower bound given the others, so the
bound never decreases across sweeps.

The sweeps converge linearly, so after one plain sweep each task takes
SQUAREM cycles (SqS3, Varadhan & Roland 2008): two sweeps x0 -> x1 -> x2,
a step from them in (ln gamma, ln eta) of length max(1, |r| / |v|) per
task, and one stabilizing sweep from that point, kept only where its bound
is at least x0's; elsewhere the task keeps x2, whose bound the sweeps
never let fall below x0's.  So the bound never falls across the states a
task keeps.  The safeguard's bound is the one `Posterior.bound` reads
(`_sweep_bound`), once per cycle, and x2's only where the safeguard fails.
A task stops at the first sweep whose own mean absolute lambda change
drops below the configured tolerance; max_e_iters counts every sweep, and
the last three before it are plain.

Given the model, task posteriors are independent.  `estep_blocks` stacks
the samples of consecutive tasks into blocks of up to 16384 rows with class
and task segment indices, and sweeps each block at once with segment sums
(`np.add.reduceat`); step lengths, safeguards and stops are per task, and
a stopped task leaves the block's arrays when its cycle ends, so each task
stops where it would alone, with the same bits.  All arrays are
theme-major, as numpy reduces over K contiguous rows in K elementwise
passes but loops per row along a short inner axis: r and the
log-densities are (K, rows), gamma (K, classes), eta (L, classes),
lambda (L, tasks).

Responsibilities are r = normalize(w[class] * P) per sample: the densities
P = exp(log_pdfs - the sample's max) are exponentiated once per block, and
each sweep exponentiates only w = exp(E[ln theta] - the class's max) over
(K, classes).  A sample whose K products all underflow is normalized in
log space instead, and NaN, +inf or all -inf logits raise NumericError.
A sweep keeps only r's class sums, and r's totals only until its bound
is read.  When a task stops, the block keeps the per-class E[ln theta]
its last sweep used.  The result's r is built when it is first read, from
those and the block's densities by the same per-sample arithmetic, so it
has the bits the task's last sweep computed; a caller that reads only
lambda, as `run_estep` and `ldcc infer` do, never builds it.  The build
keeps each sample's total before normalizing, and the result's `bound`,
each task's evidence lower bound, is read from those totals, the class
sums and the final gamma, eta and lambda (`_sweep_bound`), with no pass
over (K, rows) of its own; `elbo` stays the term-by-term definition.
Per-model constants (alpha - 1, the rows' log-normalizers, ln B(delta))
come from the `ThemeModel`.

A `_Block` holds what no sweep changes: segments and the samples stacked
by `stack_samples`.  `_plan_blocks` checks every task's dimension, then
builds the blocks as they are drawn.  A fresh block's E-step starts from
the model's own densities (`_start`): each sample's responsibilities are
the softmax over themes of its log-densities, and each class's eta is
uniform, so a task's result depends only on its samples and the model.
A reused block continues from its own last posterior (`block.start`).
Each block's result is a `Posterior`, the one posterior type: its tasks'
arrays stacked, with the log-densities its sweep used and its samples, so
`elbo` and `learning.accumulate_stats` read it as it is.
`run_estep` is a batch of one that keeps only the task's lambda and
counters.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, psi

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


def _log_beta(u):
    """log_beta_rows of theme-major (K, n) columns without the domain check."""
    return _column_sums(gammaln(u)) - gammaln(_column_sums(u))


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

    start is None until the block is solved, then the last posterior's r class
    sums (K, classes) and eta (L, classes): a block solved again continues there.
    """

    def __init__(self, tasks):
        self.tasks = tasks
        self.seg = _Segments.of([task.counts for task in tasks])
        self.samples = stack_samples(tasks)
        self.start = None


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
    (rows, D) samples, and `bound`.
    """

    def __init__(self, seg, r, gamma, eta, lam, iterations=None, converged=None,
                 gamma_clamps=None, log_pdfs=None, samples=None):
        self.seg, self._r, self.gamma, self.eta, self.lam = seg, r, gamma, eta, lam
        self.iterations, self.converged, self.gamma_clamps = iterations, converged, gamma_clamps
        self.log_pdfs, self.samples = log_pdfs, samples
        self._r_inputs = None  # a sweep's (per-class E[ln theta], densities) until r is read
        self._r_totals = None  # r's sample totals before normalizing, until bound is read
        self._bound = None
        self._bound_inputs = None  # (shift, final `_Sweep`, model) until bound is read

    def _build_r(self):
        self._r, self._r_totals = _responsibilities(*self._r_inputs, self.seg, self.log_pdfs)
        self._r_inputs = None

    @property
    def r(self):
        if self._r_inputs is not None:
            self._build_r()
        return self._r

    @property
    def bound(self):
        """A sweep's evidence lower bound of each task (tasks,), the value `elbo`
        gives, read from the normalizers its last sweep computed (`_sweep_bound`).

        It is built on first read, with r if r was not read yet; None for
        a posterior that no sweep returned.
        """
        if self._bound_inputs is not None:
            if self._r_inputs is not None:
                self._build_r()
            shift, final, model = self._bound_inputs
            self._bound = _sweep_bound(self.seg, self.log_pdfs, shift, final,
                                       self._r_totals, model)
            self._r_totals = self._bound_inputs = None
        return self._bound

    def classes(self):
        """This result without its per-sample arrays."""
        return Posterior(None, None, self.gamma, self.eta, self.lam,
                         self.iterations, self.converged, self.gamma_clamps)


_TINY = np.finfo(np.float64).tiny


def _densities(log_pdfs):
    """exp(log_pdfs - each sample's max), r's factor (K, rows) that no sweep
    changes, and that max (rows,)."""
    shift = np.maximum.reduce(log_pdfs, axis=0)
    _check_shift(shift)
    dens = np.subtract(log_pdfs, shift)
    return np.exp(dens, out=dens), shift


def _log_space_logits(expected_log_theta, rows, seg, log_pdfs):
    """E[ln theta] + log_pdfs (K, len(rows)) of these rows of seg's classes;
    log_pdfs are the block's log-densities."""
    classes = np.searchsorted(seg.class_starts, rows, side="right") - 1
    block_rows = seg.rows0[classes] + (rows - seg.class_starts[classes])
    return expected_log_theta[:, classes] + log_pdfs[:, block_rows]


def _responsibilities(expected_log_theta, dens, seg, log_pdfs):
    """r (K, rows) of the classes of seg: exp(E[ln theta] - each class's max)
    times their samples' dens, normalized per sample; and each sample's
    total before normalizing (rows,).

    A sample whose products all underflow (total below _TINY) is normalized
    in log space from log_pdfs, the block's log-densities, instead.
    """
    weights = np.subtract(expected_log_theta, np.maximum.reduce(expected_log_theta, axis=0))
    r = np.exp(weights, out=weights).repeat(seg.class_counts, axis=1)
    r *= dens
    total = _column_sums(r)
    # Also false for a NaN total, which a NaN or infinite E[ln theta] gives:
    # the log-space path then raises NumericError.
    if np.minimum.reduce(total) >= _TINY:
        r /= total
        return r, total
    ok = total >= _TINY
    rows = np.flatnonzero(~ok)
    r[:, rows] = _softmax(_log_space_logits(expected_log_theta, rows, seg, log_pdfs), axis=0)
    r /= np.where(ok, total, 1.0)
    return r, total


class _Sweep(NamedTuple):
    """One sweep's arrays over its tasks, theme-major: the E[ln theta] r was
    built from (used), r's class sums (counts), the new gamma, its E[ln
    theta] (log_theta), eta and lam, and which tasks' mean |lambda change|
    fell below e_tol."""

    used: np.ndarray
    counts: np.ndarray
    gamma: np.ndarray
    log_theta: np.ndarray
    eta: np.ndarray
    lam: np.ndarray
    done: np.ndarray | None = None


def _sweep_bound(seg, log_pdfs, shift, s, total, model):
    """`elbo` of each task of the `_Sweep` s over seg's classes, from its
    normalizers (as `onlineldavb` reads its bound from phinorm; Hoffman,
    Blei & Bach 2010): total is r's sample totals before normalizing and
    shift the samples' max log-densities (rows,).

    Each sample's ln Z = ln sum_k exp(E[ln theta_k] + log p_k(x)) is ln
    total + its class's max used E[ln theta] + its shift (a log-space
    sample's logsumexp), and as ln r = E[ln theta] + log p(x) - ln Z,
    log p(x) + log p(z) - log q(z) = sum ln Z + counts . (log_theta - used).
    The other terms are per class (log p(theta) - log q(theta) - log q(y))
    and per task: lam = delta + the task's eta sums, so log p(y) +
    log p(phi) - log q(phi) = ln B(lam) - ln B(delta).  No term is a pass
    over (K, rows), and every E[ln theta] is the sweep's own.
    """
    rows = None
    if np.minimum.reduce(total) >= _TINY:
        log_z = np.log(total)
    else:
        log_z = np.log(np.maximum(total, _TINY))
        rows = np.flatnonzero(total < _TINY)
    log_z += np.maximum.reduce(s.used, axis=0).repeat(seg.class_counts)
    log_z += shift
    if rows is not None:
        logits = _log_space_logits(s.used, rows, seg, log_pdfs)
        peak = np.maximum.reduce(logits, axis=0)
        logits -= peak
        log_z[rows] = peak + np.log(_column_sums(np.exp(logits, out=logits)))
    # E_final[ln theta]'s weight in log p(z) + log p(theta) - log q(theta)
    # is gamma's update from the final eta less gamma: 0 but for the last
    # eta change and the floor.  So where gamma is near 0 and E_final[ln
    # theta] huge, no huge products are summed to cancel.
    weight = s.counts + 1.0 + _gemm(model.alpha_m1.T, s.eta) - s.gamma
    weight *= s.log_theta
    weight -= s.counts * s.used
    weight += gammaln(s.gamma)  # with the next line, ln B(gamma)
    per_class = _column_sums(weight) - gammaln(_column_sums(s.gamma))
    # eta ln eta is 0 where eta is: it is eta times ln eta floored at _TINY.
    per_class -= _column_sums(s.eta * (model.log_norm + np.log(np.maximum(s.eta, _TINY))))
    return (np.add.reduceat(log_z, seg.task_row_starts)
            + np.add.reduceat(per_class, seg.task_starts)
            + _log_beta(s.lam) - model.log_beta_delta)


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

    A solved block continues from its last posterior (`block.start`); a fresh one
    starts from each sample's softmax over themes of its dens, and uniform eta.
    """
    if block.start is not None:
        return block.start
    counts0 = np.add.reduceat(dens / _column_sums(dens), block.seg.class_starts, axis=1)
    return counts0, np.full((num_task_themes, counts0.shape[1]), 1.0 / num_task_themes)


def _sweep(used, eta, lam, dens, live, log_pdfs, model, e_tol, clamps):
    """One sweep r -> gamma -> eta -> lambda of the tasks of live from
    E[ln theta] (used), eta and lam: a `_Sweep`, and r's sample totals
    before normalizing (rows,); adds gamma's floored entries per task to
    clamps."""
    r, total = _responsibilities(used, dens, live, log_pdfs)
    counts = np.add.reduceat(r, live.class_starts, axis=1)
    del r  # only its class sums are needed
    gamma = _update_gamma(counts, eta, model.alpha_m1, live, clamps)
    log_theta = _expected_log(gamma)
    eta = _expected_log(lam).repeat(live.task_classes, axis=1)
    eta -= model.log_norm
    eta += _gemm(model.alpha_m1, log_theta)
    _softmax(eta, axis=0)
    new_lam = model.delta_col + np.add.reduceat(eta, live.task_starts, axis=1)
    change = np.subtract(new_lam, lam)
    done = _column_sums(np.abs(change, out=change)) / model.L < e_tol
    return _Sweep(used, counts, gamma, log_theta, eta, new_lam, done), total


def _log_state(s):
    """ln gamma over ln eta (K + L, classes) of a `_Sweep`: the coordinates
    SQUAREM extrapolates in.  eta is floored at _TINY first, as a softmax
    can underflow to 0; gamma is positive."""
    x = np.concatenate((s.gamma, s.eta))
    return np.log(np.maximum(x, _TINY, out=x), out=x)


# The extrapolated ln gamma is capped here, so its exp, and K sums of it, stay finite.
_LOG_GAMMA_CAP = 600.0


def _extrapolate(x0, x1, x2, live, model):
    """The SqS3 point (Varadhan & Roland 2008) of each task of live from
    x0 -> x1 -> x2, two sweeps in `_log_state` coordinates: x0 - 2 a r +
    a^2 v, with r = x1 - x0, v = x2 - 2 x1 + x0 and the task's step
    a = -max(1, |r| / |v|), the norms summed over its classes (a = -1,
    which gives x2, where v is 0).  Returns the point as a `_Sweep`'s
    state: its gamma, floored at _GAMMA_FLOOR, and E[ln theta] (K,
    classes), eta renormalized by `_softmax` (L, classes), and lambda =
    delta + the task's eta sums (L, tasks)."""
    r = np.subtract(x1, x0)
    v = np.subtract(x2, x1)
    v -= r
    rr = np.add.reduceat(_column_sums(r * r), live.task_starts)
    vv = np.add.reduceat(_column_sums(v * v), live.task_starts)
    ratio = np.divide(rr, vv, out=np.ones_like(rr), where=vv > 0.0)
    step = np.sqrt(np.maximum(ratio, 1.0, out=ratio), out=ratio).repeat(live.task_classes)
    # x0 - 2 a r + a^2 v with a = -step: x0 + step (step v + 2 r).
    v *= step
    r *= 2.0
    v += r
    v *= step
    v += x0
    K = model.K
    gamma = np.exp(np.minimum(v[:K], _LOG_GAMMA_CAP))
    np.maximum(gamma, _GAMMA_FLOOR, out=gamma)
    eta = _softmax(v[K:], axis=0)
    lam = model.delta_col + np.add.reduceat(eta, live.task_starts, axis=1)
    return _Sweep(None, None, gamma, _expected_log(gamma), eta, lam)


def _safeguard(start_bound, bound, fallback_bound):
    """SQUAREM's safeguard per task: accept the stabilizing sweep where its
    bound is at least the cycle's start's.  Returns which tasks accept, and
    each task's bound at the next cycle's start: bound where accepted, else
    fallback_bound(), the bound of the state a rejecting task keeps, which
    is computed only when some task rejects."""
    accept = bound >= start_bound
    if not np.logical_and.reduce(accept):
        bound = np.where(accept, bound, fallback_bound())
    return accept, bound


def _estep_block(block, model, config):
    """`estep_blocks` for one `_Block`, on theme-major arrays (module docstring)."""
    seg = block.seg
    log_pdfs = model.log_pdfs(block.samples)
    dens, shift = all_dens, all_shift = _densities(log_pdfs)
    num_tasks, cap = len(block.tasks), config.max_e_iters

    counts0, eta = _start(block, dens, model.L)
    clamps = np.zeros(num_tasks, dtype=np.int64)
    gamma = _update_gamma(counts0, eta, model.alpha_m1, seg, clamps)
    lam = model.delta_col + np.add.reduceat(eta, seg.task_starts, axis=1)
    s = _Sweep(None, counts0, gamma, _expected_log(gamma), eta, lam)  # the first sweep's input

    # Final values, filled in per class as tasks stop: r is rebuilt from
    # each class's last used E[ln theta] once the block is done, and r's
    # class sums and eta are the block's next start.  s always holds the
    # running tasks only; `live_tasks` and `live_classes` map them back.
    out = _Sweep(*(np.empty_like(gamma) for _ in range(4)), np.empty_like(eta),
                 np.empty_like(lam))
    out_clamps = np.zeros(num_tasks, dtype=np.int64)
    iterations = np.zeros(num_tasks, dtype=np.int64)
    converged = np.zeros(num_tasks, dtype=bool)
    live = seg
    live_tasks = np.arange(num_tasks)
    live_classes = np.arange(gamma.shape[1])

    def record(s, stop):
        """Keep the sweep s of the live tasks where stop is true, at sweep it."""
        if not np.logical_or.reduce(stop):
            return
        stopped = live_tasks[stop]
        iterations[stopped] = it
        converged[stopped] = s.done[stop]
        out_clamps[stopped] = clamps[stop]
        out.lam[:, stopped] = s.lam[:, stop]
        stop_classes = stop[live.class_task]
        stopped_classes = live_classes[stop_classes]
        for final, value in zip(out[:5], s[:5]):
            final[:, stopped_classes] = value[:, stop_classes]

    def sweep(x):
        """`_sweep` from the state x, the output of a sweep or `_extrapolate`."""
        return _sweep(x.log_theta, x.eta, x.lam, dens, live, log_pdfs, model, config.e_tol,
                      clamps)

    def bound_of(s, total=None):
        """The `_sweep_bound` of s; its totals are rebuilt if not given."""
        if total is None:
            total = _responsibilities(s.used, dens, live, log_pdfs)[1]
        return _sweep_bound(live, log_pdfs, shift, s, total, model)

    # A SQUAREM cycle starts from x0 = s, the last accepted sweep: two sweeps
    # x0 -> x1 -> x2, the SqS3 point from them (`_extrapolate`) and one
    # stabilizing sweep from it, which a task keeps if its bound is at
    # least x0's (start_bound, by `_safeguard`) and else keeps x2.  The first
    # x0 is the first sweep.  A task stops at the first sweep whose own
    # lambda change is below e_tol, in a cycle or out of one; a stopped
    # task stays in the arrays until its cycle ends.  Within 3 sweeps of the
    # cap, sweeps are plain.
    it, start_bound, total = 0, None, None
    while True:
        if start_bound is None or it + 3 >= cap:
            it += 1
            s, total = sweep(s)
            stop = s.done if it < cap else np.ones_like(s.done)
            record(s, stop)
        else:
            stop = np.zeros(live_tasks.size, dtype=bool)
            x = [_log_state(s)]
            for _ in range(2):
                it += 1
                s = sweep(s)[0]
                if np.logical_or.reduce(s.done):
                    record(s, s.done & ~stop)
                    stop |= s.done
                    if np.logical_and.reduce(stop):
                        break
                x.append(_log_state(s))
            else:
                s2 = s
                it += 1
                s, total = sweep(_extrapolate(*x, live, model))
                bound = bound_of(s, total)
                total = None
                accept, start_bound = _safeguard(start_bound, bound, lambda: bound_of(s2))
                if np.logical_or.reduce(s.done):
                    done = s.done & accept
                    record(s, done & ~stop)
                    stop |= done
                if not np.logical_and.reduce(accept):
                    accepting = accept[live.class_task]
                    s = _Sweep(*(np.where(accepting, a, b) for a, b in zip(s[:5], s2[:5])),
                               np.where(accept, s.lam, s2.lam), s.done)
        if np.logical_and.reduce(stop):
            break
        if np.logical_or.reduce(stop):
            keep = ~stop
            live, keep_classes, keep_rows = live.subset(keep)
            live_tasks, clamps = live_tasks[keep], clamps[keep]
            live_classes = live_classes[keep_classes]
            s = _Sweep(*(np.compress(keep_classes, a, axis=1) for a in s[:5]),
                       np.compress(keep, s.lam, axis=1), s.done[keep])
            dens, shift = np.compress(keep_rows, dens, axis=1), shift[keep_rows]
            if start_bound is not None:
                start_bound = start_bound[keep]
            elif it + 3 < cap:
                total = total[keep_rows]
        if start_bound is None and it + 3 < cap:
            start_bound = bound_of(s, total)
        total = None  # only the last sweep's row totals are ever alive

    posterior = Posterior(seg, None, out.gamma.T.copy(), out.eta.T.copy(), out.lam.T.copy(),
                          iterations, converged, out_clamps, log_pdfs, block.samples)
    posterior._r_inputs = (out.used, all_dens)
    posterior._bound_inputs = (all_shift, out, model)
    block.start = (out.counts, out.eta)
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
    """Evidence lower bound of each task of a `Posterior`: its `elbo_terms` summed.

    This is the bound's definition, for any posterior.  A sweep's result
    also carries the same value as `Posterior.bound`, read from the sweep's
    normalizers, which is what `train` logs.
    """
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

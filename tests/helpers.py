"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, scipy.special, explicit matrix inverses) so that agreement with the
library is evidence of correctness rather than shared code.  The per-class
`update_*` functions are the E-step's coordinate updates one class at a
time, built from the library's log-densities, special functions, softmax
and gamma floor; composing them checks the stacked sweep's segment sums.
They work on `VariationalState`, one task's posterior with its
responsibilities split by class; `stack_states` and `unstack` convert
between it and the library's `Posterior`.

`dirichlet_expected_log` and `log_beta_rows` are the row-major faces of
`ldcc.special`'s theme-major kernel pair, unchecked like it.  `elbo_terms`
is the bound's definition, its nine expectations term by term (with
`xlogy` for 0 ln 0 = 0), for any `Posterior`; `elbo` sums them.  The
library reads a sweep's bound from its normalizers instead
(`Posterior.bound`), and `bound_gap` checks it against `elbo`.
`per_task_synthetic` is the generator one task at a time, draws and
arithmetic together, with `categorical` as numpy's `Generator.choice`; the
library's chunked `generate_synthetic` must write its bytes.
"""

import numpy as np
from scipy import special as sp

from ldcc import inference
from ldcc.data import (
    LatentRecord, Task, TaskCollection, _dirichlet, generate_synthetic, stack_samples,
)
from ldcc.inference import Posterior, _floor_gamma, _Segments, _softmax, estep_blocks
from ldcc.learning import _ALPHA_FLOOR, _MAX_HALVINGS
from ldcc.model import ThemeModel
from ldcc.similarity import DiagramBin
from ldcc.special import expected_log, log_beta
from ldcc.streams import task_stream


def dirichlet_expected_log(u):
    """E[ln x] under Dirichlet(u) of one vector u, or of each row of a stack,
    from `special.expected_log` of the theme-major copy."""
    u = np.asarray(u, dtype=np.float64)
    return expected_log(np.atleast_2d(u).T.copy()).T.reshape(u.shape)


def log_beta_rows(u):
    """ln B of each row of a 2-d array, from `special.log_beta` of the theme-major copy."""
    return log_beta(np.asarray(u, dtype=np.float64).T.copy())


def xlogy(x, y):
    """x * ln y with the 0 * ln 0 = 0 convention, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    safe = np.where(x == 0.0, 1.0, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x == 0.0, 0.0, x * np.log(safe))
    return out


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


class VariationalState:
    """Posterior parameters for one task.

    r: per class, an (N_c, K) row-normalized responsibility matrix.
    gamma: (C, K) per-class Dirichlet parameters over image themes.
    eta: (C, L) per-class task-theme weights, row-normalized.
    lam: (L,) task-level Dirichlet parameter; the task's embedding.
    bound: a solved state's evidence lower bound from its sweep
    (`Posterior.bound`), a float; None otherwise.
    """

    def __init__(self, r, gamma, eta, lam, iterations=0, converged=False, gamma_clamps=0,
                 bound=None):
        self.r = list(r)
        self.gamma = np.asarray(gamma, dtype=np.float64)
        self.eta = np.asarray(eta, dtype=np.float64)
        self.lam = np.asarray(lam, dtype=np.float64)
        self.iterations = iterations
        self.converged = converged
        self.gamma_clamps = gamma_clamps
        self.bound = bound


def stack_states(tasks, states, model=None):
    """The `Posterior` of tasks under their states, holding the tasks'
    samples and, given a model, their log-densities."""
    samples = stack_samples(tasks)
    return Posterior(
        _Segments.of([[len(b) for b in state.r] for state in states]),
        np.concatenate([b.T for state in states for b in state.r], axis=1),
        np.concatenate([state.gamma for state in states]),
        np.concatenate([state.eta for state in states]),
        np.stack([state.lam for state in states]),
        log_pdfs=None if model is None else model.log_pdfs(samples), samples=samples,
    )


def unstack(posterior):
    """One VariationalState per task of a solved `Posterior`, C-ordered."""
    r_blocks = np.split(posterior.r.T.copy(), posterior.seg.class_starts[1:])
    starts = posterior.seg.task_starts
    return [
        VariationalState(
            r_blocks[a:b], posterior.gamma[a:b], posterior.eta[a:b], posterior.lam[d],
            iterations=int(posterior.iterations[d]),
            converged=bool(posterior.converged[d]),
            gamma_clamps=int(posterior.gamma_clamps[d]),
            bound=float(posterior.bound[d]),
        )
        for d, (a, b) in enumerate(zip(starts, starts + posterior.seg.task_classes))
    ]


def estep_states(tasks, model, config):
    """Every task's solved VariationalState, in task order."""
    return [state for part in estep_blocks(tasks, model, config) for state in unstack(part)]


def warm_start(state):
    """The E-step start that continues from a solved state: r's class sums
    (K, classes), summed as `softmax_start` sums its start, and eta (L, classes)."""
    counts = [len(block) for block in state.r]
    r = np.ascontiguousarray(np.concatenate(state.r).T)
    return (np.add.reduceat(r, np.cumsum((0, *counts[:-1])), axis=1),
            np.ascontiguousarray(state.eta.T))


def continued_estep_states(tasks, states, model, config):
    """`estep_states` where each task's E-step starts from its solved state
    (`warm_start`) instead of its softmax start, in the blocks `estep_blocks` cuts."""
    starts = map(warm_start, states)
    solved = []
    for run in inference._blocks(tasks):
        counts0, eta0 = zip(*(next(starts) for _ in run))
        block = inference._Block(run)
        block.start = np.concatenate(counts0, axis=1), np.concatenate(eta0, axis=1)
        solved += unstack(inference._estep_block(block, model, config))
    return solved


def task_elbo(task, state, model):
    """`elbo` of one task under its state, as a float."""
    return float(elbo(stack_states([task], [state], model), model)[0])


def bound_gap(task, state, model):
    """|bound - elbo| of a solved state, over the sum of the magnitudes of the
    nine `elbo_terms`: the terms cancel (from 1e8 and more each where gamma
    is near 0), so the value is no scale for either form's rounding."""
    terms = elbo_terms(stack_states([task], [state], model), model)
    scale = sum(abs(float(value[0])) for value in terms.values())
    return abs(state.bound - task_elbo(task, state, model)) / scale


def softmax_start(task, model):
    """The oracle of a block's E-step start (`inference._start`), one task
    alone: each sample's softmax over themes of its own log-densities,
    summed per class, and uniform eta.  Returns r's class sums
    (K, classes) and eta (L, classes)."""
    r = _softmax(model.log_pdfs(stack_samples([task])), axis=0)
    starts = np.cumsum((0, *task.counts[:-1]))
    return np.add.reduceat(r, starts, axis=1), np.full((model.L, task.num_classes), 1.0 / model.L)


def query_model():
    """The query-select benchmark's model: L=4, K=6, D=8, means 4 x N(0, 1),
    identity covariances, alpha rows uniform in [0.5, 2] and delta 0.5,
    drawn in that order from seed 0 (the CLI's --random-model recipe)."""
    rng = np.random.default_rng(0)
    return ThemeModel(4.0 * rng.standard_normal((6, 8)), np.stack([np.eye(8)] * 6),
                      rng.uniform(0.5, 2.0, (4, 6)), np.full(4, 0.5))


def query_bank():
    """query-select's queries under its benchmark seed: `query_model()` and
    128 tasks of 5 classes x 16 shots drawn from it with data seed 4242."""
    model = query_model()
    return model, list(generate_synthetic(model, 128, 5, 16, seed=4242)[0])


def array_dirichlet(rng, concentration):
    """A normalized Dirichlet draw as one `standard_gamma(array)` call per
    attempt, redrawn while every entry underflows to zero."""
    for _ in range(100):
        g = rng.standard_gamma(concentration)
        if g.sum() > 0:
            return g / g.sum()
    raise AssertionError("every attempt underflowed")


def categorical(rng, p, size=None):
    """`rng.choice(len(p), size, p=p)` for a normalized p, without its argument
    checks: numpy's own algorithm (cumulative sums scaled to end at 1, then a
    right-sided search of uniforms), so the same draws and stream position."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def per_task_synthetic(model, num_tasks, num_classes, shots, seed):
    """`generate_synthetic` one task at a time: per task the draws and the
    arithmetic on them, in stream order (phi, then per class y, theta, z and
    the noise), then the task's features and their float32 rounding."""
    L, D = model.L, model.D
    delta, alpha = model.delta.tolist(), model.alpha.tolist()
    tasks = []
    phis = np.empty((num_tasks, L))
    ys = np.empty((num_tasks, num_classes), dtype=np.int64)
    zs = np.empty((num_tasks, num_classes, shots), dtype=np.int64)
    eps = np.empty((num_classes, shots, D))
    for d in range(num_tasks):
        rng = task_stream(seed, d)
        phis[d] = _dirichlet(rng, delta)
        for c in range(num_classes):
            ys[d, c] = y = categorical(rng, phis[d])
            zs[d, c] = categorical(rng, _dirichlet(rng, alpha[y]), shots)
            rng.standard_normal(out=eps[c])
        x = model.mu[zs[d]] + np.einsum("cnij,cnj->cni", model.chol_factors[zs[d]], eps)
        tasks.append(Task(f"task_{d:05d}", x.astype(np.float32)))
    return TaskCollection(tasks), LatentRecord(phis, ys, zs)


def update_r(task, c, state, model, log_pdfs=None):
    """Responsibilities for class c: softmax of E[ln theta] + Gaussian log-pdf
    (log_pdfs, when given, is the class's (n, K) table)."""
    if log_pdfs is None:
        log_pdfs = model.log_pdfs(task.classes[c].astype(np.float64)).T
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


def naive_elbo_terms(task, state, model):
    """Nine bound terms via quadruple loops, scipy digamma, explicit inverses."""
    C = task.num_classes
    K, D, L = model.K, model.D, model.L

    def dir_elog(u):
        return sp.psi(u) - sp.psi(np.sum(u))

    log_px = 0.0
    for c in range(C):
        block = task.classes[c].astype(np.float64)
        for n in range(block.shape[0]):
            for k in range(K):
                inv = np.linalg.inv(model.sigma[k])
                _, logdet = np.linalg.slogdet(model.sigma[k])
                diff = block[n] - model.mu[k]
                quad = float(diff @ inv @ diff)
                log_px += state.r[c][n, k] * (
                    -0.5 * (D * np.log(2 * np.pi) + logdet + quad)
                )

    log_pz = 0.0
    for c in range(C):
        elog_theta = dir_elog(state.gamma[c])
        for n in range(state.r[c].shape[0]):
            for k in range(K):
                log_pz += state.r[c][n, k] * elog_theta[k]

    log_ptheta = 0.0
    for c in range(C):
        elog_theta = dir_elog(state.gamma[c])
        for l in range(L):
            ln_beta = float(np.sum(sp.gammaln(model.alpha[l])) - sp.gammaln(np.sum(model.alpha[l])))
            inner = -ln_beta
            for k in range(K):
                inner += (model.alpha[l, k] - 1.0) * elog_theta[k]
            log_ptheta += state.eta[c, l] * inner

    elog_phi = dir_elog(state.lam)
    log_py = 0.0
    for c in range(C):
        for l in range(L):
            log_py += state.eta[c, l] * elog_phi[l]

    ln_beta_delta = float(np.sum(sp.gammaln(model.delta)) - sp.gammaln(np.sum(model.delta)))
    log_pphi = -ln_beta_delta
    for l in range(L):
        log_pphi += (model.delta[l] - 1.0) * elog_phi[l]

    log_qz = 0.0
    for c in range(C):
        for n in range(state.r[c].shape[0]):
            for k in range(K):
                v = state.r[c][n, k]
                if v > 0:
                    log_qz += v * np.log(v)

    log_qtheta = 0.0
    for c in range(C):
        elog_theta = dir_elog(state.gamma[c])
        ln_beta = float(np.sum(sp.gammaln(state.gamma[c])) - sp.gammaln(np.sum(state.gamma[c])))
        log_qtheta += -ln_beta
        for k in range(K):
            log_qtheta += (state.gamma[c, k] - 1.0) * elog_theta[k]

    log_qy = 0.0
    for c in range(C):
        for l in range(L):
            v = state.eta[c, l]
            if v > 0:
                log_qy += v * np.log(v)

    ln_beta_lam = float(np.sum(sp.gammaln(state.lam)) - sp.gammaln(np.sum(state.lam)))
    log_qphi = -ln_beta_lam
    for l in range(L):
        log_qphi += (state.lam[l] - 1.0) * elog_phi[l]

    return {
        "log_px": log_px,
        "log_pz": log_pz,
        "log_ptheta": log_ptheta,
        "log_py": log_py,
        "log_pphi": log_pphi,
        "log_qz": log_qz,
        "log_qtheta": log_qtheta,
        "log_qy": log_qy,
        "log_qphi": log_qphi,
    }


def alpha_objective(states, alpha):
    """Eta-weighted Dirichlet log-likelihood whose gradient the library claims."""
    alpha = np.asarray(alpha, dtype=np.float64)
    total = 0.0
    for state in states:
        for c in range(state.gamma.shape[0]):
            elog_theta = sp.psi(state.gamma[c]) - sp.psi(np.sum(state.gamma[c]))
            for l in range(alpha.shape[0]):
                inner = sp.gammaln(np.sum(alpha[l])) - np.sum(sp.gammaln(alpha[l]))
                inner += np.sum((alpha[l] - 1.0) * elog_theta)
                total += state.eta[c, l] * inner
    return float(total)


def fd_alpha_gradient(states, alpha, step=1e-5):
    """Central finite differences of alpha_objective."""
    alpha = np.asarray(alpha, dtype=np.float64)
    grad = np.zeros_like(alpha)
    for l in range(alpha.shape[0]):
        for k in range(alpha.shape[1]):
            hi = alpha.copy()
            lo = alpha.copy()
            hi[l, k] += step
            lo[l, k] -= step
            grad[l, k] = (alpha_objective(states, hi) - alpha_objective(states, lo)) / (
                2 * step
            )
    return grad


def dense_newton_solve(work):
    """Solve (diag(q) + u 11^T) x = g per row with a dense linear solver."""
    L, K = work.gradient.shape
    out = np.zeros((L, K))
    for l in range(L):
        H = np.diag(work.q_diag[l]) + work.u[l] * np.ones((K, K))
        out[l] = np.linalg.solve(H, work.gradient[l])
    return out


def random_posterior_instance(rng, C=3, N=4, K=3, L=2, D=2):
    """A random but valid (task, state, model-ish arrays) tuple for oracles."""
    blocks = [rng.normal(size=(N, D)).astype(np.float32) for _ in range(C)]
    task = Task(f"oracle_{rng.integers(1 << 30)}", blocks)
    r = [rng.dirichlet(np.ones(K), size=N) for _ in range(C)]
    gamma = rng.uniform(0.2, 8.0, size=(C, K))
    eta = rng.dirichlet(np.ones(L), size=C)
    lam = rng.uniform(0.2, 6.0, size=L)
    state = VariationalState(r, gamma, eta, lam)
    return task, state


def damped_alpha_step(alpha_row, step_row):
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


def mc_dirichlet_kl(a, b, num_samples, rng):
    """Monte Carlo KL estimate and its standard error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = rng.dirichlet(a, size=num_samples)
    x = np.clip(x, 1e-12, None)

    def logpdf(theta, conc):
        ln_beta = np.sum(sp.gammaln(conc)) - sp.gammaln(np.sum(conc))
        return -ln_beta + (np.log(theta) * (conc - 1.0)).sum(axis=1)

    values = logpdf(x, a) - logpdf(x, b)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(num_samples))


def per_bin_diagram(distances, accuracies, num_bins):
    """correlation_diagram's bins by a scan of every bin, 1 to num_bins."""
    distances = np.asarray(distances, dtype=np.float64)
    accuracies = np.asarray(accuracies, dtype=np.float64)
    width = distances.max() / num_bins
    if width > 0.0:
        assignment = np.clip(np.ceil(distances / width).astype(int), 1, num_bins)
    else:
        assignment = np.ones(distances.size, dtype=int)
    bins = []
    for j in range(1, num_bins + 1):
        members = assignment == j
        if members.any():
            bins.append(DiagramBin(
                j, float((j - 1) * width), float(j * width), float(distances[members].mean()),
                float(accuracies[members].mean()), int(members.sum()),
            ))
    return bins


def reference_gmm_em(x, num_components, means_init, iters=500, jitter=1e-6, tol=1e-12):
    """Plain EM for a Gaussian mixture with mixing weights.

    Standard alternation: responsibilities from weighted densities, then
    weight/mean/covariance updates with a jitter ridge, exactly the
    textbook recipe.
    """
    x = np.asarray(x, dtype=np.float64)
    n, dim = x.shape
    means = np.asarray(means_init, dtype=np.float64).copy()
    covs = np.stack([np.cov(x.T, bias=True) + jitter * np.eye(dim)] * num_components)
    weights = np.full(num_components, 1.0 / num_components)
    prev = None
    for _ in range(iters):
        log_resp = np.empty((n, num_components))
        for k in range(num_components):
            inv = np.linalg.inv(covs[k])
            _, logdet = np.linalg.slogdet(covs[k])
            diff = x - means[k]
            quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
            log_resp[:, k] = np.log(weights[k]) - 0.5 * (
                dim * np.log(2 * np.pi) + logdet + quad
            )
        shift = log_resp.max(axis=1, keepdims=True)
        resp = np.exp(log_resp - shift)
        resp /= resp.sum(axis=1, keepdims=True)
        mass = resp.sum(axis=0)
        weights = mass / n
        means = (resp.T @ x) / mass[:, None]
        for k in range(num_components):
            diff = x - means[k]
            covs[k] = (resp[:, k, None] * diff).T @ diff / mass[k] + jitter * np.eye(dim)
        if prev is not None and np.abs(means - prev).max() < tol:
            break
        prev = means.copy()
    return weights, means, covs, resp


def best_permutation(reference, candidate):
    """Permutation of candidate rows minimizing total distance to reference."""
    from itertools import permutations

    K = reference.shape[0]
    best, best_cost = None, np.inf
    for perm in permutations(range(K)):
        cost = sum(
            np.linalg.norm(reference[k] - candidate[perm[k]]) for k in range(K)
        )
        if cost < best_cost:
            best, best_cost = perm, cost
    return list(best)

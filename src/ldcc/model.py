"""Shared model state: Gaussian image-themes and Dirichlet task-themes.

A ThemeModel holds K Gaussian components (mu_k, Sigma_k) describing feature
clusters, L Dirichlet rows alpha_l describing how task themes use those
clusters, and the task-level prior delta.  Covariance Cholesky factors,
log-determinants and every other per-model constant the E-step and the
bound read are cached at construction; the model is treated as immutable
afterwards so concurrent E-steps can share it without locking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import TaskCollection, is_json_int, read_json_object, stack_samples
from .errors import CheckpointError, DataError, ModelError
from .special import _positive_array, log_beta
from .streams import check_seed, init_stream

_LOG_2PI = math.log(2.0 * math.pi)

DEFAULT_JITTER = 1e-6
_LOG_PDF_ENTRIES = 2**17


class ThemeModel:
    """Immutable container for (mu, sigma, alpha, delta) with cached factors:
    chol_factors, log_dets, alpha_m1 = alpha - 1, log_norm and delta_col,
    the (L, 1) columns of ln B(alpha_l) and delta, and log_beta_delta,
    ln B(delta) as a (1,) array, all read-only.  alpha and delta entries
    below 1e-300 raise DomainError."""

    def __init__(self, mu, sigma, alpha, delta):
        mu = np.array(mu, dtype=np.float64)
        sigma = np.array(sigma, dtype=np.float64)
        alpha = np.array(alpha, dtype=np.float64)
        delta = np.array(delta, dtype=np.float64)
        if mu.ndim != 2:
            raise ModelError(f"mu must be (K, D), got shape {mu.shape}")
        K, D = mu.shape
        if sigma.shape != (K, D, D):
            raise ModelError(f"sigma must be {(K, D, D)}, got {sigma.shape}")
        if alpha.ndim != 2 or alpha.shape[1] != K:
            raise ModelError(f"alpha must be (L, {K}), got {alpha.shape}")
        L = alpha.shape[0]
        if delta.shape != (L,):
            raise ModelError(f"delta must be ({L},), got {delta.shape}")
        for name, arr in (("mu", mu), ("sigma", sigma), ("alpha", alpha), ("delta", delta)):
            if not np.isfinite(arr).all():
                raise ModelError(f"{name} contains non-finite values")
        if (alpha <= 0).any():
            raise ModelError("alpha entries must be strictly positive")
        if (delta <= 0).any():
            raise ModelError("delta entries must be strictly positive")

        symmetric = np.isclose(sigma, sigma.transpose(0, 2, 1), atol=1e-8).all(axis=(1, 2))
        if not symmetric.all():
            raise ModelError(f"sigma[{np.argmin(symmetric)}] is not symmetric")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            for k in range(K):  # only a failure pays for naming its theme
                try:
                    np.linalg.cholesky(sigma[k])
                except np.linalg.LinAlgError:
                    raise ModelError(f"sigma[{k}] is not positive definite") from exc
        log_dets = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        _positive_array(alpha, "ThemeModel alpha")
        _positive_array(delta, "ThemeModel delta")

        with np.errstate(over="ignore", invalid="ignore"):  # NaN for huge alpha; E-steps reject it
            alpha_m1, log_norm = alpha - 1.0, log_beta(alpha.T.copy())[:, None]
            log_beta_delta = log_beta(delta[:, None])
        log_pdf_const = D * _LOG_2PI + log_dets[:, None]
        for arr in (mu, sigma, alpha, delta, chol, log_dets, alpha_m1, log_norm, log_beta_delta,
                    log_pdf_const):
            arr.flags.writeable = False
        self.mu = mu
        self.sigma = sigma
        self.alpha = alpha
        self.delta = delta
        self.chol_factors = chol
        self.log_dets = log_dets
        self.alpha_m1, self.log_norm, self.delta_col = alpha_m1, log_norm, delta[:, None]
        self.log_beta_delta = log_beta_delta
        # Feature i's step of the forward substitution in `log_pdfs`.
        self._solve_steps = [(chol[:, i, :i], chol[:, i, i, None]) for i in range(D)]
        self._log_pdf_const = log_pdf_const

    @property
    def K(self) -> int:
        return self.mu.shape[0]

    @property
    def D(self) -> int:
        return self.mu.shape[1]

    @property
    def L(self) -> int:
        return self.alpha.shape[0]

    def log_pdfs(self, x: np.ndarray) -> np.ndarray:
        """Gaussian log-densities of the rows of x, (n, D), under every theme, as (K, n).

        Mahalanobis terms come from forward substitution against the cached
        Cholesky factors, one feature at a time (the first only divides)
        over the (D, K, rows) differences to all themes, in near-equal pieces
        of about _LOG_PDF_ENTRIES entries; no covariance is inverted.  The
        sums run in a fixed order without BLAS or LAPACK, so results depend
        neither on the thread count nor on the row split.  A lone row is
        solved as the first of two: einsum sums it in another order.
        Factor slices and the constant term are cached; one piece is not split.
        """
        if x.ndim != 2 or x.shape[1] != self.D:
            raise ModelError(f"expected samples of shape (n, {self.D}), got {x.shape}")
        n = len(x)
        x = x if n > 1 else x.repeat(2, axis=0)
        out = np.empty((self.K, len(x)))
        pieces = min(-(-len(x) * self.D * self.K // _LOG_PDF_ENTRIES), len(x) // 2) or 1
        split = (zip(np.array_split(x, pieces), np.array_split(out, pieces, axis=1))
                 if pieces > 1 else [(x, out)])
        for rows, part in split:
            # z[i], (K, n), starts as feature i of x_n - mu_k and is overwritten
            # with feature i of the solution of L_k z = x_n - mu_k.
            z = np.ascontiguousarray(rows.T)[:, None, :] - self.mu.T[:, :, None]
            for i, (lower, diag) in enumerate(self._solve_steps):
                if i:
                    z[i] -= np.einsum("kj,jkn->kn", lower, z[:i])
                z[i] /= diag
            np.einsum("ikn,ikn->kn", z, z, out=part)
        out += self._log_pdf_const
        out *= -0.5
        return np.ascontiguousarray(out[:, :n])

    def __eq__(self, other):
        return (
            isinstance(other, ThemeModel)
            and np.array_equal(self.mu, other.mu)
            and np.array_equal(self.sigma, other.sigma)
            and np.array_equal(self.alpha, other.alpha)
            and np.array_equal(self.delta, other.delta)
        )

    def __repr__(self):
        return f"ThemeModel(L={self.L}, K={self.K}, D={self.D})"


def init_model(
    sample: TaskCollection,
    num_task_themes: int,
    num_image_themes: int,
    delta_value: float,
    seed: int,
    jitter: float = DEFAULT_JITTER,
) -> ThemeModel:
    """Data-driven starting point for training.

    Theme means are distinct randomly chosen data rows; every covariance
    starts at the pooled sample covariance (plus jitter on the diagonal), so
    initial responsibilities are soft across the whole spread of the data.
    alpha starts at exp(0.2 z), z standard normal (L, K), drawn from the
    same stream after the means: the E-step start is deterministic, so
    equal alpha rows would stay equal forever.  delta starts at the
    symmetric delta_value.
    """
    if num_task_themes < 1 or num_image_themes < 1:
        raise ValueError("theme counts must be >= 1")
    if delta_value <= 0:
        raise ValueError("delta_value must be positive")
    pooled = stack_samples(sample)
    n = pooled.shape[0]
    if num_image_themes > n:
        raise DataError(
            f"cannot seed {num_image_themes} image themes from {n} samples"
        )
    rng = init_stream(seed)
    rows = rng.choice(n, size=num_image_themes, replace=False)
    mu = pooled[rows]
    centered = pooled - pooled.mean(axis=0)
    cov = centered.T @ centered / n + jitter * np.eye(pooled.shape[1])
    sigma = np.broadcast_to(cov, (num_image_themes, *cov.shape)).copy()
    alpha = np.exp(0.2 * rng.standard_normal((num_task_themes, num_image_themes)))
    delta = np.full(num_task_themes, float(delta_value))
    return ThemeModel(mu, sigma, alpha, delta)


def save_model(model: ThemeModel, path) -> None:
    """Write a JSON checkpoint; floats keep full round-trip precision."""
    payload = {
        "version": 1,
        "L": model.L,
        "K": model.K,
        "D": model.D,
        "delta": model.delta.tolist(),
        "alpha": model.alpha.tolist(),
        "mu": model.mu.tolist(),
        "sigma": model.sigma.tolist(),
    }
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_model(path) -> ThemeModel:
    """Read a JSON checkpoint, re-deriving factorizations and re-validating."""
    fields = ("L", "K", "D", "delta", "alpha", "mu", "sigma")
    payload = read_json_object(path, "checkpoint", fields, CheckpointError)
    version, L, K, D = (payload.get(key) for key in ("version", "L", "K", "D"))
    if not is_json_int(version) or version != 1:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    if not all(map(is_json_int, (L, K, D))):
        raise CheckpointError(f"checkpoint L, K and D must be integers, got {L!r}, {K!r}, {D!r}")
    try:
        model = ThemeModel(payload["mu"], payload["sigma"], payload["alpha"], payload["delta"])
    except (ModelError, ValueError, TypeError) as exc:  # TypeError: a JSON object for an array
        raise CheckpointError(f"invalid checkpoint parameters: {exc}") from exc
    if (model.L, model.K, model.D) != (L, K, D):
        raise CheckpointError(
            f"checkpoint dims (L={L}, K={K}, D={D}) disagree with arrays "
            f"(L={model.L}, K={model.K}, D={model.D})"
        )
    return model


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for online training; validated on construction: counts are integers, no value a bool.

    tau0/tau1 set the mini-batch step-size schedule rho_b = (tau0 + b)^(-tau1);
    tau1 must lie in (0.5, 1] so the schedule's steps are square-summable but
    not summable, which is what lets the stochastic updates settle.  They
    apply to mini-batches only: when batch_size covers the whole collection,
    `train` continues each E-step from the last posterior and uses rho = 1.
    max_e_iters caps each E-step's sweeps: every sweep of its SQUAREM
    cycles counts, the stabilizing sweep included.
    """

    tau0: float = 100.0
    tau1: float = 0.51
    batch_size: int = 500
    e_tol: float = 1e-3
    max_e_iters: int = 100
    jitter: float = DEFAULT_JITTER
    seed: int = 0
    max_batches: int = 100

    def __post_init__(self):
        for name in ("batch_size", "max_e_iters", "max_batches"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("tau0", "tau1", "e_tol", "jitter"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not 0 <= self.tau0 < math.inf:
            raise ValueError(f"tau0 must be finite and >= 0, got {self.tau0}")
        if not 0.5 < self.tau1 <= 1.0:
            raise ValueError(f"tau1 must lie in (0.5, 1], got {self.tau1}")
        if not 0 < self.e_tol < math.inf:
            raise ValueError(f"e_tol must be finite and positive, got {self.e_tol}")
        if not 0 <= self.jitter < math.inf:
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter}")
        check_seed(self.seed)

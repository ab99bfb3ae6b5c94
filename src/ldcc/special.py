"""Special functions underlying the variational updates.

digamma and trigamma use the classic recurrence shift (six steps of
psi(x) = psi(x+1) - 1/x, so the argument lands at >= 6) followed by the
de Moivre asymptotic expansion in 1/x^2.  The log-gamma family is
scipy.special.gammaln.  Arguments are validated rather than clamped:
non-positive, non-finite, or denormal-range inputs raise DomainError so
silent upstream corruption cannot hide here.

All functions accept scalars or numpy arrays and return matching shapes.
"""

import numpy as np
from scipy.special import gammaln

from .errors import DomainError

_TINY = 1e-300

# Asymptotic tail coefficients, B_2n / (2n): psi(y) = ln y - 1/(2y) - sum c_n y^(-2n).
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)

# B_2n: psi'(y) = 1/y + 1/(2y^2) + y^(-3) * sum b_n y^(-2(n-1)).
_PSI1_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

_SHIFT = 6


def _positive_array(x, name):
    """Validate x > 0 elementwise (finite, not below the denormal cutoff)."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    if arr.size and (not np.isfinite(arr).all() or (arr < _TINY).any()):
        raise DomainError(
            f"{name} requires finite inputs >= {_TINY:g}; "
            f"got min {arr.min() if np.isfinite(arr).all() else 'non-finite'}"
        )
    return arr, scalar


def _horner(w, coefficients):
    acc = np.zeros_like(w)
    for c in reversed(coefficients):
        acc = w * (c + acc)
    return acc


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    arr, scalar = _positive_array(x, "log_gamma")
    out = gammaln(arr)
    return float(out) if scalar else out


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    arr, scalar = _positive_array(x, "digamma")
    with np.errstate(over="ignore"):
        shifted = arr + float(_SHIFT)
        recurrence = np.sum(1.0 / (arr[..., None] + np.arange(float(_SHIFT))), axis=-1)
        w = 1.0 / (shifted * shifted)
        out = np.log(shifted) - 0.5 / shifted - _horner(w, _PSI_TAIL) - recurrence
    return float(out) if scalar else out


def trigamma(x):
    """psi'(x), the derivative of digamma, for x > 0."""
    arr, scalar = _positive_array(x, "trigamma")
    # 1/x^2 overflows for x near the domain edge; the mathematically huge
    # result degrades to +inf, matching what the true value would round to.
    with np.errstate(over="ignore", divide="ignore"):
        shifted = arr + float(_SHIFT)
        recurrence = np.sum(
            (1.0 / (arr[..., None] + np.arange(float(_SHIFT)))) ** 2, axis=-1
        )
        w = 1.0 / (shifted * shifted)
        out = 1.0 / shifted + 0.5 * w + (w / shifted) * _poly(w, _PSI1_TAIL)
        out = out + recurrence
    return float(out) if scalar else out


def _poly(w, coefficients):
    acc = np.zeros_like(w)
    for c in reversed(coefficients):
        acc = c + w * acc
    return acc


def log_beta_dirichlet(u):
    """ln of the multivariate beta function: sum ln Gamma(u_k) - ln Gamma(sum u_k)."""
    arr, _ = _positive_array(u, "log_beta_dirichlet")
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError("log_beta_dirichlet expects a non-empty 1-d vector")
    if arr.size == 1:
        return 0.0
    return float(gammaln(arr).sum() - gammaln(arr.sum()))


def log_beta_rows(u):
    """Row-wise log_beta_dirichlet for a 2-d array of positive rows."""
    arr, _ = _positive_array(u, "log_beta_rows")
    if arr.ndim != 2:
        raise DomainError("log_beta_rows expects a 2-d array")
    return gammaln(arr).sum(axis=1) - gammaln(arr.sum(axis=1))


def xlogy(x, y):
    """x * ln y with the 0 * ln 0 = 0 convention, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    safe = np.where(x == 0.0, 1.0, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x == 0.0, 0.0, x * np.log(safe))
    return out

"""Special functions underlying the variational updates.

digamma is scipy.special.psi, trigamma is the Hurwitz zeta function
scipy.special.zeta(2, x), and the log-beta functions sum
scipy.special.gammaln.  Arguments are validated rather than clamped:
non-positive, non-finite, or denormal-range inputs raise DomainError so
silent upstream corruption cannot hide here.

All functions accept scalars or numpy arrays and return matching shapes.
"""

import numpy as np
from scipy.special import gammaln, psi, zeta

from .errors import DomainError

_TINY = 1e-300


def _positive_array(x, name):
    """Validate x > 0 elementwise (finite, not below the denormal cutoff).

    The comparisons are False for NaN, so one min and one max reject it too.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.size:
        low, high = arr.min(), arr.max()
        if not (low >= _TINY and high < np.inf):
            raise DomainError(
                f"{name} requires finite inputs >= {_TINY:g}; got min {low}, max {high}"
            )
    return arr, arr.ndim == 0


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    arr, scalar = _positive_array(x, "digamma")
    out = psi(arr)
    return float(out) if scalar else out


def trigamma(x):
    """psi'(x), the derivative of digamma, for x > 0.

    This is the Hurwitz zeta function zeta(2, x).  Near the domain edge the
    true value exceeds the float range and the result is +inf.
    """
    arr, scalar = _positive_array(x, "trigamma")
    out = zeta(2.0, arr)
    return float(out) if scalar else out


def log_beta_rows(u):
    """ln of the multivariate beta function of each row of a 2-d array of
    positive rows: sum ln Gamma(u_k) - ln Gamma(sum u_k)."""
    arr, _ = _positive_array(u, "log_beta_rows")
    if arr.ndim != 2:
        raise DomainError("log_beta_rows expects a 2-d array")
    return gammaln(arr).sum(axis=1) - gammaln(arr.sum(axis=1))


def log_beta_dirichlet(u):
    """log_beta_rows of one non-empty 1-d vector, as a float."""
    arr, _ = _positive_array(u, "log_beta_dirichlet")
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError("log_beta_dirichlet expects a non-empty 1-d vector")
    return float(log_beta_rows(arr[None])[0])


def dirichlet_expected_log(u):
    """E[ln x] under Dirichlet(u): psi(u_k) - psi(sum u).

    Accepts a single parameter vector or a stack of rows.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim not in (1, 2):
        raise ValueError(f"expected a vector or matrix, got ndim={u.ndim}")
    return digamma(u) - digamma(u.sum(axis=-1, keepdims=True))


def xlogy(x, y):
    """x * ln y with the 0 * ln 0 = 0 convention, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    safe = np.where(x == 0.0, 1.0, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x == 0.0, 0.0, x * np.log(safe))
    return out

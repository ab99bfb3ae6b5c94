"""The checked Dirichlet kernels that scipy lacks.

log_beta_rows sums scipy.special.gammaln, and dirichlet_expected_log
subtracts scipy.special.psi of the row sums; callers that need digamma
or trigamma alone call scipy.special.psi and scipy.special.zeta(2, x)
themselves.  Arguments are validated rather than clamped: non-positive,
non-finite, or denormal-range inputs raise DomainError so silent upstream
corruption cannot hide here.  xlogy keeps its own arithmetic, which
differs from scipy.special.xlogy in the last bit on some inputs.
"""

import numpy as np
from scipy.special import gammaln, psi

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
    return arr


def log_beta_rows(u):
    """ln of the multivariate beta function of each row of a 2-d array of
    positive rows: sum ln Gamma(u_k) - ln Gamma(sum u_k)."""
    arr = _positive_array(u, "log_beta_rows")
    if arr.ndim != 2:
        raise DomainError("log_beta_rows expects a 2-d array")
    return gammaln(arr).sum(axis=1) - gammaln(arr.sum(axis=1))


def dirichlet_expected_log(u):
    """E[ln x] under Dirichlet(u): psi(u_k) - psi(sum u).

    Accepts a single parameter vector or a stack of rows.
    """
    u = _positive_array(u, "dirichlet_expected_log")
    if u.ndim not in (1, 2):
        raise ValueError(f"expected a vector or matrix, got ndim={u.ndim}")
    with np.errstate(over="ignore"):  # an overflowing row sum is refused below
        total = u.sum(axis=-1, keepdims=True)
    return psi(u) - psi(_positive_array(total, "dirichlet_expected_log"))


def xlogy(x, y):
    """x * ln y with the 0 * ln 0 = 0 convention, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    safe = np.where(x == 0.0, 1.0, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x == 0.0, 0.0, x * np.log(safe))
    return out

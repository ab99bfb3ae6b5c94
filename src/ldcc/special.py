"""The one pair of Dirichlet kernels, and the check their inputs pass first.

Both take theme-major u (K, n), one Dirichlet per column, and sum over the
themes with `_column_sums`, so a column gets the same bits whatever the
other columns; a row-major caller passes `u.T.copy()`, not a `.T` view,
whose sums run in another order.  The kernels are unchecked, as the
sweep's gamma and lambda are positive by construction.  Values enter
through `ThemeModel`, `alpha_newton_work`, `dirichlet_kl` and `_mean_kl`,
which validate them with `_positive_array` rather than clamp them:
non-positive, non-finite or denormal-range inputs raise DomainError, so
silent upstream corruption cannot hide here.  Digamma and trigamma alone
are scipy.special.psi and scipy.special.zeta(2, x).
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


def _column_sums(a, keepdims=False):
    """np.add.reduce(a, axis=0), row after row for a 2-D a of any width.

    numpy sums a lone column of 8 or more rows pairwise, so that one is
    summed as the first of two, and a task alone gets the bits it gets in
    a block (as `inference._gemm` pads a one-column product).
    """
    lone = a.ndim == 2 and a.shape[1] == 1 and len(a) >= 8
    total = np.add.reduce(a.repeat(2, axis=1) if lone else a, axis=0, keepdims=keepdims)
    return total[..., :1] if lone else total


def expected_log(u):
    """E[ln x] under Dirichlet(u) of each column of theme-major u (K, n), as (K, n)."""
    total = _column_sums(u)
    out = psi(u)
    out -= psi(total, out=total)
    return out


def log_beta(u):
    """ln of the multivariate beta function of each column of theme-major u (K, n), as (n,)."""
    return _column_sums(gammaln(u)) - gammaln(_column_sums(u))

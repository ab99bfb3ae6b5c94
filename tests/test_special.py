"""The special functions as the library evaluates them.

psi and ln Gamma reach the library through `ldcc.special`'s one pair of
theme-major Dirichlet kernels, `expected_log` and `log_beta`, checked here
through their row-major faces in the test helpers (`dirichlet_expected_log`
and `log_beta_rows`).  Trigamma, scipy's zeta(2, x), reaches it through
the Hessian diagonal of `alpha_newton_work`.  The kernels are unchecked:
the domain checks run where values enter the library, so each `test_domain`
pins them there.  `xlogy` is the 0 ln 0 convention of the helpers'
term-by-term bound.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dirichlet_expected_log, log_beta_rows, xlogy
from ldcc.errors import DomainError
from ldcc.inference import Posterior
from ldcc.learning import alpha_newton_work
from ldcc.model import ThemeModel
from ldcc.similarity import dirichlet_kl, distance_matrix

EULER_GAMMA = 0.5772156649015329


def digamma_gap(x, y):
    """psi(x) - psi(y) as E[ln p_0] - E[ln p_1] under Dirichlet(x, y)."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), y)
    out = dirichlet_expected_log(np.stack([x, y], axis=-1))
    return out[..., 0] - out[..., 1]


def trigamma(x):
    """psi'(x) as -q_diag of `alpha_newton_work` for one alpha row x, whose
    one class puts unit weight on its one task theme."""
    x = np.asarray(x, dtype=np.float64)
    row = np.atleast_1d(x)
    part = Posterior(None, None, np.ones((1, row.size)), np.ones((1, 1)), np.ones((1, 1)))
    out = -alpha_newton_work([part], row[None]).q_diag[0]
    return float(out[0]) if x.ndim == 0 else out


class TestDigamma:
    def test_euler_mascheroni(self):
        # E[ln p_0] under Dir(1, n) is psi(1) - psi(n + 1) = -H_n, and
        # H_n = ln n + gamma + 1/(2n) - 1/(12 n^2) + O(n^-4).
        n = 10_000.0
        harmonic = -dirichlet_expected_log([1.0, n])[0]
        assert harmonic - math.log(n) - 1 / (2 * n) + 1 / (12 * n**2) == pytest.approx(
            EULER_GAMMA, abs=1e-10
        )

    def test_half(self):
        # psi(1/2) - psi(1) = -2 ln 2
        assert digamma_gap(0.5, 1.0) == pytest.approx(-2 * math.log(2), abs=1e-10)

    def test_two_via_recurrence_value(self):
        assert digamma_gap(2.0, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_recurrence_sweep(self):
        # psi(x + 1) - psi(x) = 1/x on 10^4 random points
        rng = np.random.default_rng(11)
        x = rng.uniform(1e-4, 100.0, 10_000)
        lhs = digamma_gap(x + 1.0, x)
        rhs = 1.0 / x
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-10

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(13)
        for _ in range(300):
            u = rng.uniform(1e-3, 1e4, int(rng.integers(1, 6)))
            total = mpmath.fsum(mpmath.mpf(float(v)) for v in u)
            ref = [float(mpmath.digamma(mpmath.mpf(float(v))) - mpmath.digamma(total)) for v in u]
            got = dirichlet_expected_log(u)
            for g, r in zip(got, ref):
                assert g == pytest.approx(r, abs=1e-10 * max(1.0, abs(r)))

    @given(st.floats(min_value=0.01, max_value=500.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_property(self, x):
        assert digamma_gap(x + 1.0, x) == pytest.approx(1.0 / x, rel=1e-9, abs=1e-9)

    def test_monotone_on_positives(self):
        # E[ln p_0] under Dir(x, 1) is psi(x) - psi(x + 1) = -1/x
        x = np.linspace(0.05, 50.0, 2000)
        values = dirichlet_expected_log(np.column_stack([x, np.ones_like(x)]))[:, 0]
        assert np.all(np.diff(values) > 0)

    @pytest.mark.parametrize("bad", [0.0, -3.0, np.nan, np.inf, 1e-301,
                                     pytest.param(1e308, id="row-sum-overflow")])
    def test_domain(self, bad):
        # E[ln x] enters through `alpha_newton_work`, for alpha's rows and
        # each class's gamma: a row of two bad entries in either raises.
        # [1e308, 1e308] is valid entry by entry, but its sum overflows.
        rows = np.array([[2.0, 3.0], [bad, bad]])
        part = Posterior(None, None, np.ones((1, 2)), np.full((1, 2), 0.5), np.ones((1, 2)))
        with pytest.raises(DomainError):
            alpha_newton_work([part], rows)
        part = Posterior(None, None, rows, np.ones((2, 1)), np.ones((1, 1)))
        with pytest.raises(DomainError):
            alpha_newton_work([part], np.ones((1, 2)))


class TestTrigamma:
    def test_basel(self):
        # psi'(1) = pi^2 / 6
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-10)

    def test_two(self):
        assert trigamma(2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, abs=1e-10)

    def test_series_oracle_at_ten(self):
        # psi'(x) = sum_{n>=0} 1/(x+n)^2; tail via Euler-Maclaurin
        n = np.arange(1_000_000, dtype=np.float64)
        head = np.sum(np.sort(1.0 / (10.0 + n) ** 2))
        m = 10.0 + 1_000_000
        tail = 1.0 / m + 1.0 / (2 * m**2) + 1.0 / (6 * m**3)
        assert trigamma(10.0) == pytest.approx(head + tail, abs=1e-12)

    def test_recurrence_sweep(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(1e-3, 100.0, 10_000)
        lhs = trigamma(x + 1.0)
        rhs = trigamma(x) - 1.0 / x**2
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-9

    def test_positive_and_decreasing(self):
        x = np.linspace(0.1, 60.0, 1500)
        vals = trigamma(x)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            trigamma(bad)


def log_beta(u):
    """`log_beta_rows` of one vector, as a float."""
    return float(log_beta_rows(np.asarray(u)[None])[0])


class TestLogBeta:
    def test_uniform_pair_is_zero(self):
        assert log_beta(np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_triple(self):
        # B(1,1,1) = Gamma(1)^3 / Gamma(3) = 1/2
        assert log_beta(np.array([1.0, 1.0, 1.0])) == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_two_three(self):
        # B(2,3) = 1!*2!/4! = 1/12
        assert log_beta(np.array([2.0, 3.0])) == pytest.approx(-math.log(12.0), abs=1e-12)

    def test_single_entry(self):
        assert log_beta(np.array([4.2])) == 0.0

    @given(
        st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariant(self, values, pyrandom):
        a = np.array(values)
        shuffled = a.copy()
        pyrandom.shuffle(shuffled)
        assert log_beta(a) == pytest.approx(log_beta(shuffled), rel=1e-12, abs=1e-12)

    def test_domain(self):
        # ln B enters through `ThemeModel` (alpha and delta), `dirichlet_kl`
        # and the mean KL of `distance_matrix` and `select_tasks`, each of
        # which refuses an entry of 0 or below 1e-300.
        mu, sigma = np.zeros((2, 1)), np.ones((2, 1, 1))
        with pytest.raises(DomainError):
            ThemeModel(mu, sigma, [[1.0, 1e-310]], [1.0])
        # Entries valid but a sum past the float range: the model is built,
        # and only an E-step or alpha step that reads the row refuses it.
        ThemeModel(mu, sigma, [[1e308, 1e308]], [1.0])
        with pytest.raises(DomainError):
            ThemeModel(mu, sigma, [[1.0, 1.0]], [1e-310])
        with pytest.raises(DomainError):
            dirichlet_kl([1.0, 1e-301], [1.0, 1.0])
        with pytest.raises(DomainError):
            dirichlet_kl([1.0, 1.0], [1.0, 0.0])
        with pytest.raises(DomainError):
            distance_matrix([[1.0, 1e-301]], [[1.0, 1.0]])
        with pytest.raises(DomainError):
            distance_matrix([[1.0, 1.0]], [[1.0, 0.0]])


class TestXlogy:
    def test_zero_times_log_zero(self):
        assert xlogy(0.0, 0.0) == 0.0

    def test_plain_values(self):
        assert xlogy(2.0, 3.0) == pytest.approx(2.0 * math.log(3.0), abs=1e-14)

    def test_array(self):
        x = np.array([0.0, 0.5, 2.0])
        y = np.array([0.0, 0.5, 4.0])
        out = xlogy(x, y)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.5 * math.log(0.5))
        assert out[2] == pytest.approx(2.0 * math.log(4.0))

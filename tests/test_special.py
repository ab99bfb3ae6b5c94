import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldcc.errors import DomainError
from ldcc.special import (
    digamma,
    log_beta_dirichlet,
    log_gamma,
    trigamma,
    xlogy,
)

EULER_GAMMA = 0.5772156649015329


class TestLogGamma:
    def test_factorial_oracle(self):
        # ln Gamma(10) = ln 9!
        assert log_gamma(10.0) == pytest.approx(math.log(math.factorial(9)), abs=1e-12)

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)

    def test_integers_vanish(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_against_mpmath_sweep(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        xs = np.concatenate(
            [
                rng.uniform(1e-3, 1.0, 200),
                rng.uniform(1.0, 50.0, 200),
                rng.uniform(50.0, 1e6, 100),
            ]
        )
        for x in xs:
            ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
            got = log_gamma(float(x))
            scale = max(abs(ref), 1e-10)
            assert abs(got - ref) / scale <= 1e-12

    def test_array_input(self):
        out = log_gamma(np.array([1.0, 2.0, 10.0]))
        assert out.shape == (3,)
        assert out[2] == pytest.approx(math.log(362880.0), abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, 1e-301])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-10)

    def test_half(self):
        # psi(1/2) = -gamma - 2 ln 2
        assert digamma(0.5) == pytest.approx(
            -EULER_GAMMA - 2 * math.log(2), abs=1e-10
        )

    def test_two_via_recurrence_value(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-10)

    def test_recurrence_sweep(self):
        # psi(x + 1) = psi(x) + 1/x on 10^4 random points
        rng = np.random.default_rng(11)
        x = rng.uniform(1e-4, 100.0, 10_000)
        lhs = digamma(x + 1.0)
        rhs = digamma(x) + 1.0 / x
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-10

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(13)
        for x in rng.uniform(1e-3, 1e4, 300):
            ref = float(mpmath.digamma(mpmath.mpf(float(x))))
            assert digamma(float(x)) == pytest.approx(ref, abs=1e-10 * max(1.0, abs(ref)))

    @given(st.floats(min_value=0.01, max_value=500.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_property(self, x):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-9, abs=1e-9)

    def test_monotone_on_positives(self):
        x = np.linspace(0.05, 50.0, 2000)
        assert np.all(np.diff(digamma(x)) > 0)

    @pytest.mark.parametrize("bad", [0.0, -3.0, np.nan, np.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            digamma(bad)


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


class TestLogBeta:
    def test_uniform_pair_is_zero(self):
        assert log_beta_dirichlet(np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_triple(self):
        # B(1,1,1) = Gamma(1)^3 / Gamma(3) = 1/2
        assert log_beta_dirichlet(np.array([1.0, 1.0, 1.0])) == pytest.approx(
            -math.log(2.0), abs=1e-12
        )

    def test_two_three(self):
        # B(2,3) = 1!*2!/4! = 1/12
        assert log_beta_dirichlet(np.array([2.0, 3.0])) == pytest.approx(
            -math.log(12.0), abs=1e-12
        )

    def test_single_entry(self):
        assert log_beta_dirichlet(np.array([4.2])) == 0.0

    @given(
        st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariant(self, values, pyrandom):
        a = np.array(values)
        shuffled = a.copy()
        pyrandom.shuffle(shuffled)
        assert log_beta_dirichlet(a) == pytest.approx(
            log_beta_dirichlet(shuffled), rel=1e-12, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            log_beta_dirichlet(np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            log_beta_dirichlet(np.array([1.0, np.nan]))


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

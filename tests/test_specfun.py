"""Special-function kernel checks against independent harmonic-sum oracles."""

import math

import numpy as np
import pytest

from expsum.specfun import (
    EULER_GAMMA,
    digamma,
    digamma_minus_log,
    digamma_minus_log_array,
    log_each,
)


def psi_integer_oracle(n: int) -> float:
    # psi(n) = -gamma + H_{n-1}, from repeated application of the
    # recurrence psi(x+1) = psi(x) + 1/x starting at psi(1) = -gamma
    return -EULER_GAMMA + math.fsum(1.0 / k for k in range(1, n))


def test_euler_gamma_rederived_from_harmonic_limit():
    # gamma = lim (H_n - ln n); the Euler-Maclaurin correction terms
    # -1/(2n) + 1/(12 n^2) push the n = 10^4 partial limit to ~1e-15
    n = 10**4
    est = math.fsum(1.0 / k for k in range(1, n + 1)) - math.log(n)
    est += -1.0 / (2 * n) + 1.0 / (12 * n * n)
    assert abs(est - EULER_GAMMA) < 1e-13


def test_euler_gamma_coarse_bracket():
    assert 0.5 < EULER_GAMMA < 0.6


def test_digamma_at_one_is_minus_gamma():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-12


class TestDigamma:
    def test_integer_arguments_match_harmonic_oracle(self):
        for n in range(1, 21):
            assert abs(digamma(float(n)) - psi_integer_oracle(n)) < 1e-12

    def test_value_at_two(self):
        assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-12

    def test_value_at_ten(self):
        assert abs(digamma(10.0) - psi_integer_oracle(10)) < 1e-12

    def test_value_at_three_halves(self):
        # psi(1/2) = -gamma - 2 ln 2, one recurrence step up
        expected = 2.0 - EULER_GAMMA - 2.0 * math.log(2.0)
        assert abs(digamma(1.5) - expected) < 1e-12

    def test_recurrence_residual_across_range(self):
        for x in np.geomspace(1e-3, 1e6, 181):
            x = float(x)
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-11

    def test_strictly_increasing(self):
        grid = np.geomspace(1e-3, 1e6, 200)
        values = np.array([digamma(float(x)) for x in grid])
        assert np.all(np.diff(values) > 0.0)

    def test_duplication_formula(self):
        # psi(2x) = psi(x)/2 + psi(x + 1/2)/2 + ln 2
        for x in np.geomspace(0.01, 100.0, 25):
            x = float(x)
            lhs = digamma(2.0 * x)
            rhs = 0.5 * digamma(x) + 0.5 * digamma(x + 0.5) + math.log(2.0)
            assert abs(lhs - rhs) < 1e-11

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-9, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)


class TestDigammaMinusLog:
    def test_value_at_one(self):
        assert abs(digamma_minus_log(1.0) + EULER_GAMMA) < 1e-12

    def test_value_at_two(self):
        expected = 1.0 - EULER_GAMMA - math.log(2.0)
        assert abs(digamma_minus_log(2.0) - expected) < 1e-12

    def test_leading_asymptotic_term_at_1e8(self):
        # psi(x) - ln x = -1/(2x) + O(x^-2); at x = 1e8 the remainder is
        # below 1e-17, so the value must sit within 1e-16 of -5e-9
        assert abs(digamma_minus_log(1e8) + 5.0e-9) < 1e-16

    def test_consistent_with_direct_subtraction(self):
        # direct psi(x) - ln x is still accurate over [1, 1e4]
        for x in np.geomspace(1.0, 1e4, 81):
            x = float(x)
            direct = digamma(x) - math.log(x)
            assert abs(digamma_minus_log(x) - direct) <= 1e-10

    def test_approaches_zero_from_below(self):
        # |psi(x) - ln x| = 1/(2x) + 1/(12x^2) - ..., so the true envelope
        # includes the 1/(12x^2) term; negativity and monotone decay pin
        # the limit behavior
        previous = None
        for k in range(2, 9):
            x = 10.0**k
            value = digamma_minus_log(x)
            assert value < 0.0
            assert abs(value) < 0.5 / x + 1.0 / (12.0 * x * x) + 1e-12
            if previous is not None:
                assert value > previous
            previous = value

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            digamma_minus_log(bad)


class TestArrayForms:
    def test_digamma_minus_log_array_bit_equal(self):
        rng = np.random.default_rng(7)
        edges = [6.0, np.nextafter(6.0, 0.0), np.nextafter(6.0, 7.0), 1.0,
                 np.nextafter(1.0, 2.0), 5.0, 2.5, 1e-3, 1e-300, 1e12, 1e150]
        x = np.concatenate((edges, 10.0 ** rng.uniform(-3, 15, 5000), rng.uniform(1, 7, 5000)))
        assert digamma_minus_log_array(x).tolist() == list(map(digamma_minus_log, x.tolist()))

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
    def test_digamma_minus_log_array_domain(self, bad):
        with pytest.raises(ValueError):
            digamma_minus_log_array(np.array([2.0, bad]))

    def test_log_each_is_math_log(self):
        x = np.geomspace(0.01, 2.0, 2000)
        assert log_each(x).tolist() == list(map(math.log, x.tolist()))

"""Distribution objects: densities, CDF, moments, seeded sampling."""

import functools
import math

import numpy as np
import pytest

from expsum.dist import (
    HypoexpTwo,
    RatePair,
    hypoexp_cdf,
    hypoexp_log_pdf,
    hypoexp_mean,
    hypoexp_pdf,
    sample_hypoexp,
)
from expsum.oracle import _adaptive


def quad(f, a, b, tol=1e-12):
    return _adaptive(f, a, b, tol)


class TestRatePair:
    def test_canonical_ordering(self):
        pair = RatePair(1.0, 2.0)
        assert pair.lambda_hi == 2.0
        assert pair.lambda_lo == 1.0
        assert RatePair(1.0, 2.0) == RatePair(2.0, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_invalid_rates(self, bad):
        with pytest.raises(ValueError):
            RatePair(bad, 1.0)
        with pytest.raises(ValueError):
            RatePair(1.0, bad)

    def test_nearly_equal_threshold(self):
        assert RatePair(2.0, 2.0).nearly_equal
        assert RatePair(1.0 + 1e-13, 1.0).nearly_equal
        assert not RatePair(1.0 + 1e-9, 1.0).nearly_equal


class TestHypoexpTwo:
    def test_norm_const_cached(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        assert d.norm_const == 2.0
        assert not d.is_degenerate

    def test_degenerate_sentinel(self):
        d = HypoexpTwo.from_rates(1.0, 1.0)
        assert d.norm_const is None
        assert d.is_degenerate
        assert d.erlang_rate == 1.0

    def test_order_invariant_construction(self):
        assert HypoexpTwo.from_rates(2.0, 1.0) == HypoexpTwo.from_rates(1.0, 2.0)

    def test_erlang2_rate_is_the_midpoint_without_overflow(self):
        rng = np.random.default_rng(11)
        hi = np.concatenate((10.0 ** rng.uniform(-323, 308.25, 4000), [5e-324, 1e-323, 2.0]))
        lo = hi * (1.0 - rng.uniform(0.0, 1e-12, hi.size))
        big = [(1.7976931348623157e308, 1.7976931348623157e308), (1.7e308, 1.7e308),
               (1.7e308, 1.7e308 * (1.0 - 1e-13)), (9e307, 9e307)]
        for a, b in [*zip(hi.tolist(), lo.tolist()), *big]:
            d = HypoexpTwo.from_rates(a, b)
            rate = d.erlang_rate
            assert d.is_degenerate and d.rates.lambda_lo <= rate <= d.rates.lambda_hi
            mid = 0.5 * (d.rates.lambda_hi + d.rates.lambda_lo)
            assert rate == mid or (mid == math.inf and math.isfinite(rate))


class TestPdf:
    def test_vanishes_at_zero(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        assert hypoexp_pdf(d, 0.0) == 0.0

    def test_value_at_log_two(self):
        # c = 2, f(ln 2) = 2 (1/2 - 1/4)
        d = HypoexpTwo.from_rates(2.0, 1.0)
        assert abs(hypoexp_pdf(d, math.log(2.0)) - 0.5) < 1e-15

    def test_zero_on_negative_axis(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        assert hypoexp_pdf(d, -1.0) == 0.0
        assert np.all(hypoexp_pdf(d, np.array([-5.0, -0.1])) == 0.0)

    def test_array_matches_scalars(self):
        d = HypoexpTwo.from_rates(3.0, 0.7)
        ys = np.linspace(-1.0, 8.0, 37)
        batch = hypoexp_pdf(d, ys)
        singles = np.array([hypoexp_pdf(d, float(y)) for y in ys])
        np.testing.assert_array_equal(batch, singles)

    def test_never_negative_near_origin(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        tiny = np.array([0.0, 1e-300, 1e-18, 1e-16, 1e-12])
        assert np.all(hypoexp_pdf(d, tiny) >= 0.0)

    def test_degenerate_is_erlang_density(self):
        d = HypoexpTwo.from_rates(1.0, 1.0)
        assert abs(hypoexp_pdf(d, 1.0) - math.exp(-1.0)) < 1e-15
        ys = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(hypoexp_pdf(d, ys), ys * np.exp(-ys), rtol=1e-14)


class TestLogPdf:
    def test_matches_log_of_pdf(self):
        for d in (HypoexpTwo.from_rates(2.0, 1.0), HypoexpTwo.from_rates(10.0, 0.3)):
            ys = np.geomspace(0.01, 50.0, 60)
            np.testing.assert_allclose(
                np.exp(hypoexp_log_pdf(d, ys)), hypoexp_pdf(d, ys), rtol=1e-12
            )

    def test_degenerate_matches_log_of_pdf(self):
        d = HypoexpTwo.from_rates(1.0, 1.0)
        ys = np.geomspace(0.01, 40.0, 40)
        np.testing.assert_allclose(
            np.exp(hypoexp_log_pdf(d, ys)), hypoexp_pdf(d, ys), rtol=1e-12
        )

    def test_minus_inf_outside_support(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        assert hypoexp_log_pdf(d, 0.0) == -math.inf
        assert hypoexp_log_pdf(d, -3.0) == -math.inf


class TestCdf:
    def test_zero_at_origin_and_below(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        assert hypoexp_cdf(d, 0.0) == 0.0
        assert hypoexp_cdf(d, -0.5) == 0.0

    def test_total_probability(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        assert abs(hypoexp_cdf(d, 100.0) - 1.0) < 1e-12

    def test_value_at_one(self):
        # antiderivative at y = 1, cross-checked by integrating the pdf
        d = HypoexpTwo.from_rates(2.0, 1.0)
        value = hypoexp_cdf(d, 1.0)
        assert abs(value - 0.39957640089372803) < 1e-12
        assert abs(value - quad(functools.partial(hypoexp_pdf, d), 0.0, 1.0)) < 1e-10

    def test_monotone_nondecreasing(self):
        d = HypoexpTwo.from_rates(5.0, 0.2)
        values = hypoexp_cdf(d, np.linspace(0.0, 40.0, 400))
        assert np.all(np.diff(values) >= 0.0)

    def test_centered_difference_recovers_pdf(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        h = 1e-5
        for y in (0.1, 0.5, 1.0, 2.0, 5.0):
            slope = (hypoexp_cdf(d, y + h) - hypoexp_cdf(d, y - h)) / (2.0 * h)
            assert abs(slope - hypoexp_pdf(d, y)) < 1e-6

    def test_degenerate_cdf_integrates_erlang_density(self):
        d = HypoexpTwo.from_rates(1.0, 1.0)
        for y in (0.5, 2.0, 6.0):
            assert abs(hypoexp_cdf(d, y) - quad(functools.partial(hypoexp_pdf, d), 0.0, y)) < 1e-10


class TestMean:
    def test_unit_mean_pairs(self):
        assert hypoexp_mean(HypoexpTwo.from_rates(2.0, 2.0)) == 1.0
        assert abs(hypoexp_mean(HypoexpTwo.from_rates(5.0, 1.25)) - 1.0) < 1e-15

    def test_two_unit_mean_summands(self):
        assert hypoexp_mean(HypoexpTwo.from_rates(1.0, 1.0)) == 2.0


class TestSampling:
    def test_nonnegative(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        ys = sample_hypoexp(d, np.random.default_rng(0), size=10_000)
        assert np.all(ys >= 0.0)

    def test_seed_determinism(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        a = sample_hypoexp(d, np.random.default_rng(123), size=5_000)
        b = sample_hypoexp(d, np.random.default_rng(123), size=5_000)
        np.testing.assert_array_equal(a, b)
        assert sample_hypoexp(d, np.random.default_rng(9)) == sample_hypoexp(
            d, np.random.default_rng(9)
        )

    def test_rate_order_does_not_change_stream(self):
        a = sample_hypoexp(
            HypoexpTwo.from_rates(2.0, 1.0), np.random.default_rng(7), size=1_000
        )
        b = sample_hypoexp(
            HypoexpTwo.from_rates(1.0, 2.0), np.random.default_rng(7), size=1_000
        )
        np.testing.assert_array_equal(a, b)

    def test_empirical_mean(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        ys = sample_hypoexp(d, np.random.default_rng(42), size=10**6)
        stderr = ys.std(ddof=1) / math.sqrt(len(ys))
        assert abs(ys.mean() - 1.5) < 4.0 * stderr

    @pytest.mark.parametrize("rates", [(2.0, 1.0), (10.0, 0.3)])
    def test_kolmogorov_smirnov_against_cdf(self, rates):
        d = HypoexpTwo.from_rates(*rates)
        n = 10**5
        ys = np.sort(sample_hypoexp(d, np.random.default_rng(7), size=n))
        cdf = hypoexp_cdf(d, ys)
        i = np.arange(1, n + 1)
        stat = max(np.max(cdf - (i - 1) / n), np.max(i / n - cdf))
        critical = math.sqrt(-math.log(0.0005) / 2.0) / math.sqrt(n)
        assert stat < critical

    def test_rejects_bad_size(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        with pytest.raises(ValueError):
            sample_hypoexp(d, np.random.default_rng(0), size=0)


class TestSingleRateFamilies:
    """Erlang-2 is the two-phase law at equal rates."""

    def test_erlang2_pdf_and_mean(self):
        e = HypoexpTwo.from_rates(1.0, 1.0)
        assert hypoexp_pdf(e, 0.0) == 0.0
        assert abs(hypoexp_pdf(e, 2.0) - 2.0 * math.exp(-2.0)) < 1e-15
        assert hypoexp_pdf(e, -0.5) == 0.0
        assert hypoexp_mean(e) == 2.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            HypoexpTwo.from_rates(bad, bad)

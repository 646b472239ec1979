"""RatePair, the pdf and CDF of the two-phase law, the unit-scale kernel's
out buffers, and seeded exponential draws."""

import functools
import math

import numpy as np
import pytest

from conftest import mp_entropy
from expsum import dist
from expsum.dist import (
    RatePair,
    exponential_draws,
    hypoexp_cdf,
    hypoexp_pdf,
)
from expsum.entropy import erlang2_entropy, hypoexp_entropy

DBL_MAX = 1.7976931348623157e308
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def quad(f, a, b):
    """int_a^b f by the 64-point Gauss-Legendre rule, exact to rounding for the smooth pdf."""
    half = 0.5 * (b - a)
    return half * float(GL_WEIGHTS @ f(half * GL_NODES + 0.5 * (a + b)))


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

    def test_immutable_named_tuple(self):
        pair = RatePair(1, 2)
        assert repr(pair) == "RatePair(lambda_hi=2.0, lambda_lo=1.0)"
        with pytest.raises(AttributeError):
            pair.lambda_hi = 3.0
        assert hash(pair) == hash(RatePair(2.0, 1.0))
        hi, lo = pair
        assert (hi, lo) == pair == (2.0, 1.0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be positive and finite"):
                RatePair(bad, 1.0)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_make_and_replace_validate(self, bad):
        replaced = RatePair(1.0, 2.0)._replace(lambda_lo=5.0)
        assert replaced == RatePair(5.0, 2.0) and replaced.lambda_hi == 5.0
        with pytest.raises(ValueError) as constructor:
            RatePair(bad, 2.0)
        with pytest.raises(ValueError) as made:
            RatePair._make([bad, 2.0])
        assert str(made.value) == str(constructor.value)
        with pytest.raises(ValueError) as constructor:
            RatePair(2.0, bad)
        with pytest.raises(ValueError) as replaced_bad:
            RatePair(1.0, 2.0)._replace(lambda_lo=bad)
        assert str(replaced_bad.value) == str(constructor.value)


def mp_density(mp, d, y):
    """pdf and cdf of ``d`` at ``y`` from mpmath, at the exact binary rates
    and point."""
    hi, lo, y = mp.mpf(d.lambda_hi), mp.mpf(d.lambda_lo), mp.mpf(y)
    gap = hi - lo
    e = y if gap == 0 else -mp.expm1(-gap * y) / gap
    pdf = hi * lo * mp.exp(-lo * y) * e
    return pdf, 1 - mp.exp(-lo * y) * (1 + lo * e)


def assert_density_matches_mpmath(mp, d, ys):
    """pdf to 1e-15 relative (times lambda_lo y, the condition number of
    exp(-lambda_lo y)) and cdf to 1e-15 absolute."""
    ys = np.asarray(ys, dtype=float)
    for y, pdf, cdf in zip(ys.tolist(), hypoexp_pdf(d, ys).tolist(), hypoexp_cdf(d, ys).tolist()):
        f, big_f = mp_density(mp, d, y)
        t = d.lambda_lo * y
        assert abs(pdf - f) <= 1e-15 * max(1.0, t) * f, (d, y)
        assert abs(cdf - big_f) <= 1e-15, (d, y)


class TestEqualRates:
    """At equal rates the one density form is the Erlang-2 law, and it stays
    continuous as the rates separate."""

    @pytest.mark.parametrize("lam", [1e-300, 0.3, 1.0, 2.0, 7.5, 1e300])
    def test_equal_rates_give_erlang2(self, lam):
        d = RatePair(lam, lam)
        ys = np.geomspace(1e-6, 40.0, 60) / lam
        t = lam * ys
        np.testing.assert_allclose(hypoexp_pdf(d, ys), lam * t * np.exp(-t), rtol=1e-15)
        np.testing.assert_allclose(
            hypoexp_cdf(d, ys), -np.expm1(-t) - t * np.exp(-t), rtol=1e-15
        )
        assert hypoexp_entropy(d) == erlang2_entropy(lam)

    def test_far_tail_where_lambda_y_overflows(self):
        # k = lambda y at equal rates overflows here: inf * 0 would be nan
        cases = [(2.0, 1e308), (1e10, 1e300), (1e300, 1e10), (1.0, math.inf)]
        cases += [(lam, math.inf) for lam in np.geomspace(1e-300, 1e300, 61).tolist()]
        cases += [(lam, math.inf) for lam in (5e-324, 1e-323, 1e-310, 1e-306, 4e-306, DBL_MAX)]
        for lam, y in cases:
            d = RatePair(lam, lam)
            assert hypoexp_pdf(d, y) == 0.0 and hypoexp_cdf(d, y) == 1.0, (lam, y)

    @pytest.mark.parametrize("gap", [0.0, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_continuous_across_tiny_gaps(self, mp, lam, gap):
        d = RatePair(lam * (1.0 + gap), lam)
        assert_density_matches_mpmath(mp, d, np.geomspace(1e-8, 40.0, 30) / lam)
        exact = mp_entropy(mp, d.lambda_hi, d.lambda_lo)
        assert abs(hypoexp_entropy(d) - exact) <= 5e-15

    def test_no_overflow_near_dbl_max(self, mp):
        pairs = [(DBL_MAX, DBL_MAX), (1.7e308, 1.7e308), (1.7e308, 1.7e308 * (1.0 - 1e-13)),
                 (9e307, 9e307), (1e200, 5e199), (1e200, 1e200 * (1.0 - 1e-10))]
        for a, b in pairs:
            d = RatePair(a, b)
            assert_density_matches_mpmath(mp, d, np.array([1e-3, 0.5, 1.0, 3.0, 20.0]) / b)
            h = hypoexp_entropy(d)
            assert abs(h - mp_entropy(mp, a, b)) <= 4.0 * math.ulp(math.log(b))


#: Rates from the smallest subnormal to DBL_MAX. Every pair of them is
#: tested: ratios past DBL_MAX such as (1e300, 1e-300), subnormal gaps such
#: as (1e-310, 5e-311) and (1e-323, 5e-324), and equal rates at both ends.
FULL_RATES = [5e-324, 1e-323, 5e-311, 1e-310, 1e-306, 1e-300, 1e-200, 1e-10, 0.3, 1.0, 3.0,
              1e10, 1e200, 1e300, 1.6e308, 1.7e308, DBL_MAX]
FULL_PAIRS = [(a, b) for i, a in enumerate(FULL_RATES) for b in FULL_RATES[i:]] + [
    (1.0 + 1e-15, 1.0), (1.0 + 1e-9, 1.0), (1e-300 * (1.0 + 1e-12), 1e-300),
    (1e300 * (1.0 + 1e-12), 1e300), (1e200, 1e-200)]
#: Points fixed in y, and points fixed in t = lambda_lo y out to where e^(-t) is 0.
FULL_YS = [0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-20, 1e-5, 1.0, 1e5, 1e20,
           1e100, 1e200, 1e300, 1e308, DBL_MAX, math.inf]
FULL_TS = [1e-300, 1e-20, 1e-8, 1e-3, 0.1, 1.0, 3.0, 10.0, 100.0, 700.0, 740.0]


def full_ys(lo):
    """``FULL_YS`` and the ``FULL_TS`` points at lambda_lo = ``lo`` that are finite."""
    return FULL_YS + [t / lo for t in FULL_TS if t / lo < math.inf]


class TestFullDomain:
    """pdf and cdf over every valid rate pair and y from 0 to +inf, against
    mpmath, with RuntimeWarnings as errors (as in every tier-1 run)."""

    @pytest.mark.parametrize("pair", FULL_PAIRS, ids=repr)
    def test_matches_mpmath(self, mp, pair):
        """pdf to 1e-15 max(1, t) relative, and cdf to 1e-15 of -expm1(-t),
        the larger of its two terms, whose difference cancels as y -> 0.

        Each bound adds the absolute error of rounding to subnormals: one
        spacing 2^-1074 of the result, and one of t, d = gap y and e^(-t),
        carried through the factors that follow them, which are at most
        lambda_lo (r + k) in the pdf and 1 + lambda_lo/gap in the cdf. Where
        the pdf is a normal double it needs no such allowance
        (``test_normal_pdf_keeps_its_relative_precision``).
        """
        d = RatePair(*pair)
        hi, lo = d
        ys = full_ys(lo)
        pdf, cdf = hypoexp_pdf(d, np.array(ys)).tolist(), hypoexp_cdf(d, np.array(ys)).tolist()
        big_h, big_l = mp.mpf(hi), mp.mpf(lo)
        gap = big_h - big_l
        r = 1.0 if gap == 0 else float(big_h / gap)
        for y, p, c in zip(ys, pdf, cdf):
            if y == math.inf:
                assert (p, c) == (0.0, 1.0), (d, y)
                continue
            big_y = mp.mpf(y)
            e = big_y if gap == 0 else -mp.expm1(-gap * big_y)
            if gap != 0:
                e /= gap
            f = big_h * big_l * mp.exp(-big_l * big_y) * e
            big_f = -mp.expm1(-big_l * big_y) - big_l * e * mp.exp(-big_l * big_y)
            t = float(big_l * big_y)
            sub = 2.0**-1074 * (1.0 + lo * (r + float(big_h * e)))
            assert abs(p - f) <= 1e-15 * max(1.0, t) * f + sub, (d, y, p)
            sub = 2.0**-1074 * (1.0 + (1.0 if gap == 0 else float(big_l / gap)))
            assert abs(c - big_f) <= 1e-15 * -mp.expm1(-big_l * big_y) + sub, (d, y, c)

    def test_pdf_and_cdf_match_mpmath_on_random_pairs(self, mp):
        """60 seeded pairs with lambda_lo in [1e-6, 1e6]: relative gaps from
        1e-15 to 1e-3, ratios up to 1e6 and equal rates, 20 points each."""
        rng = np.random.default_rng(9)
        for kind in range(60):
            lo = 10.0 ** rng.uniform(-6, 6)
            hi = lo * (1.0 + 10.0 ** rng.uniform(-15, -3), 10.0 ** rng.uniform(0, 6), 1.0)[kind % 3]
            ys = 10.0 ** rng.uniform(-12, 1.7, 20) / lo
            assert_density_matches_mpmath(mp, RatePair(hi, lo), ys)

    def test_normal_pdf_keeps_its_relative_precision(self, mp):
        """Every pdf value at least DBL_MIN on the full domain is within 1e-15 max(1, t)
        relative, with no allowance for t, d = gap y or e^(-t) rounded to subnormals;
        where d was subnormal, as at (1 + 1e-15, 1), y = 1e-300, the pdf lost 6.3e-10."""
        for pair in FULL_PAIRS:
            d = RatePair(*pair)
            ys = [y for y in full_ys(d.lambda_lo) if y < math.inf]
            for y, p in zip(ys, hypoexp_pdf(d, np.array(ys)).tolist()):
                f = mp_density(mp, d, y)[0]
                if f >= 2.0**-1022:
                    t = d.lambda_lo * y
                    assert abs(p - f) <= 1e-15 * max(1.0, t) * f, (d, y, p)

    def test_normal_pdf_where_exp_minus_t_is_subnormal(self, mp):
        # lambda_lo e^(-t) k is normal here though e^(-t) is subnormal or 0; the pdf
        # lost 2.7e-3, 2.9e-12 and all of its value when it was formed from e^(-t)
        with mp.workdps(50):
            for hi, lo, y in ((DBL_MAX, 1.6e308, 4.625e-306), (1e300, 1e300, 7.2e-298),
                              (1e300, 1e300, 1e-297)):
                assert_density_matches_mpmath(mp, RatePair(hi, lo), [y])

    def test_ratio_past_dbl_max(self):
        # lambda_lo E alone underflows to 0 here; the pdf is 1e-200 e^(-1)
        pdf = hypoexp_pdf(RatePair(1e200, 1e-200), 1e200)
        assert abs(pdf - 3.6787944117144233e-201) <= 1e-15 * 3.68e-201


class TestPdf:
    def test_vanishes_at_zero(self):
        d = RatePair(2.0, 1.0)
        assert hypoexp_pdf(d, 0.0) == 0.0

    def test_value_at_log_two(self):
        # c = 2, f(ln 2) = 2 (1/2 - 1/4)
        d = RatePair(2.0, 1.0)
        assert abs(hypoexp_pdf(d, math.log(2.0)) - 0.5) < 1e-15

    def test_zero_on_negative_axis(self):
        d = RatePair(2.0, 1.0)
        assert hypoexp_pdf(d, -1.0) == 0.0
        assert np.all(hypoexp_pdf(d, np.array([-5.0, -0.1])) == 0.0)

    def test_array_matches_scalars(self):
        d = RatePair(3.0, 0.7)
        ys = np.linspace(-1.0, 8.0, 37)
        batch = hypoexp_pdf(d, ys)
        singles = np.array([hypoexp_pdf(d, float(y)) for y in ys])
        np.testing.assert_array_equal(batch, singles)

    def test_never_negative_near_origin(self):
        d = RatePair(2.0, 1.0)
        tiny = np.array([0.0, 1e-300, 1e-18, 1e-16, 1e-12])
        assert np.all(hypoexp_pdf(d, tiny) >= 0.0)

    def test_matches_mpmath_where_the_difference_form_cancelled(self, mp):
        # c (e^(-lo y) - e^(-hi y)) lost 2.2e-5, 1.0 and 3.9e-7 of the pdf here
        for hi, lo, y in ((2.0, 1.0, 1e-12), (1.0 + 1e-10, 1.0, 1e-8), (1.0 + 1e-10, 1.0, 1.0)):
            assert_density_matches_mpmath(mp, RatePair(hi, lo), [y])

    def test_degenerate_is_erlang_density(self):
        d = RatePair(1.0, 1.0)
        assert abs(hypoexp_pdf(d, 1.0) - math.exp(-1.0)) < 1e-15
        ys = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(hypoexp_pdf(d, ys), ys * np.exp(-ys), rtol=1e-14)


class TestCdf:
    def test_zero_at_origin_and_below(self):
        d = RatePair(2.0, 1.0)
        assert hypoexp_cdf(d, 0.0) == 0.0
        assert hypoexp_cdf(d, -0.5) == 0.0

    def test_total_probability(self):
        d = RatePair(2.0, 1.0)
        assert abs(hypoexp_cdf(d, 100.0) - 1.0) < 1e-12

    def test_value_at_one(self):
        # antiderivative at y = 1, cross-checked by integrating the pdf
        d = RatePair(2.0, 1.0)
        value = hypoexp_cdf(d, 1.0)
        assert abs(value - 0.39957640089372803) < 1e-12
        assert abs(value - quad(functools.partial(hypoexp_pdf, d), 0.0, 1.0)) < 1e-10

    def test_monotone_nondecreasing(self):
        d = RatePair(5.0, 0.2)
        values = hypoexp_cdf(d, np.linspace(0.0, 40.0, 400))
        assert np.all(np.diff(values) >= 0.0)

    def test_centered_difference_recovers_pdf(self):
        d = RatePair(2.0, 1.0)
        h = 1e-5
        for y in (0.1, 0.5, 1.0, 2.0, 5.0):
            slope = (hypoexp_cdf(d, y + h) - hypoexp_cdf(d, y - h)) / (2.0 * h)
            assert abs(slope - hypoexp_pdf(d, y)) < 1e-6

    def test_degenerate_cdf_integrates_erlang_density(self):
        d = RatePair(1.0, 1.0)
        for y in (0.5, 2.0, 6.0):
            assert abs(hypoexp_cdf(d, y) - quad(functools.partial(hypoexp_pdf, d), 0.0, y)) < 1e-10


class TestOutBuffers:
    """``exponential_draws`` and ``_unit_kernel`` write into a caller's buffer,
    return it, and give the bits of their allocating form."""

    def test_exponential_draws_fill_out(self):
        buf = np.empty(1000)
        for rate in (2.5, 1.0, 1e-300, math.inf):
            got = exponential_draws(np.random.default_rng(5), 1000, rate, buf)
            assert got is buf
            assert buf.tobytes() == exponential_draws(np.random.default_rng(5), 1000, rate).tobytes()

    @pytest.mark.parametrize("pair", [(5.0, 0.3), (2.0, 2.0), (1e-310, 5e-311), (1e12, 1.0)])
    def test_unit_kernel_fills_out(self, pair):
        d = RatePair(*pair)
        x = np.array(FULL_YS)
        for scale in (d.lambda_lo, 1.0):
            with np.errstate(over="ignore"):  # the kernel's callers suppress its exact overflow
                t, k = dist._unit_kernel(d, x, scale)
                buf = np.empty_like(x)
                got_t, got_k = dist._unit_kernel(d, x, scale, buf)
            assert got_k is buf
            assert (got_t.tobytes(), got_k.tobytes()) == (t.tobytes(), k.tobytes())

    @pytest.mark.parametrize("pair", [(5.0, 0.3), (2.0, 2.0)])
    def test_unit_kernel_of_a_scalar_is_a_scalar(self, pair):
        d = RatePair(*pair)
        for scale in (1.0, d.lambda_lo):
            t, k = dist._unit_kernel(d, 0.7, scale)
            assert isinstance(t, float) and isinstance(k, float)
        assert type(hypoexp_pdf(d, 0.7)) is type(hypoexp_cdf(d, 0.7)) is float


class TestSampling:
    """Y = W + X as the sum of two blocks of ``exponential_draws`` from one
    generator: the lambda_hi block first, then the lambda_lo block."""

    @staticmethod
    def sample(d, seed, n):
        rng = np.random.default_rng(seed)
        return exponential_draws(rng, n, d.lambda_hi) + exponential_draws(rng, n, d.lambda_lo)

    def test_nonnegative(self):
        assert np.all(self.sample(RatePair(2.0, 1.0), 0, 10_000) >= 0.0)

    def test_seed_determinism(self):
        d = RatePair(2.0, 1.0)
        np.testing.assert_array_equal(self.sample(d, 123, 5_000), self.sample(d, 123, 5_000))

    def test_rate_order_does_not_change_stream(self):
        a = self.sample(RatePair(2.0, 1.0), 7, 1_000)
        b = self.sample(RatePair(1.0, 2.0), 7, 1_000)
        np.testing.assert_array_equal(a, b)

    def test_empirical_mean(self):
        ys = self.sample(RatePair(2.0, 1.0), 42, 10**6)
        stderr = ys.std(ddof=1) / math.sqrt(len(ys))
        assert abs(ys.mean() - 1.5) < 4.0 * stderr

    @pytest.mark.parametrize("rates", [(2.0, 1.0), (10.0, 0.3)])
    def test_kolmogorov_smirnov_against_cdf(self, rates):
        d = RatePair(*rates)
        n = 10**5
        ys = np.sort(self.sample(d, 7, n))
        cdf = hypoexp_cdf(d, ys)
        i = np.arange(1, n + 1)
        stat = max(np.max(cdf - (i - 1) / n), np.max(i / n - cdf))
        critical = math.sqrt(-math.log(0.0005) / 2.0) / math.sqrt(n)
        assert stat < critical


class TestSingleRateFamilies:
    """Erlang-2 is the two-phase law at equal rates."""

    def test_erlang2_pdf(self):
        e = RatePair(1.0, 1.0)
        assert hypoexp_pdf(e, 0.0) == 0.0
        assert abs(hypoexp_pdf(e, 2.0) - 2.0 * math.exp(-2.0)) < 1e-15
        assert hypoexp_pdf(e, -0.5) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            RatePair(bad, bad)

"""Closed-form entropies: spot values, bounds, scaling, degeneracy limit."""

import math

import numpy as np
import pytest

from conftest import mp_entropy
from expsum.dist import RatePair
from expsum.entropy import (
    cond_entropy_light,
    erlang2_entropy,
    exp_entropy,
    hypoexp_entropy,
    hypoexp_entropy_array,
    mean_constrained_rates,
    mutual_info_aen,
)
from expsum.specfun import EULER_GAMMA, digamma


def rate_grid():
    return [float(g) for g in np.geomspace(0.1, 10.0, 7)]


class TestExpEntropy:
    def test_unit_rate(self):
        assert exp_entropy(1.0) == 1.0

    def test_rate_e_crosses_zero(self):
        assert abs(exp_entropy(math.e)) < 1e-15

    def test_rate_two(self):
        assert abs(exp_entropy(2.0) - (1.0 - math.log(2.0))) < 1e-15

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            exp_entropy(bad)


class TestErlang2Entropy:
    def test_unit_rate(self):
        assert abs(erlang2_entropy(1.0) - (1.0 + EULER_GAMMA)) < 1e-15

    def test_rate_two(self):
        assert abs(erlang2_entropy(2.0) - (1.0 + EULER_GAMMA - math.log(2.0))) < 1e-15

    def test_constructed_zero_crossing(self):
        assert abs(erlang2_entropy(math.exp(1.0 + EULER_GAMMA))) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            erlang2_entropy(bad)


class TestHypoexpEntropy:
    def test_rates_two_one(self):
        assert abs(hypoexp_entropy(RatePair(2.0, 1.0)) - (2.0 - math.log(2.0))) < 1e-12

    def test_order_invariance_exact(self):
        assert hypoexp_entropy(RatePair(1.0, 2.0)) == hypoexp_entropy(RatePair(2.0, 1.0))

    def test_rates_three_one(self):
        assert abs(hypoexp_entropy(RatePair(3.0, 1.0)) - (3.0 - math.log(6.0))) < 1e-12

    def test_rates_one_half(self):
        # log term cancels: h = 1 + gamma + ln 2 + psi(2) - ln 2 = 2
        assert abs(hypoexp_entropy(RatePair(1.0, 0.5)) - 2.0) < 1e-12

    def test_equal_rates_fall_back_to_erlang(self):
        assert hypoexp_entropy(RatePair(1.0, 1.0)) == erlang2_entropy(1.0)

    def test_symmetry_on_random_grid(self):
        rng = np.random.default_rng(2024)
        for a, b in 10.0 ** rng.uniform(-1.0, 1.0, size=(50, 2)):
            assert hypoexp_entropy(RatePair(a, b)) == hypoexp_entropy(RatePair(b, a))

    def test_scaling_law(self):
        # h(cY) = h(Y) + ln c, i.e. scaling both rates by c subtracts ln c
        rng = np.random.default_rng(11)
        pairs = 10.0 ** rng.uniform(-1.0, 1.0, size=(20, 2))
        for c in (0.1, 2.0, 10.0):
            for a, b in pairs:
                scaled = hypoexp_entropy(RatePair(c * a, c * b))
                base = hypoexp_entropy(RatePair(a, b))
                assert abs(scaled - (base - math.log(c))) <= 1e-10

    def test_strict_max_entropy_bound(self):
        # the exponential with the same mean is the entropy maximizer
        for a in rate_grid():
            for b in rate_grid():
                if a == b:
                    continue
                h = hypoexp_entropy(RatePair(a, b))
                assert h < 1.0 + math.log(1.0 / a + 1.0 / b)

    def test_lower_bound_entropy_of_slower_phase(self):
        # h(W + X) >= h of the slower summand alone
        for a in rate_grid():
            for b in rate_grid():
                h = hypoexp_entropy(RatePair(a, b))
                assert h + 1e-12 >= exp_entropy(min(a, b))

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_continuity_into_the_erlang_limit(self, eps, lam):
        value = hypoexp_entropy(RatePair(lam * (1.0 + eps), lam))
        assert math.isfinite(value)
        assert abs(value - erlang2_entropy(lam)) <= 2.0 * eps

    def test_domain(self):
        with pytest.raises(ValueError):
            hypoexp_entropy(RatePair(-1.0, 1.0))


DBL_MAX = 1.7976931348623157e308


class TestAgainstMpmath:
    """The closed forms at a few ulp of their largest term, over the whole
    domain, against mpmath at 40 digits."""

    @staticmethod
    def moderate_pairs():
        # lambda_lo log-uniform in [1e-6, 1e6], ratios from 1 + 1e-15 to 1e6
        rng = np.random.default_rng(3)
        lo = 10.0 ** rng.uniform(-6, 6, 3000)
        return zip((lo * (1.0 + 10.0 ** rng.uniform(-15, 6, lo.size))).tolist(), lo.tolist())

    def test_entropy_within_5e_15_on_moderate_rates(self, mp):
        for hi, lo in self.moderate_pairs():
            assert abs(hypoexp_entropy(RatePair(hi, lo)) - mp_entropy(mp, hi, lo)) <= 5e-15

    def test_entropy_within_4_ulp_at_extreme_rates(self, mp):
        rng = np.random.default_rng(5)
        lo = 10.0 ** rng.uniform(-323.3, 308.2, 3000)
        with np.errstate(over="ignore"):
            hi = np.minimum(lo * (1.0 + 10.0 ** rng.uniform(-16, 3, lo.size)), DBL_MAX)
        edges = [(5e-324, 5e-324), (1e-323, 5e-324), (DBL_MAX, DBL_MAX), (1.7e308, 5e-324),
                 (DBL_MAX, math.nextafter(DBL_MAX, 0.0)), (2e-300, 1e-300), (1e300, 1e-300)]
        for a, b in [*zip(hi.tolist(), lo.tolist()), *edges]:
            largest = max(1.0 + EULER_GAMMA, abs(math.log(b)))
            error = abs(hypoexp_entropy(RatePair(a, b)) - mp_entropy(mp, a, b))
            assert error <= 4.0 * math.ulp(largest), (a, b)

    def test_mutual_information_within_5e_15_on_moderate_rates(self, mp):
        for hi, lo in self.moderate_pairs():
            for signal, noise in ((hi, lo), (lo, hi)):
                exact = mp_entropy(mp, hi, lo) - (1 - mp.log(mp.mpf(noise)))
                assert abs(mutual_info_aen(signal, noise) - exact) <= 5e-15

    @pytest.mark.parametrize(
        "ratios, count, seed", [((2.0, 300.0), 3000, 7), ((math.log10(11.0), 2.0), 300, 8)]
    )
    def test_mutual_information_relative_error_for_a_much_faster_signal(
        self, mp, ratios, count, seed
    ):
        # 3,000 pairs at signal/noise ratios 1e2 to 1e300, 300 from 11 to 1e2,
        # where I = gamma + psi(1 + e) - ln(1 + e), e = noise/(signal - noise),
        # vanishes like 0.645 e; mpmath gets 40 digits beyond those of e
        rng = np.random.default_rng(seed)
        noise = 10.0 ** rng.uniform(-150, 7, count)
        signal = noise * 10.0 ** rng.uniform(*ratios, count)
        for s, n in zip(signal.tolist(), noise.tolist()):
            with mp.workdps(40 + int(math.log10(s / n))):
                e = mp.mpf(n) / (mp.mpf(s) - mp.mpf(n))
                exact = mp.euler + mp.digamma(1 + e) - mp.log1p(e)
            assert abs(mutual_info_aen(s, n) - exact) <= 1e-14 * exact, (s, n)

    @pytest.mark.parametrize("lam", [5e-324, 1e-300, 0.3, 1.0, 2.0, 1e300, 1.7e308, DBL_MAX])
    def test_equal_rates_are_exact(self, lam):
        assert hypoexp_entropy(RatePair(lam, lam)) == erlang2_entropy(lam)
        assert mutual_info_aen(lam, lam) == EULER_GAMMA


class TestMutualInfo:
    def test_one_nat_point(self):
        assert abs(mutual_info_aen(1.0, 2.0) - 1.0) < 1e-12

    def test_noise_rate_three(self):
        # (3 - ln 6) - (1 - ln 3) = 2 - ln 2
        assert abs(mutual_info_aen(1.0, 3.0) - (2.0 - math.log(2.0))) < 1e-12

    def test_equal_rate_limit_is_gamma(self):
        assert abs(mutual_info_aen(1.0, 1.0 + 1e-9) - EULER_GAMMA) < 1e-6
        assert abs(mutual_info_aen(1.5, 1.5) - EULER_GAMMA) < 1e-14

    def test_direct_expression_matches_difference_form(self):
        # for noise_rate w > signal_rate x the closed expression is
        # gamma + ln((w - x)/x) + psi(w/(w - x))
        for x in rate_grid():
            for w in rate_grid():
                if w <= x:
                    continue
                direct = (
                    EULER_GAMMA + math.log((w - x) / x) + digamma(w / (w - x))
                )
                assert abs(direct - mutual_info_aen(x, w)) <= 1e-12

    def test_strictly_positive(self):
        for x in rate_grid():
            for w in rate_grid():
                assert mutual_info_aen(x, w) > 0.0

    def test_nonnegative_over_the_whole_domain(self):
        # h(Y) - h(W) as a difference of two terms near -ln lambda dipped below 0
        rng = np.random.default_rng(1)
        rates = 10.0 ** rng.uniform(-300, 300, size=(2000, 2))
        assert min(mutual_info_aen(s, n) for s, n in rates.tolist()) >= 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            mutual_info_aen(bad, 1.0)
        with pytest.raises(ValueError):
            mutual_info_aen(1.0, bad)


class TestCondEntropyLight:
    def test_degenerate_mixture_equals_single_branch(self):
        value = cond_entropy_light(lambda_x=1.0, lambda_w_on=2.0, lambda_w_off=9.0, p_on=1.0)
        assert value == hypoexp_entropy(RatePair(1.0, 2.0))

    def test_all_off_branch(self):
        value = cond_entropy_light(lambda_x=1.0, lambda_w_on=3.0, lambda_w_off=0.5, p_on=0.0)
        assert abs(value - 2.0) < 1e-12

    def test_even_mixture(self):
        value = cond_entropy_light(lambda_x=1.0, lambda_w_on=2.0, lambda_w_off=0.5, p_on=0.5)
        expected = 2.0 - math.log(2.0) / 2.0
        assert abs(value - expected) < 1e-12

    def test_mixture_between_branch_entropies(self):
        b_on = hypoexp_entropy(RatePair(0.7, 2.5))
        b_off = hypoexp_entropy(RatePair(0.7, 0.3))
        for p in np.linspace(0.0, 1.0, 11):
            value = cond_entropy_light(0.7, 2.5, 0.3, float(p))
            assert min(b_on, b_off) - 1e-14 <= value <= max(b_on, b_off) + 1e-14

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError):
            cond_entropy_light(1.0, 2.0, 0.5, p)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            cond_entropy_light(-1.0, 2.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            cond_entropy_light(1.0, 0.0, 0.5, 0.5)


class TestMeanConstrainedRates:
    def test_erlang_point(self):
        assert mean_constrained_rates(2.0) == RatePair(2.0, 2.0)

    def test_reciprocal_pair(self):
        pair = mean_constrained_rates(1.25)
        assert pair.lambda_hi == 5.0
        assert pair.lambda_lo == 1.25

    def test_parameter_symmetry(self):
        assert mean_constrained_rates(5.0) == mean_constrained_rates(1.25)

    def test_unit_mean_across_window(self):
        for lam in np.geomspace(1.01, 100.0, 40):
            pair = mean_constrained_rates(float(lam))
            mean = 1.0 / pair.lambda_hi + 1.0 / pair.lambda_lo
            assert abs(mean - 1.0) < 1e-12

    @pytest.mark.parametrize("bad", [1.0, 0.5, -3.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            mean_constrained_rates(bad)


def array_sweep():
    """Seeded rate pairs over every branch of the closed form."""
    rng = np.random.default_rng(20161121)
    below_six = np.nextafter(5.0, 0.0)  # hi = 6: r = 6 / (1 + ulp) < 6
    below_nine = np.nextafter(9.0, 0.0)  # hi = 10: w = (1 + ulp)/10 > 1/10
    scales = 2.0 ** rng.uniform(-20, 20, 40)
    gaps = np.geomspace(1e-13, 1e-11, 201)
    hi = 10.0 ** rng.uniform(-6, 6, 201)
    pairs = [
        (6.0, 5.0), (12.0, 10.0), (6.0, below_six), (6.0, np.nextafter(5.0, 6.0)),
        (10.0, 9.0), (10.0, below_nine), (10.0, np.nextafter(9.0, 10.0)),
        (6.0, 6.0), (1.0, 1.0), (2.0, 2.0), (1e6, 1e-6), (1e300, 1e-300),
        (1.0, 1.0 - 1e-6), (1.0, 1.0 - 1e-9), (5e-324, 5e-324), (1.0, 5e-324),
        (1.7976931348623157e308, 1.7976931348623157e308), (1.7e308, 5e-324),
    ]
    for k in range(2, 10):  # r = k, where the recurrence's step count changes
        pairs += [(k, k - 1.0), (k, np.nextafter(k - 1.0, 0.0)), (k, np.nextafter(k - 1.0, k))]
    pairs.append((2.0, 1.0 - 2.0**-52))  # r just below 2; at k = 2 the line above rounds to 2
    pairs += [(6.0 * s, 5.0 * s) for s in scales]
    pairs += [(6.0 * s, below_six * s) for s in scales]
    pairs += [(10.0 * s, 9.0 * s) for s in scales]
    pairs += [(10.0 * s, below_nine * s) for s in scales]
    pairs += zip(hi, hi * (1.0 - gaps))
    pairs += zip(hi, hi * (1.0 + gaps))
    pairs += zip(10.0 ** rng.uniform(-6, 6, 2000), 10.0 ** rng.uniform(-6, 6, 2000))
    pairs += [(rate, rate) for rate in 10.0 ** rng.uniform(-6, 6, 50)]
    lam = np.append(np.geomspace(1.01, 100.0, 200), [2.0, np.nextafter(2.0, 3.0)])
    pairs += zip(lam, lam / (lam - 1.0))
    a, b = np.array(pairs, dtype=float).T
    return a, b


class TestHypoexpEntropyArray:
    def test_bit_equal_to_scalar(self):
        a, b = array_sweep()
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        scalar = [hypoexp_entropy(RatePair(x, y)) for x, y in zip(a.tolist(), b.tolist())]
        assert hypoexp_entropy_array(hi, lo).tolist() == scalar

    def test_sweep_covers_both_regimes(self):
        # T(w) by the series up to w = 1/10 and by the recurrence above it
        a, b = array_sweep()
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        w = ((hi - lo) / hi).tolist()
        series = [x for x in w if x * 10.0 <= 1.0]
        recurrence = [x for x in w if x * 10.0 > 1.0]
        assert series.count(0.0) > 50 and len(series) > 500 and len(recurrence) > 500
        assert 0.1 in series and min(recurrence) < math.nextafter(0.1, 1.0) * (1.0 + 1e-15)
        assert 0.0 < min(x for x in series if x > 0.0) < 1e-12

    def test_equal_rates_are_erlang2_bit_for_bit(self):
        # the Erlang-2 curve of fig1 is built this way
        rates = np.append(np.geomspace(0.01, 2.0, 2000), [5e-324, 1.7e308, 1.7976931348623157e308])
        expected = list(map(erlang2_entropy, rates.tolist()))
        assert hypoexp_entropy_array(rates, rates).tolist() == expected

    def test_contact_point_is_erlang2(self):
        hi, lo = mean_constrained_rates(2.0)
        assert hypoexp_entropy_array([hi], [lo]).tolist() == [erlang2_entropy(2.0)]

    def test_erlang2_at_rates_whose_sum_overflows(self):
        expected = 1.0 + EULER_GAMMA - math.log(1.7e308)
        assert hypoexp_entropy(RatePair(1.7e308, 1.7e308)) == expected
        array = hypoexp_entropy_array(np.array([1.7e308]), np.array([1.7e308]))
        assert array.tolist() == [expected]


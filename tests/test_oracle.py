"""Numerical oracles: quadrature, Monte-Carlo estimator, log-integral."""

import inspect
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from conftest import mp_log_integral
from expsum import dist, oracle
from expsum.dist import RatePair, exponential_draws
from expsum.entropy import erlang2_entropy
from expsum.oracle import (
    MAX_SUBDIVISIONS,
    MC_CHUNK,
    ConvergenceError,
    EstimateWithError,
    entropy_monte_carlo,
    entropy_quadrature,
    gr_log_integral,
    normalization_quadrature,
)
from expsum.specfun import EULER_GAMMA


class TestQuadratureConfig:
    """The tolerance keyword and the subdivision budget of the quadrature oracles."""

    def test_defaults(self):
        for fn in (entropy_quadrature, normalization_quadrature, gr_log_integral):
            assert inspect.signature(fn).parameters["abs_tol"].default == 1e-10
        assert MAX_SUBDIVISIONS == 2000

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_rejects_bad_tolerance(self, tol):
        d = RatePair(2.0, 1.0)
        for call in (
            lambda: entropy_quadrature(d, abs_tol=tol),
            lambda: normalization_quadrature(d, abs_tol=tol),
            lambda: gr_log_integral(1.0, 1.0, abs_tol=tol),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"abs_tol must be positive and finite, got {tol!r}"


class TestEntropyQuadrature:
    def test_erlang2_unit_rate(self):
        d = RatePair(1.0, 1.0)
        assert abs(entropy_quadrature(d) - (1.0 + EULER_GAMMA)) < 1e-9

    def test_erlang2_rate_two(self):
        expected = 1.0 + EULER_GAMMA - math.log(2.0)
        assert abs(entropy_quadrature(RatePair(2.0, 2.0)) - expected) < 1e-9

    def test_hypoexp_two_one(self):
        d = RatePair(2.0, 1.0)
        assert abs(entropy_quadrature(d) - (2.0 - math.log(2.0))) < 1e-9

    def test_degenerate_routes_to_erlang_forms(self):
        # a relative gap of 5e-14 integrates to the Erlang-2 entropy
        d = RatePair(1.0 + 5e-14, 1.0)
        assert abs(entropy_quadrature(d) - erlang2_entropy(1.0)) < 1e-9

    def test_loose_tolerance_still_close(self):
        d = RatePair(2.0, 1.0)
        assert abs(entropy_quadrature(d, abs_tol=1e-6) - (2.0 - math.log(2.0))) < 1e-5

    def test_budget_exhaustion_raises(self):
        # the case of the golden exit-3 command: 1e-30 is below what doubles resolve
        with pytest.raises(ConvergenceError):
            entropy_quadrature(RatePair(2.0, 1.0), abs_tol=1e-30)

    def test_budget_exhaustion_names_interval_and_points(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_SUBDIVISIONS", 0)
        with pytest.raises(ConvergenceError) as info:
            entropy_quadrature(RatePair(2.0, 1.0))
        assert str(info.value) == (
            "estimated error 2.359e-02 above tolerance 1.000e-10 after 0 subdivisions "
            "of [0.0, 40.0] (60 integrand points); "
            "worst panel [0.0, 10.0] with estimated error 2.359e-02"
        )


class TestAdaptive:
    def test_one_integrand_call_per_split(self):
        # the four starting panels are one call, and each split's two halves another
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-x) * np.sin(3.0 * x) ** 2

        value = oracle._adaptive(f, lambda t: 0.0, 1e-12)  # [0, 20]
        tail = math.exp(-20.0) * (6.0 * math.sin(120.0) - math.cos(120.0))
        assert abs(value - (-math.expm1(-20.0) / 2.0 - (1.0 + tail) / 74.0)) < 1e-11
        assert len(sizes) > 1
        assert sizes[0] == 60
        assert set(sizes[1:]) == {30}
        assert sum(sizes) == 15 * (4 + 2 * (len(sizes) - 1))

    @pytest.mark.parametrize("column, degree", [(0, 22), (1, 13)])
    def test_rule_columns_integrate_polynomials(self, column, degree):
        # K15 is exact to degree 22 and the embedded G7 to degree 13
        nodes, weights = oracle._NODES, [row[column] for row in oracle._RULE]
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(w * x**k for w, x in zip(weights, nodes)) - exact) < 1e-15

    def test_gauss_column_is_zero_off_the_gauss_nodes(self):
        assert oracle._NODES == tuple(sorted(oracle._NODES))
        assert [i for i, (_, g) in enumerate(oracle._RULE) if g == 0.0] == list(range(0, 15, 2))
        assert {abs(x) for x in oracle._NODES[1::2]} == {abs(x) for x in oracle._XGK[1::2]}

    def test_nan_error_estimate_is_not_convergence(self):
        with pytest.raises(ConvergenceError) as info:
            oracle._adaptive(lambda x: np.where(x > 15.0, np.nan, 1.0), lambda t: 0.0, 1e-10)
        assert "estimated error nan" in str(info.value)
        assert "of [0.0, 20.0]" in str(info.value)
        assert str(info.value).endswith("; worst panel [15.0, 20.0] with estimated error nan")

    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    def test_infinite_integrand_is_not_convergence(self, inf):
        # a zero Gauss weight times inf is nan: no RuntimeWarning reaches the caller
        with pytest.raises(ConvergenceError) as info:
            oracle._adaptive(lambda x: np.where(x > 15.0, inf, 1.0), lambda t: 0.0, 1e-10)
        assert "after 0 subdivisions of [0.0, 20.0]" in str(info.value)
        assert str(info.value).endswith("; worst panel [15.0, 20.0] with estimated error nan")


class TestNormalization:
    def test_unit_mass_across_grid(self):
        # includes the diagonal, exercising the degenerate Erlang branch
        grid = [float(g) for g in np.geomspace(0.1, 10.0, 7)]
        worst = 0.0
        for i, a in enumerate(grid):
            for b in grid[i:]:
                d = RatePair(a, b)
                worst = max(worst, abs(normalization_quadrature(d) - 1.0))
        assert worst <= 1e-10

    def test_single_rate_families(self):
        assert abs(normalization_quadrature(RatePair(3.0, 3.0)) - 1.0) < 1e-10


class TestMonteCarlo:
    def test_requires_two_samples(self):
        d = RatePair(2.0, 1.0)
        with pytest.raises(ValueError):
            entropy_monte_carlo(d, 1, seed=42)
        with pytest.raises(ValueError):
            entropy_monte_carlo(d, 0, seed=42)

    def test_deterministic_given_seed(self):
        d = RatePair(2.0, 1.0)
        a = entropy_monte_carlo(d, 10_000, seed=42)
        b = entropy_monte_carlo(d, 10_000, seed=42)
        assert a == b
        assert isinstance(a, EstimateWithError)

    def test_within_statistical_band(self):
        d = RatePair(2.0, 1.0)
        est = entropy_monte_carlo(d, 10**5, seed=42)
        closed = 2.0 - math.log(2.0)
        assert est.std_error > 0.0
        assert abs(est.estimate - closed) <= 5.0 * est.std_error
        assert est.n_samples == 10**5

    def test_erlang2_at_rates_whose_sum_overflows(self):
        # the samples lie near 1e-308, so ln f must not floor y at a fixed value
        est = entropy_monte_carlo(RatePair(1.7e308, 1.7e308), 10**4, seed=42)
        assert abs(est.estimate - erlang2_entropy(1.7e308)) <= 5.0 * est.std_error

    @staticmethod
    def one_shot_values(rates, n, seed):
        """t - ln k at n unit-scale samples t from one generator: the lambda_hi
        block at rate lambda_hi/lambda_lo first, then the lambda_lo block at rate 1."""
        hi, lo = d = RatePair(*rates)
        rng = np.random.default_rng(seed)
        t = exponential_draws(rng, n, hi / lo) + exponential_draws(rng, n, 1.0)
        t, k = dist._unit_kernel(d, t, 1.0, (hi - lo) / lo)
        return t - np.log(k)

    @staticmethod
    def assert_mean_within_4_ulp(est, vals, rates):
        """The estimate is -ln lambda_lo plus a mean within 4 ulp of the exact
        mean of ``vals``, the shift adding at most one rounding."""
        n = len(vals)
        expected = math.fsum(vals.tolist()) / n - math.log(min(rates))
        bound = 4 * math.ulp(math.fsum(np.abs(vals).tolist()) / n) + math.ulp(expected)
        assert abs(est.estimate - expected) <= bound

    @pytest.mark.parametrize("n", [2, MC_CHUNK - 1, MC_CHUNK])
    @pytest.mark.parametrize("rates", [(2.0, 1.0), (1.0, 1.0), (1e6, 1e-6)])
    @pytest.mark.parametrize("seed", [42, 20161121])
    def test_one_chunk_matches_one_shot_bit_for_bit(self, n, rates, seed):
        vals = self.one_shot_values(rates, n, seed)
        std_error = float(vals.std(ddof=1) / math.sqrt(n))
        expected = (float(vals.mean()) - math.log(min(rates)), std_error)
        est = entropy_monte_carlo(RatePair(*rates), n, seed)
        assert (est.estimate, est.std_error) == expected

    @pytest.mark.parametrize("n", [MC_CHUNK + 1, 3 * MC_CHUNK + 5, 10**6])
    @pytest.mark.parametrize("rates", [(2.0, 1.0), (1.0, 1.0), (1e6, 1e-6)])
    @pytest.mark.parametrize("seed", [42, 20161121])
    def test_merged_chunks_match_exact_sums(self, n, rates, seed):
        vals = self.one_shot_values(rates, n, seed)
        mean = math.fsum(vals.tolist()) / n
        m2 = math.fsum(((vals - mean) ** 2).tolist())
        est = entropy_monte_carlo(RatePair(*rates), n, seed)
        self.assert_mean_within_4_ulp(est, vals, rates)
        # M2 within 1e-15 relative, as seen through the square root (which
        # halves a relative error) and the roundings that follow it
        std_error = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
        assert abs(est.std_error - std_error) <= 0.5e-15 * std_error + 2 * math.ulp(std_error)

    #: float.hex() of (estimate, std_error) at n = 3 MC_CHUNK + 5, from the
    #: allocating chunk loop that preceded the buffered one; (2, 2) takes the
    #: kernel's equal-rate branch and (1e-310, 5e-311) has subnormal rates.
    MULTI_CHUNK_HEX = {
        ((5.0, 0.3), 1): ("0x1.1efc83533ca0ep+1", "0x1.2054828c7c098p-9"),
        ((5.0, 0.3), 7): ("0x1.1ebee9c1e16e6p+1", "0x1.1ecee6461ac04p-9"),
        ((2.0, 2.0), 1): ("0x1.c44be3cc74a8bp-1", "0x1.d8c97068eb9edp-10"),
        ((2.0, 2.0), 7): ("0x1.c2fe7992ccbcfp-1", "0x1.d68a16693e14cp-10"),
        ((1e6, 1e-6), 1): ("0x1.da17cdc34b24dp+3", "0x1.27fc418f6b1fdp-9"),
        ((1e6, 1e-6), 7): ("0x1.da0760c1fea41p+3", "0x1.26772a91f389dp-9"),
        ((1e-310, 5e-311), 1): ("0x1.65e68811baba5p+9", "0x1.f1768410b0658p-10"),
        ((1e-310, 5e-311), 7): ("0x1.65e632c201356p+9", "0x1.eedcfa710cf6bp-10"),
    }

    @pytest.mark.parametrize("rates, seed", list(MULTI_CHUNK_HEX), ids=repr)
    def test_multi_chunk_estimates_are_pinned_bit_for_bit(self, rates, seed):
        est = entropy_monte_carlo(RatePair(*rates), 3 * MC_CHUNK + 5, seed)
        assert (est.estimate.hex(), est.std_error.hex()) == self.MULTI_CHUNK_HEX[rates, seed]

    @pytest.mark.parametrize("seed", [42, 20161121])
    def test_many_chunk_sums_add_up_to_the_exact_mean(self, monkeypatch, seed):
        # 2^14 chunks of 16 samples stand in for the 763 chunks of 5e7 samples,
        # where adding the chunk sums without compensation drifts by up to 8 ulp;
        # here it would drift by tens of ulp
        monkeypatch.setattr(oracle, "MC_CHUNK", 16)
        n = 1 << 18
        vals = self.one_shot_values((2.0, 1.0), n, seed)
        est = entropy_monte_carlo(RatePair(2.0, 1.0), n, seed)
        self.assert_mean_within_4_ulp(est, vals, (2.0, 1.0))

    @staticmethod
    def traced_peak(n, rates=(2.0, 1.0), seed=0):
        d = RatePair(*rates)
        entropy_monte_carlo(d, 1000, seed)  # set-up outside the trace
        tracemalloc.start()
        try:
            entropy_monte_carlo(d, n, seed)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_n(self):
        small = self.traced_peak(4 * MC_CHUNK)
        large = self.traced_peak(10**7)
        assert large <= 16 * 8 * MC_CHUNK
        assert abs(large - small) <= 8 * MC_CHUNK

    def test_no_chunk_allocates_an_array(self):
        # the three chunk buffers (t, k and t - ln k) and 64 KiB of small objects
        assert self.traced_peak(30 * MC_CHUNK, (5.0, 0.3), 7) <= 3 * 8 * MC_CHUNK + 64 * 1024

    def test_non_finite_log_density_raises(self, monkeypatch):
        kernel = dist._unit_kernel

        def one_zero(*args):
            t, k = kernel(*args)
            k[min(7, k.size - 1)] = 0.0
            return t, k

        monkeypatch.setattr(dist, "_unit_kernel", one_zero)
        with pytest.raises(FloatingPointError) as info:
            entropy_monte_carlo(RatePair(3.0, 2.0), 10, seed=5)
        message = str(info.value)
        for part in ("sample 7", "3.0", "2.0", "n=10", "seed=5"):
            assert part in message

    def test_non_finite_value_in_a_later_chunk_names_its_global_index(self, monkeypatch):
        calls = []
        kernel = dist._unit_kernel

        def zero_in_second_chunk(*args):
            t, k = kernel(*args)
            calls.append(None)
            if len(calls) == 2:
                k[7] = 0.0
            return t, k

        monkeypatch.setattr(dist, "_unit_kernel", zero_in_second_chunk)
        with pytest.raises(FloatingPointError) as info:
            entropy_monte_carlo(RatePair(3.0, 2.0), 3 * MC_CHUNK, seed=5)
        assert f"at sample {MC_CHUNK + 7} " in str(info.value)
        assert len(calls) == 2


class TestGrLogIntegral:
    def test_unit_arguments(self):
        # int_0^1 ln(1 - xi) d(xi) = -1
        assert abs(gr_log_integral(1.0, 1.0) + 1.0) < 1e-10

    def test_u_two_v_one(self):
        # -(gamma + psi(3))/2 with psi(3) = 3/2 - gamma
        assert abs(gr_log_integral(2.0, 1.0) + 0.75) < 1e-9

    def test_u_one_v_two(self):
        # -(gamma + psi(3/2)) = 2 ln 2 - 2
        expected = 2.0 * math.log(2.0) - 2.0
        assert abs(gr_log_integral(1.0, 2.0) - expected) < 1e-9

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            gr_log_integral(bad, 1.0)
        with pytest.raises(ValueError):
            gr_log_integral(1.0, bad)

    def test_subnormal_tolerance_raises_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError):
            gr_log_integral(1.0, 1.0, abs_tol=5e-324)
        assert time.perf_counter() - start < 1.0

    def test_tolerance_below_double_resolution_raises(self):
        with pytest.raises(ConvergenceError):
            gr_log_integral(1.0, 1.0, abs_tol=1e-30)

    #: Rates from the smallest subnormal to DBL_MAX; every ordered pair is a case.
    FULL_DOMAIN_RATES = (
        5e-324, 1e-310, sys.float_info.min, 1e-300, 1e-150, 1e-12, 1e-6, 1e-5, 1e-3, 0.37,
        1.0, 2.0, 1e3, 1e5, 1e6, 1e12, 1e150, 1e300, 1e308, sys.float_info.max,
    )

    def test_matches_mpmath_on_the_full_domain(self, mp):
        """Within abs_tol/max(u, v) + 1e-13 |true| of mpmath wherever the true value is
        a finite double; ConvergenceError is allowed only where v/u < DBL_MIN."""
        tol = 1e-10
        misses = []
        for u in self.FULL_DOMAIN_RATES:
            for v in self.FULL_DOMAIN_RATES:
                exact = mp_log_integral(mp, u, v)
                if not abs(exact) <= sys.float_info.max:
                    continue
                try:
                    value = gr_log_integral(u, v, abs_tol=tol)
                except ConvergenceError:
                    if v / u < sys.float_info.min:
                        continue
                    raise
                if not abs(value - exact) <= tol / max(u, v) + 1e-13 * abs(exact):
                    misses.append((u, v, value, float(exact)))
        assert misses == []

"""Numerical oracles: quadrature, Monte-Carlo estimator, log-integral."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from expsum import oracle
from expsum.dist import HypoexpTwo, hypoexp_log_pdf, sample_hypoexp
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
        d = HypoexpTwo.from_rates(2.0, 1.0)
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
        d = HypoexpTwo.from_rates(1.0, 1.0)
        assert abs(entropy_quadrature(d) - (1.0 + EULER_GAMMA)) < 1e-9

    def test_erlang2_rate_two(self):
        expected = 1.0 + EULER_GAMMA - math.log(2.0)
        assert abs(entropy_quadrature(HypoexpTwo.from_rates(2.0, 2.0)) - expected) < 1e-9

    def test_hypoexp_two_one(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        assert abs(entropy_quadrature(d) - (2.0 - math.log(2.0))) < 1e-9

    def test_degenerate_routes_to_erlang_forms(self):
        d = HypoexpTwo.from_rates(1.0 + 5e-14, 1.0)
        assert d.is_degenerate
        assert abs(entropy_quadrature(d) - erlang2_entropy(1.0)) < 1e-9

    def test_loose_tolerance_still_close(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        assert abs(entropy_quadrature(d, abs_tol=1e-6) - (2.0 - math.log(2.0))) < 1e-5

    def test_budget_exhaustion_raises(self):
        # the case of the golden exit-3 command: 1e-30 is below what doubles resolve
        with pytest.raises(ConvergenceError):
            entropy_quadrature(HypoexpTwo.from_rates(2.0, 1.0), abs_tol=1e-30)


class TestNormalization:
    def test_unit_mass_across_grid(self):
        # includes the diagonal, exercising the degenerate Erlang branch
        grid = [float(g) for g in np.geomspace(0.1, 10.0, 7)]
        worst = 0.0
        for i, a in enumerate(grid):
            for b in grid[i:]:
                d = HypoexpTwo.from_rates(a, b)
                worst = max(worst, abs(normalization_quadrature(d) - 1.0))
        assert worst <= 1e-10

    def test_single_rate_families(self):
        assert abs(normalization_quadrature(HypoexpTwo.from_rates(3.0, 3.0)) - 1.0) < 1e-10


class TestMonteCarlo:
    def test_requires_two_samples(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        with pytest.raises(ValueError):
            entropy_monte_carlo(d, 1, seed=42)
        with pytest.raises(ValueError):
            entropy_monte_carlo(d, 0, seed=42)

    def test_deterministic_given_seed(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        a = entropy_monte_carlo(d, 10_000, seed=42)
        b = entropy_monte_carlo(d, 10_000, seed=42)
        assert a == b
        assert isinstance(a, EstimateWithError)

    def test_within_statistical_band(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        est = entropy_monte_carlo(d, 10**5, seed=42)
        closed = 2.0 - math.log(2.0)
        assert est.std_error > 0.0
        assert abs(est.estimate - closed) <= 5.0 * est.std_error
        assert est.n_samples == 10**5

    def test_erlang2_at_rates_whose_sum_overflows(self):
        # the samples lie near 1e-308, so ln f must not floor y at a fixed value
        est = entropy_monte_carlo(HypoexpTwo.from_rates(1.7e308, 1.7e308), 10**4, seed=42)
        assert abs(est.estimate - erlang2_entropy(1.7e308)) <= 5.0 * est.std_error

    @pytest.mark.parametrize("n", [2, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 5])
    @pytest.mark.parametrize("rates", [(2.0, 1.0), (1.0, 1.0), (1e6, 1e-6)])
    @pytest.mark.parametrize("seed", [42, 20161121])
    def test_streaming_matches_one_shot_bit_for_bit(self, n, rates, seed):
        # the one-shot form the chunked estimator must reproduce exactly
        d = HypoexpTwo.from_rates(*rates)
        vals = -hypoexp_log_pdf(d, sample_hypoexp(d, np.random.default_rng(seed), n))
        expected = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n)))
        est = entropy_monte_carlo(d, n, seed)
        assert (est.estimate, est.std_error) == expected

    def test_memory_is_eight_bytes_per_sample_plus_a_chunk(self):
        d = HypoexpTwo.from_rates(2.0, 1.0)
        n = 10**6
        entropy_monte_carlo(d, 1000, 0)  # first-call set-up outside the trace
        tracemalloc.start()
        try:
            entropy_monte_carlo(d, n, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 8 * 2**20

    def test_non_finite_log_density_raises(self, monkeypatch):
        def one_inf(d, y):
            out = hypoexp_log_pdf(d, y)
            out[min(7, out.size - 1)] = -np.inf
            return out

        monkeypatch.setattr(oracle, "hypoexp_log_pdf", one_inf)
        with pytest.raises(FloatingPointError) as info:
            entropy_monte_carlo(HypoexpTwo.from_rates(3.0, 2.0), 10, seed=5)
        message = str(info.value)
        for part in ("sample 7", "3.0", "2.0", "n=10", "seed=5"):
            assert part in message


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

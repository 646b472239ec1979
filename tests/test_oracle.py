"""Numerical oracles: quadrature, Monte-Carlo estimator, log-integral."""

import inspect
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import mp_log_integral
from expsum import dist, oracle
from expsum.dist import RatePair, exponential_draws
from expsum.entropy import erlang2_entropy, hypoexp_entropy
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


class TestToleranceAndBudget:
    """The abs_tol default of the three quadratures, its rejection by the driver they share,
    and the driver's subdivision budget ``MAX_SUBDIVISIONS``."""

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
            lambda: oracle._adaptive(np.exp, tol),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"abs_tol must be positive and finite, got {tol!r}"

    def test_ratio_below_dbl_min_is_reported_before_the_tolerance(self):
        with pytest.raises(ConvergenceError, match="below DBL_MIN"):
            gr_log_integral(1e308, 1e-10, abs_tol=0.0)


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

    def test_meets_the_tolerance_on_separated_and_near_equal_pairs(self, monkeypatch):
        """600 seeded pairs, lambda_lo = 10^U(-6, 6): 300 with ratio 10^U(0, 15), where k's
        boundary layer at t = 0 has width lambda_lo/gap, and 300 with ratio 1 + 10^U(-15, 0).
        Both quadratures at abs_tol 1e-10 are within 1e-9 of the closed form and of 1, each
        in at most 4 integrand calls, one kernel call apiece."""
        calls = []
        kernel = dist._unit_kernel

        def counted(*args):
            calls.append(None)
            return kernel(*args)

        monkeypatch.setattr(dist, "_unit_kernel", counted)
        rng = np.random.default_rng(20161121)
        lo = 10.0 ** rng.uniform(-6.0, 6.0, 600)
        ratio = np.concatenate([10.0 ** rng.uniform(0.0, 15.0, 300),
                                1.0 + 10.0 ** rng.uniform(-15.0, 0.0, 300)])
        misses, most_calls = [], 0
        for pair in zip((lo * ratio).tolist(), lo.tolist()):
            rates = RatePair(*pair)
            exact = hypoexp_entropy(rates)
            errors = []
            for quadrature, target in ((entropy_quadrature, exact), (normalization_quadrature, 1.0)):
                calls.clear()
                errors.append(quadrature(rates) - target)
                most_calls = max(most_calls, len(calls))
            if not max(map(abs, errors)) <= 1e-9:
                misses.append((pair, errors))
        assert misses == []
        assert most_calls <= 4

    def test_budget_exhaustion_raises(self):
        # the case of the golden exit-3 command: 1e-30 is below what doubles resolve
        with pytest.raises(ConvergenceError):
            entropy_quadrature(RatePair(2.0, 1.0), abs_tol=1e-30)

    def test_budget_exhaustion_names_interval_and_points(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_SUBDIVISIONS", 0)
        with pytest.raises(ConvergenceError) as info:
            entropy_quadrature(RatePair(2.0, 1.0))
        assert str(info.value) == (
            "estimated error 8.564e-05 above tolerance 1.000e-10 after 0 subdivisions "
            "of u in (0.0, 1.0] (750 integrand points); "
            "worst panel [0.0, 0.25] with estimated error 8.564e-05"
        )


class TestAdaptive:
    def test_one_integrand_call_per_round(self):
        # the first call covers the 46 start panels and the halves of the 2 pre-split ones,
        # and each later round's call the two halves of every panel it bisects, at most every
        # panel the round before left open; this integrand's first round splits other panels
        # too, so its second round makes a call
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-x) * np.sin(3.0 * x) ** 2

        value = oracle._adaptive(f, 1e-12)  # int_0^inf e^(-x) sin^2(3x) dx = 18/37
        assert abs(value - 18.0 / 37.0) < 1e-11
        assert len(sizes) > 1
        assert sizes[0] == 750
        assert all(size % 30 == 0 for size in sizes[1:])
        assert all(later // 30 <= size // 15 for size, later in zip(sizes, sizes[1:]))
        sizes.clear()
        with pytest.raises(ConvergenceError) as info:
            oracle._adaptive(f, 1e-30)
        splits = sum(sizes[1:]) // 30
        assert f"after {splits} subdivisions of u in (0.0, 1.0] " in str(info.value)
        assert f"({sum(sizes)} integrand points)" in str(info.value)

    def test_first_round_is_built_once_and_read_only(self):
        first = oracle._first_round()
        assert len(first) == 10
        assert all(again is array for again, array in zip(oracle._first_round(), first))
        assert not any(array.flags.writeable for array in first)

    def test_first_round_equals_a_fresh_build_from_the_rule_and_the_start_edges(self):
        # the edges as _adaptive's docstring gives them, then the halves of [0, 1/4] and
        # [1/4, 1/2], and each value by Python float arithmetic, which rounds every
        # operation as numpy's does
        doc = " ".join(oracle._adaptive.__doc__.split())
        assert "edges 0, 1/4, 1/2, 3/4, 1 - 2^-k (3 <= k <= 44) and 1:" in doc
        assert oracle._PRESPLIT == (0, 1)
        edges = [0.0, 0.25, 0.5, 0.75, *(1.0 - 2.0**-k for k in range(3, 45)), 1.0]
        a = edges[:-1] + [0.0, 0.125, 0.25, 0.375]
        b = edges[1:] + [0.125, 0.25, 0.375, 0.5]
        mid = [0.5 * (lo + hi) for lo, hi in zip(a, b)]
        half = [0.5 * (hi - lo) for lo, hi in zip(a, b)]
        nodes, kronrod, gauss = (list(column) for column in zip(*oracle._GK15))
        u = [[m + h * node for node in nodes] for m, h in zip(mid, half)]
        x = [[(1.0 - v) / v for v in row] for row in u]
        jac = [[v * v for v in row] for row in u]
        fresh = (kronrod, gauss, nodes, a, b, mid, half, x, jac)
        *first, parent = oracle._first_round()
        assert parent.tolist() == [0, 0, 1, 1]
        for got, want in zip(first, fresh, strict=True):
            assert got.shape == np.shape(want)
            assert list(map(float.hex, got.ravel().tolist())) == list(
                map(float.hex, np.ravel(want).tolist()))

    def test_an_integrand_cannot_write_into_the_shared_nodes(self):
        x = oracle._first_round()[7]
        before = x.tobytes()

        def f(x):
            x += 1.0
            return x

        with pytest.raises(ValueError, match="read-only"):
            oracle._adaptive(f, 1e-10)
        assert x.tobytes() == before

    @pytest.mark.parametrize("column, degree", [(0, 22), (1, 13)])
    def test_rule_columns_integrate_polynomials(self, column, degree):
        # K15 is exact to degree 22 and the embedded G7 to degree 13
        nodes, weights = oracle._NODES, (oracle._KRONROD, oracle._GAUSS)[column]
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(w * x**k for w, x in zip(weights, nodes)) - exact) < 1e-15

    def test_gauss_column_is_zero_off_the_gauss_nodes(self):
        assert oracle._NODES == tuple(sorted(oracle._NODES))
        assert [i for i, g in enumerate(oracle._GAUSS) if g == 0.0] == list(range(0, 15, 2))
        # nodes antisymmetric, both weight columns symmetric: with the exactness test above,
        # this pins the rule, since the Kronrod extension of G7 is unique
        assert oracle._NODES == tuple(-x for x in reversed(oracle._NODES))
        assert oracle._KRONROD == oracle._KRONROD[::-1]
        assert oracle._GAUSS == oracle._GAUSS[::-1]

    def test_nan_error_estimate_is_not_convergence(self):
        with pytest.raises(ConvergenceError) as info:
            oracle._adaptive(lambda x: np.where(x > 15.0, np.nan, 1.0), 1e-10)
        assert "estimated error nan" in str(info.value)
        assert "of u in (0.0, 1.0]" in str(info.value)
        assert str(info.value).endswith("; worst panel [0.0, 0.25] with estimated error nan")

    @pytest.mark.parametrize(
        "integrand, budget, splits",
        [
            # the 46 start panels are all split, and the 92 halves would pass the budget
            (lambda x: np.exp(-x), 100, 46),
            # nan only past the start panels' largest x, 935.26: the leftmost panel's nodes
            # pass 1e4 in the fifth round, after 46 + 92 + 184 + 368 splits
            (lambda x: np.where(x > 1e4, np.nan, 1.0), None, 690),
        ],
        ids=["budget", "nan"],
    )
    def test_convergence_error_counts_the_points_the_integrand_saw(
        self, monkeypatch, integrand, budget, splits
    ):
        seen = []

        def f(x):
            seen.append(x.size)
            return integrand(x)

        if budget is not None:
            monkeypatch.setattr(oracle, "MAX_SUBDIVISIONS", budget)
        with pytest.raises(ConvergenceError) as info:
            oracle._adaptive(f, 1e-30)
        assert f"after {splits} subdivisions of u in (0.0, 1.0]" in str(info.value)
        assert f"({sum(seen)} integrand points)" in str(info.value)

    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    def test_infinite_integrand_is_not_convergence(self, inf):
        # a zero Gauss weight times inf is nan: no RuntimeWarning reaches the caller
        with pytest.raises(ConvergenceError) as info:
            oracle._adaptive(lambda x: np.where(x > 15.0, inf, 1.0), 1e-10)
        assert "after 0 subdivisions of u in (0.0, 1.0]" in str(info.value)
        assert str(info.value).endswith("; worst panel [0.0, 0.25] with estimated error nan")


#: log10 of hi/lo for moderate and separated pairs, of hi/lo - 1 for near-equal ones.
PAIR_CLASSES = {"moderate": (math.log10(1.01), 2.0), "near_equal": (-12.0, -3.0),
                "separated": (2.0, 6.0)}


def seeded_pairs(seed, per_class):
    """(class, lo, hi) for ``per_class`` seeded pairs of each of ``PAIR_CLASSES``, both
    rates in [1e-6, 1e6]."""
    rng = np.random.default_rng(seed)
    pairs = []
    for cls, (low, high) in PAIR_CLASSES.items():
        x = rng.uniform(low, high, per_class)
        ratio = 1.0 + 10.0**x if cls == "near_equal" else 10.0**x
        lo = 10.0 ** rng.uniform(-6.0, 6.0 - np.log10(ratio))
        pairs += [(cls, a, b) for a, b in zip(lo.tolist(), (lo * ratio).tolist())]
    return pairs


class TestPresplitHalves:
    """The first integrand call also evaluates the halves of the ``_PRESPLIT`` start panels,
    and a second round on those halves alone makes no call. The reference is the plain
    breadth-first driver, with no pre-split panel: a row's sums depend on its nodes alone,
    so no bit and no error text but the point count may differ."""

    @staticmethod
    def plain(call):
        """call() under the plain breadth-first driver."""
        oracle._first_round.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, "_PRESPLIT", ())
                return call()
        finally:
            oracle._first_round.cache_clear()

    @staticmethod
    def outcomes(calls):
        """Each call's value as float.hex, or its ConvergenceError text with the integrand
        point count masked."""
        outcomes = []
        for call in calls:
            try:
                outcomes.append(call().hex())
            except ConvergenceError as error:
                outcomes.append(re.sub(r"\(\d+ integrand points\)", "(N integrand points)",
                                       str(error)))
        return outcomes

    @staticmethod
    def quadratures(pairs, abs_tol):
        """entropy, normalization and both orders of the log integral at each (lo, hi)."""
        calls = []
        for _, lo, hi in pairs:
            rates = RatePair(hi, lo)
            calls += [
                lambda rates=rates: entropy_quadrature(rates, abs_tol=abs_tol),
                lambda rates=rates: normalization_quadrature(rates, abs_tol=abs_tol),
                lambda lo=lo, hi=hi: gr_log_integral(lo, hi, abs_tol=abs_tol),
                lambda lo=lo, hi=hi: gr_log_integral(hi, lo, abs_tol=abs_tol),
            ]
        return calls

    def test_every_value_matches_the_plain_driver_bit_for_bit(self):
        calls = self.quadratures(seeded_pairs(36, 200), 1e-10)
        got = self.outcomes(calls)
        assert got == self.plain(lambda: self.outcomes(calls))
        assert not any(outcome.startswith("estimated") for outcome in got)

    @pytest.mark.parametrize("budget, abs_tol, stops", [
        (0, 1e-10, {"0"}),  # in the first round
        (2, 1e-10, {"2"}),  # in a second round on the halves
        (3, 1e-10, {"2", "3"}),  # in the second or third round
        # a tolerance below what doubles resolve: the budget, or the log integral's nan at u = 1
        (MAX_SUBDIVISIONS, 1e-30, None),
    ])
    def test_every_convergence_error_matches_the_plain_driver(
        self, monkeypatch, budget, abs_tol, stops
    ):
        monkeypatch.setattr(oracle, "MAX_SUBDIVISIONS", budget)
        calls = self.quadratures(seeded_pairs(36, 10), abs_tol)
        got = self.outcomes(calls)
        assert got == self.plain(lambda: self.outcomes(calls))
        raised = [outcome for outcome in got if outcome.startswith("estimated")]
        if stops is None:
            assert {"error nan" in outcome for outcome in raised} == {True, False}
        else:
            assert {re.search(r"after (\d+) ", outcome)[1] for outcome in raised} == stops

    @pytest.mark.parametrize("integrand, abs_tol, second_call", [
        # the first round splits [0, 1/4] and [1/4, 1/2]: the second round makes no call
        (oracle._entropy_integrand(RatePair(2.0, 1.0)), 1e-10, False),
        # it splits [0, 1/4] alone, or [1/4, 1/2] alone: no call, on those halves alone
        (lambda x: np.exp(-x) * np.sin(0.1 * x) ** 2, 1e-6, False),
        (lambda x: 1.0 / (1.0 + (x - 2.0) ** 2) / (1.0 + x) ** 2, 1e-6, False),
        # it splits [1/2, 3/4] too: the second round bisects and calls as the plain one does
        (lambda x: np.exp(-((x - 0.1) ** 2)), 1e-12, True),
    ], ids=["entropy_2_1", "only_first", "only_second", "third_too"])
    def test_a_second_round_on_the_halves_alone_makes_no_call(self, integrand, abs_tol,
                                                              second_call):
        def run():
            seen = []

            def f(x):
                seen.append(x.size)
                return integrand(x)

            return oracle._adaptive(f, abs_tol).hex(), seen

        value, seen = run()
        plain_value, plain_seen = self.plain(run)
        assert value == plain_value
        assert plain_seen[0] == 690
        assert seen == [750, *plain_seen[1 if second_call else 2:]]

    def test_nan_at_u_one_names_its_cause(self):
        with pytest.raises(ConvergenceError) as info:
            gr_log_integral(1.0, 1.0, abs_tol=1e-30)
        assert str(info.value) == (
            "estimated error nan above tolerance 1.000e-30 after 322 subdivisions of u in "
            "(0.0, 1.0] (10410 integrand points); worst panel [0.9999999999999929, 1.0] with "
            "estimated error nan; a node of that panel rounds to u = 1.0, where x = 0 and "
            "ln(1 - e^(-x)) = -inf"
        )


def allocating_integrands(rates, a, b, x):
    """The three quadrature integrands at the nodes x as plain expressions, each step in
    a new array: the reference the quadratures' integrands must match bit for bit."""
    t, k = dist._unit_kernel(rates, x, 1.0)
    g = np.exp(-t) * k
    entropy = g * (t - np.log(k, out=np.zeros_like(k), where=k > 0.0))
    return entropy, g, np.exp(-a * x) * np.log(-np.expm1(-b * x))


class TestLeanIntegrands:
    #: Unit-scale nodes: 0, where k = 0 and 0 ln 0 = 0; subnormal and tiny t, where
    #: d = gap t underflows and k with it; ordinary and large nodes; nan.
    NODES = [0.0, 5e-324, 1e-320, 1e-310, 2.0**-1022, 1e-300, 1e-30, 1e-8, 1e-3, 0.1, 0.5,
             1.0, 3.0, 10.0, 39.9, 100.0, 700.0, 745.2, 2000.0, 2560.0, math.nan]
    #: Equal rates, ordinary and near-equal pairs, a subnormal gap, and ratios from 1e300
    #: up: d = gap t overflows to +inf at the larger nodes from 1e306, and past DBL_MAX
    #: gap/lambda_lo does.
    PAIRS = [(2.0, 2.0), (3.0, 1.0), (1.0 + 2.0**-52, 1.0), (1.0 + 1e-9, 1.0),
             (1e-310, 5e-311), (1e300, 1.0), (1e306, 1.0), (1e307, 1.0), (1.7e308, 1.0),
             (1.7e308, 1e-5), (sys.float_info.max, 1.0), (1e300, 1e-300)]

    @pytest.mark.parametrize("pair", PAIRS, ids=repr)
    def test_match_the_allocating_expressions_bit_for_bit(self, pair):
        rates = RatePair(*pair)
        ratio = rates.lambda_lo / rates.lambda_hi  # gr_log_integral's a and b: one of them 1
        x = np.array(self.NODES * 3)[:60].reshape(4, 15)  # a row of nodes per panel
        before = x.tobytes()
        for a, b in ((1.0, ratio), (ratio, 1.0)):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                expected = allocating_integrands(rates, a, b, x)
                got = (oracle._entropy_integrand(rates)(x),
                       oracle._normalization_integrand(rates)(x), oracle._log_integrand(a, b)(x))
            assert x.tobytes() == before  # the nodes are never written into
            for want, have in zip(expected, got):
                assert have.shape == x.shape
                assert list(map(float.hex, have.ravel().tolist())) == list(
                    map(float.hex, want.ravel().tolist()))

    def test_sweep_reaches_zero_k_and_overflowing_d(self):
        with np.errstate(over="ignore"):
            _, k = dist._unit_kernel(RatePair(1.0 + 2.0**-52, 1.0), np.array([0.0, 5e-324]), 1.0)
            assert k.tolist() == [0.0, 0.0]  # k underflows to 0 at t > 0 too
        with pytest.warns(RuntimeWarning, match="overflow"):
            dist._unit_kernel(RatePair(1.7e308, 1.0), np.array([39.9]), 1.0)

    @pytest.mark.parametrize("pair", [
        (1e307, 1.0), (1.7e308, 1.0), (sys.float_info.max, 1.0), (1.7e308, 5e-324),
        (5e-324, 5e-324), (1e300, 1e-300), (sys.float_info.max, sys.float_info.max),
        (1.0, 1.0 + 2.0**-52), (1e-310, 5e-311),
    ])
    def test_quadratures_raise_no_warning_where_d_overflows(self, pair):
        # warnings are errors in every tier-1 run: the quadrature suppresses the
        # kernel's exact overflow once, and stays finite, also at extreme ratios and rates
        rates = RatePair(*pair)
        assert math.isfinite(entropy_quadrature(rates, abs_tol=1e-6))
        assert math.isfinite(normalization_quadrature(rates, abs_tol=1e-6))

    def test_monte_carlo_raises_no_warning_where_d_overflows(self):
        # t > 1.06 makes d = t (1.7e308 - 1) overflow for about a third of the samples;
        # the sum is within 1e-308 of an Exp(1) draw, whose entropy is 1
        est = entropy_monte_carlo(RatePair(1.7e308, 1.0), 1000, seed=3)
        assert abs(est.estimate - 1.0) <= 5.0 * est.std_error


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
    def unit_draws(rates, n, seed):
        """n unit-scale samples t from one generator: the lambda_hi block at rate
        lambda_hi/lambda_lo first, then the lambda_lo block at rate 1."""
        hi, lo = RatePair(*rates)
        rng = np.random.default_rng(seed)
        return exponential_draws(rng, n, hi / lo) + exponential_draws(rng, n, 1.0)

    @classmethod
    def one_shot_values(cls, rates, n, seed):
        """t - ln k at the n samples of ``unit_draws``."""
        t, k = dist._unit_kernel(RatePair(*rates), cls.unit_draws(rates, n, seed), 1.0)
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

    def plant_zeros(self, monkeypatch, n, samples, rates=(3.0, 2.0), seed=5):
        """Make ``dist._unit_kernel`` return k = 0 at the given global samples, found by
        their draws of t, so in whatever order the stripes call it; returns the list to
        which each call appends the global index of its first sample."""
        t_all = self.unit_draws(rates, n, seed)
        index = {t: i for i, t in enumerate(t_all.tolist())}
        assert len(index) == n  # every draw names one sample
        targets = t_all[samples]
        firsts = []
        kernel = dist._unit_kernel

        def planted(*args):
            t, k = kernel(*args)
            firsts.append(index[float(t[0])])
            k[np.isin(t, targets)] = 0.0
            return t, k

        monkeypatch.setattr(dist, "_unit_kernel", planted)
        return firsts

    def test_non_finite_value_in_a_later_chunk_names_its_global_index(self, monkeypatch):
        firsts = self.plant_zeros(monkeypatch, 6 * MC_CHUNK, [MC_CHUNK + 7])
        # with two stripes, chunks 0-2 are the calling thread's and 3-5 the pool thread's;
        # the failing chunk 1 is the calling thread's last, which never reaches chunk 2. The
        # pool thread is held in chunk 3 until the failure sets the stripes' stop event, and
        # runs no chunk after it
        planted, stripe, stops = dist._unit_kernel, oracle._mc_stripe, []

        def held(*args):
            if threading.current_thread() is not threading.main_thread():
                assert stops[-1].wait(10.0)  # this call's event, as both stripes record it
            return planted(*args)

        def recording(*args):
            stops.append(args[-1])
            return stripe(*args)

        monkeypatch.setattr(dist, "_unit_kernel", held)
        monkeypatch.setattr(oracle, "_mc_stripe", recording)
        for cores, chunks_run in ((1, [0, 1]), (2, [0, 1, 3])):
            monkeypatch.setattr(oracle, "_usable_cores", lambda: cores)
            firsts.clear()
            with pytest.raises(FloatingPointError) as info:
                entropy_monte_carlo(RatePair(3.0, 2.0), 6 * MC_CHUNK, seed=5)
            assert f"at sample {MC_CHUNK + 7} " in str(info.value)
            half = MC_CHUNK // 2
            assert sorted(firsts) == [c * MC_CHUNK + h for c in chunks_run for h in (0, half)]

    @pytest.mark.parametrize(
        "samples", [[MC_CHUNK + 7, 4 * MC_CHUNK + 3], [3 * MC_CHUNK + 3, 2 * MC_CHUNK + 9]]
    )
    def test_non_finite_values_in_both_stripes_name_the_lower_index(self, monkeypatch, samples):
        # in the second case the pool thread fails at its first chunk and the
        # calling thread at its last
        monkeypatch.setattr(oracle, "_usable_cores", lambda: 2)
        self.plant_zeros(monkeypatch, 6 * MC_CHUNK, samples)
        with pytest.raises(FloatingPointError) as info:
            entropy_monte_carlo(RatePair(3.0, 2.0), 6 * MC_CHUNK, seed=5)
        assert f"at sample {min(samples)} " in str(info.value)

    @pytest.mark.parametrize("samples", [[4 * MC_CHUNK + 3], [4 * MC_CHUNK + 3, MC_CHUNK + 7]])
    def test_a_thread_that_cannot_start_still_names_the_lower_index(self, monkeypatch, samples):
        # the calling thread runs the second stripe after the first
        monkeypatch.setattr(oracle, "_usable_cores", lambda: 2)
        monkeypatch.setattr(threading.Thread, "start", self.refuse)
        self.plant_zeros(monkeypatch, 6 * MC_CHUNK, samples)
        with pytest.raises(FloatingPointError) as info:
            entropy_monte_carlo(RatePair(3.0, 2.0), 6 * MC_CHUNK, seed=5)
        assert f"at sample {min(samples)} " in str(info.value)

    @pytest.mark.parametrize("samples", [[7], [4 * MC_CHUNK + 3]])
    def test_no_thread_outlives_a_failure(self, monkeypatch, samples):
        # at sample 7 the calling thread raises while the pool thread has its three chunks to run
        monkeypatch.setattr(oracle, "_usable_cores", lambda: 2)
        started = self.record_starts(monkeypatch)
        self.plant_zeros(monkeypatch, 6 * MC_CHUNK, samples)
        with pytest.raises(FloatingPointError, match=f"at sample {samples[0]} "):
            entropy_monte_carlo(RatePair(3.0, 2.0), 6 * MC_CHUNK, seed=5)
        assert len(started) == 1
        assert not started[0].is_alive()

    @staticmethod
    def refuse(thread):
        raise RuntimeError("can't start new thread")

    @staticmethod
    def record_starts(monkeypatch):
        """Record each thread started from here on; returns the list of them."""
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        return started

    @staticmethod
    def hex_by_cores(monkeypatch, rates, n, seed, cores):
        monkeypatch.setattr(oracle, "_usable_cores", lambda: cores)
        est = entropy_monte_carlo(RatePair(*rates), n, seed)
        return est.estimate.hex(), est.std_error.hex()

    @pytest.mark.parametrize("n", [MC_CHUNK + 1, 3 * MC_CHUNK + 5, 10**6])
    @pytest.mark.parametrize("rates", [(5.0, 0.3), (2.0, 2.0)])
    def test_stripe_count_changes_no_bit(self, monkeypatch, n, rates):
        one, two = (self.hex_by_cores(monkeypatch, rates, n, 7, cores) for cores in (1, 64))
        assert one == two

    def test_stripe_count_changes_no_bit_over_many_chunks(self, monkeypatch):
        # 6,251 chunks of 16 samples, their results written by both threads at once,
        # with the interpreter switching threads every microsecond
        monkeypatch.setattr(oracle, "MC_CHUNK", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            one, two = (self.hex_by_cores(monkeypatch, (5.0, 0.3), 10**5 + 5, 3, cores)
                        for cores in (1, 2))
        finally:
            sys.setswitchinterval(interval)
        assert one == two

    def test_a_thread_is_started_only_for_two_chunks_and_two_cores(self, monkeypatch):
        started = self.record_starts(monkeypatch)
        self.hex_by_cores(monkeypatch, (2.0, 1.0), MC_CHUNK, 1, 2)
        self.hex_by_cores(monkeypatch, (2.0, 1.0), MC_CHUNK + 1, 1, 1)
        assert started == []
        self.hex_by_cores(monkeypatch, (2.0, 1.0), MC_CHUNK + 1, 1, 2)
        assert len(started) == 1
        assert not started[0].is_alive()  # joined before the estimate returns

    def test_a_thread_that_cannot_start_changes_no_bit(self, monkeypatch):
        expected = self.hex_by_cores(monkeypatch, (5.0, 0.3), 3 * MC_CHUNK + 5, 7, 2)
        monkeypatch.setattr(threading.Thread, "start", self.refuse)
        assert self.hex_by_cores(monkeypatch, (5.0, 0.3), 3 * MC_CHUNK + 5, 7, 2) == expected


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

    @pytest.mark.parametrize("kernel", [None, "Haswell", "Sandybridge", "Prescott"])
    def test_tolerance_below_double_resolution_raises_on_every_blas_kernel(self, kernel):
        # under Prescott K and G round to one double on some panel, so |K - G| alone
        # reads 0 there; the round-off floor keeps every panel's estimate above 1e-30
        script = """
from expsum.oracle import ConvergenceError, gr_log_integral
try:
    print(gr_log_integral(1.0, 1.0, abs_tol=1e-30))
except ConvergenceError:
    print("raised")
"""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(pathlib.Path(oracle.__file__).resolve().parent.parent)
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised"

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

    def test_relative_error_is_at_most_abs_tol(self, mp):
        """abs_tol bounds the error of J, the integral in the scale s = max(u, v) x,
        and |J| >= 1, so the value's relative error is at most about abs_tol. Rates
        1e-6 to 1e6, each pair as (lo, hi) and as (hi, lo)."""
        tol = 1e-10
        worst = (0.0,)
        for cls, a, b in seeded_pairs(20161121, 100):
            for u, v in ((a, b), (b, a)):
                exact = mp_log_integral(mp, u, v)
                err = float(abs(gr_log_integral(u, v, abs_tol=tol) - exact) / abs(exact))
                worst = max(worst, (err, cls, u, v))
        assert worst[0] <= tol, worst


class TestScaleEquivariance:
    """Both rates scaled by 2^k. The unit-scale integrands depend on the pair only through
    (hi - lo)/lo and hi/(hi - lo), and ``gr_log_integral`` only through u/c and v/c, each
    exact under the scaling wherever every input and value stays normal."""

    @staticmethod
    def scaled_cases():
        """(rates, scaled rates, k) for 60 seeded pairs of each class, rates in [1e-6, 1e6],
        k drawn from [-900, 900] with both ends included: every scaled rate is normal."""
        pairs = seeded_pairs(18, 60)
        ks = np.random.default_rng(18).integers(-900, 901, len(pairs)).tolist()
        ks[:2] = [-900, 900]
        cases = []
        for (_, lo, hi), k in zip(pairs, ks):
            scaled = RatePair(math.ldexp(hi, k), math.ldexp(lo, k))
            assert sys.float_info.min <= scaled.lambda_lo <= scaled.lambda_hi < math.inf
            cases.append((RatePair(hi, lo), scaled, k))
        return cases

    def test_unit_scale_integrals_keep_every_bit(self):
        for rates, scaled, _ in self.scaled_cases():
            for integral in (lambda r: oracle._adaptive(oracle._entropy_integrand(r), 1e-10),
                             normalization_quadrature):
                assert integral(scaled).hex() == integral(rates).hex()

    def test_log_integral_scales_by_exactly_2_to_the_minus_k(self):
        for (hi, lo), (scaled_hi, scaled_lo), k in self.scaled_cases():
            for u, v, scaled_u, scaled_v in ((lo, hi, scaled_lo, scaled_hi),
                                             (hi, lo, scaled_hi, scaled_lo)):
                value = gr_log_integral(scaled_u, scaled_v)
                assert sys.float_info.min <= abs(value) < math.inf
                assert value.hex() == math.ldexp(gr_log_integral(u, v), -k).hex()

    def test_entropy_quadrature_shifts_by_minus_k_ln_2(self):
        # -ln lambda_lo takes the shift, with a rounding or two of the largest term
        for rates, scaled, k in self.scaled_cases():
            h, shift = entropy_quadrature(rates), k * math.log(2.0)
            h_scaled = entropy_quadrature(scaled)
            assert abs(h_scaled - (h - shift)) <= 4 * math.ulp(max(abs(h), abs(shift), abs(h_scaled)))

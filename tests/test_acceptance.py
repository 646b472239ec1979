"""Acceptance gate: ten criteria, one printed pass/fail line each.

Tolerances are pinned here and nowhere loosened: closed-vs-quadrature
1e-8, analytic spot values 1e-12, Erlang limit 2*eps, figure bounds as
stated, Monte-Carlo 5 standard errors, runtime caps 10 s and 30 s.
"""

import math
import time

import numpy as np

from conftest import record_acceptance
from expsum.cli import main
from expsum.dist import RatePair
from expsum.entropy import (
    cond_entropy_light,
    erlang2_entropy,
    hypoexp_entropy,
    mutual_info_aen,
)
from expsum.oracle import entropy_monte_carlo, entropy_quadrature, gr_log_integral
from expsum.specfun import EULER_GAMMA, digamma


def check(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc} {detail}".rstrip()
    record_acceptance(num, desc, ok, detail)
    print(line)
    assert ok, line


GRID = [float(g) for g in np.geomspace(0.1, 10.0, 7)]


def test_criterion_01_closed_form_agrees_with_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for a in GRID:
        for b in GRID:
            if a == b:
                continue
            d = RatePair(a, b)
            dev = abs(entropy_quadrature(d) - hypoexp_entropy(d))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    check(
        1,
        "closed form vs quadrature, 7x7 grid, tol 1e-8",
        worst <= 1e-8 and elapsed <= 10.0,
        f"(max dev {worst:.3e}, {elapsed:.2f} s)",
    )


def test_criterion_02_analytic_spot_values():
    dev21 = abs(hypoexp_entropy(RatePair(2.0, 1.0)) - (2.0 - math.log(2.0)))
    dev31 = abs(hypoexp_entropy(RatePair(3.0, 1.0)) - (3.0 - math.log(6.0)))
    check(
        2,
        "spot values 2 - ln 2 and 3 - ln 6, tol 1e-12",
        dev21 <= 1e-12 and dev31 <= 1e-12,
        f"(devs {dev21:.3e}, {dev31:.3e})",
    )


def test_criterion_03_erlang_limit_continuity():
    worst_ratio = 0.0
    finite = True
    for lam in (0.5, 1.0, 3.0):
        for eps in (1e-4, 1e-6, 1e-8, 1e-10):
            value = hypoexp_entropy(RatePair(lam * (1.0 + eps), lam))
            finite = finite and math.isfinite(value)
            dev = abs(value - erlang2_entropy(lam))
            worst_ratio = max(worst_ratio, dev / (2.0 * eps))
    check(
        3,
        "Erlang-2 limit within 2*eps down to eps = 1e-10",
        finite and worst_ratio <= 1.0,
        f"(worst dev / 2 eps = {worst_ratio:.3f})",
    )


def test_criterion_04_figure_two_reproduction(tmp_path):
    out_path = tmp_path / "fig2.csv"
    code = main(["figure", "fig2", "--grid-points", "40", "--out", str(out_path)])
    lines = out_path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    values = {float(r[0]): float(r[3]) for r in rows}
    below_bound = all(v < 1.0 for v in values.values())
    touch_dev = abs(values[2.0] - (1.0 + EULER_GAMMA - math.log(2.0)))
    ends_high = values[1.01] > 0.93 and values[100.0] > 0.93
    check(
        4,
        "figure 2: below 1 nat, touch at lambda = 2, ends above 0.93",
        code == 0 and below_bound and touch_dev <= 1e-12 and ends_high,
        f"(touch dev {touch_dev:.3e}, ends {values[1.01]:.4f}/{values[100.0]:.4f})",
    )


def test_criterion_05_mutual_information():
    worst_ident = 0.0
    positive = True
    for x in GRID:
        for w in GRID:
            mi = mutual_info_aen(x, w)
            positive = positive and mi > 0.0
            if w > x:
                direct = EULER_GAMMA + math.log((w - x) / x) + digamma(w / (w - x))
                worst_ident = max(worst_ident, abs(direct - mi))
    dev_one = abs(mutual_info_aen(1.0, 2.0) - 1.0)
    check(
        5,
        "mutual information: identity 1e-12, mi(1,2) = 1, positive",
        worst_ident <= 1e-12 and dev_one <= 1e-12 and positive,
        f"(identity dev {worst_ident:.3e}, mi(1,2) dev {dev_one:.3e})",
    )


def test_criterion_06_conditional_entropy_mixture():
    value = cond_entropy_light(lambda_x=1.0, lambda_w_on=2.0, lambda_w_off=0.5, p_on=0.5)
    quad_mix = 0.5 * entropy_quadrature(RatePair(1.0, 2.0)) + (
        0.5 * entropy_quadrature(RatePair(1.0, 0.5))
    )
    dev_quad = abs(value - quad_mix)
    dev_closed = abs(value - (2.0 - math.log(2.0) / 2.0))
    check(
        6,
        "conditional entropy mixture vs per-branch quadrature, tol 1e-10",
        dev_quad <= 1e-10 and dev_closed <= 1e-10,
        f"(quad dev {dev_quad:.3e}, closed dev {dev_closed:.3e})",
    )


def test_criterion_07_log_integral_identity():
    worst = 0.0
    for u in (0.5, 1.0, 2.0, 5.0):
        for v in (0.5, 1.0, 2.0, 5.0):
            closed = -(EULER_GAMMA + digamma(u / v + 1.0)) / u
            worst = max(worst, abs(gr_log_integral(u, v) - closed))
    dev_unit = abs(gr_log_integral(1.0, 1.0) + 1.0)
    check(
        7,
        "log-integral identity on 16 pairs, tol 1e-8; -1 at (1,1)",
        worst <= 1e-8 and dev_unit <= 1e-10,
        f"(max dev {worst:.3e}, unit dev {dev_unit:.3e})",
    )


def test_criterion_08_monte_carlo_bands():
    start = time.perf_counter()
    worst_z = 0.0
    for a, b in ((2.0, 1.0), (10.0, 0.3), (1.01, 1.0)):
        d = RatePair(a, b)
        closed = hypoexp_entropy(d)
        for seed in range(42, 47):
            est = entropy_monte_carlo(d, 10**5, seed)
            worst_z = max(worst_z, abs(est.estimate - closed) / est.std_error)
    elapsed = time.perf_counter() - start
    check(
        8,
        "Monte-Carlo bands: 3 pairs x 5 seeds within 5 std errors",
        worst_z <= 5.0 and elapsed <= 30.0,
        f"(max |z| {worst_z:.2f}, {elapsed:.2f} s)",
    )


def test_criterion_09_special_function_oracles():
    worst_int = 0.0
    for n in range(1, 21):
        oracle = -EULER_GAMMA + math.fsum(1.0 / k for k in range(1, n))
        worst_int = max(worst_int, abs(digamma(float(n)) - oracle))
    worst_rec = 0.0
    for x in np.geomspace(1e-3, 1e6, 181):
        x = float(x)
        worst_rec = max(worst_rec, abs(digamma(x + 1.0) - digamma(x) - 1.0 / x))
    check(
        9,
        "digamma: integer oracle 1e-12, recurrence residual 1e-11",
        worst_int <= 1e-12 and worst_rec <= 1e-11,
        f"(integer dev {worst_int:.3e}, recurrence dev {worst_rec:.3e})",
    )


def test_criterion_10_determinism(tmp_path):
    byte_identical = True
    for fig in ("fig1", "fig2"):
        paths = [tmp_path / f"{fig}_{i}.csv" for i in (0, 1)]
        for path in paths:
            assert main(["figure", fig, "--grid-points", "25", "--out", str(path)]) == 0
        byte_identical = byte_identical and (
            paths[0].read_bytes() == paths[1].read_bytes()
        )
    d = RatePair(2.0, 1.0)
    mc_identical = entropy_monte_carlo(d, 50_000, 42) == entropy_monte_carlo(
        d, 50_000, 42
    )
    check(
        10,
        "byte-identical figure reruns and bit-identical seeded estimates",
        byte_identical and mc_identical,
    )

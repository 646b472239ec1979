"""Reference values at 40 digits and the per-operation checker.

Run as a script, it checks one figure output file:

    python benchmarks/check.py <fig1|fig2> <csv|json> <file> <grid points>

mpmath is used here only, never by the package. Every reference is
computed from the exact doubles the package received, outside the timed
region. Tolerances are the package's documented ones: 1e-8 for
quadrature against the closed form, 1e-10 for normalization, 1e-8 for
the log-integral and |z| <= 5 for Monte Carlo. Closed-form values (the
CLI and the figure data) are held to 1e-12, the tolerance of the
acceptance gate's analytic spot values.
"""

from __future__ import annotations

import collections
import json
import math
import sys

import mpmath as mp

mp.mp.dps = 40

CLOSED_TOL = 1e-12
QUAD_TOL = 1e-8
NORM_TOL = 1e-10
GR_TOL = 1e-8
MC_Z = 5.0


def entropy_ref(rate_a: float, rate_b: float):
    """h(W + X) for exponential rates a and b, as an mpf."""
    hi, lo = mp.mpf(max(rate_a, rate_b)), mp.mpf(min(rate_a, rate_b))
    if hi == lo:
        return 1 + mp.euler - mp.log(lo)
    r = hi / (hi - lo)
    return 1 + mp.euler - mp.log(lo) + mp.digamma(r) - mp.log(r)


def exp_entropy_ref(lam: float):
    return 1 - mp.log(mp.mpf(lam))


def erlang2_entropy_ref(lam: float):
    return 1 + mp.euler - mp.log(mp.mpf(lam))


def mi_ref(signal_rate: float, noise_rate: float):
    return entropy_ref(signal_rate, noise_rate) - exp_entropy_ref(noise_rate)


def gr_ref(u: float, v: float):
    """Closed form of int_0^inf exp(-u x) ln(1 - exp(-v x)) dx."""
    u, v = mp.mpf(u), mp.mpf(v)
    return -(mp.euler + mp.digamma(u / v + 1)) / u


class Checker:
    """Tallies operations and their failures by class.

    A failure class is ``(operation, kind)`` where kind is ``wrong_value``,
    ``nonzero_exit`` or the name of the exception raised. No failure
    stops the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = collections.Counter()
        self.max_abs_err = 0.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, op: str, ok: bool, kind: str = "wrong_value") -> bool:
        self.attempted += 1
        if not ok:
            self.failures[(op, kind)] += 1
        return ok

    def value(self, op: str, got: float, ref, tol: float) -> bool:
        """Check one value against its reference; True when within ``tol``."""
        return self.values(op, [(got, ref)], tol)

    def values(self, op: str, pairs, tol: float) -> bool:
        """Check the outputs of one operation; it fails if any is off.

        A non-finite output fails without entering ``max_abs_err``.
        """
        ok = True
        for got, ref in pairs:
            if not math.isfinite(got):
                ok = False
                continue
            err = float(abs(mp.mpf(got) - ref))
            self.max_abs_err = max(self.max_abs_err, err)
            ok = ok and err <= tol
        return self.record(op, ok)

    def z_score(self, op: str, estimate: float, std_error: float, ref) -> bool:
        """Check a Monte-Carlo estimate: |estimate - ref| <= MC_Z std errors."""
        if not (math.isfinite(estimate) and math.isfinite(std_error) and std_error > 0):
            return self.record(op, False)
        err = float(abs(mp.mpf(estimate) - ref))
        self.max_abs_err = max(self.max_abs_err, err)
        return self.record(op, err <= MC_Z * std_error)


def _figure_rows(fmt: str, content: str):
    if fmt == "json":
        return json.loads(content)
    lines = content.split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


def _figure_pairs(fig: str, rows):
    """(value, reference) for every number a figure data set must get right."""
    if fig == "fig1":
        for row in rows:
            lx = float(row["lambda_x"])
            if row["curve"] == "hypoexp":
                ref = entropy_ref(float(row["lambda_w"]), lx)
            elif row["curve"] == "erlang2":
                ref = erlang2_entropy_ref(lx)
            else:
                ref = exp_entropy_ref(lx)
            yield float(row["entropy_nats"]), ref
        return
    ref_exp, ref_erlang2 = exp_entropy_ref(1.0), erlang2_entropy_ref(2.0)
    for row in rows:
        yield float(row["entropy_nats"]), entropy_ref(float(row["lambda_x"]), float(row["lambda_w"]))
        yield float(row["reference_exp"]), ref_exp
        yield float(row["reference_erlang2"]), ref_erlang2


def check_figure(fig: str, fmt: str, path: str, grid_points: int) -> dict:
    """Verdict on one figure output file: ok, row count and largest error.

    fig1 has twelve curves of ``grid_points`` rows; fig2 has ``grid_points``
    rows, plus one when lambda = 2 is not on the grid.
    """
    expected = (12 * grid_points,) if fig == "fig1" else (grid_points, grid_points + 1)
    checker = Checker()
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            rows = _figure_rows(fmt, fh.read())
        if len(rows) in expected:
            checker.values(fig, _figure_pairs(fig, rows), CLOSED_TOL)
        else:
            checker.record(fig, False)
    except (KeyError, TypeError, ValueError):  # malformed output
        checker.record(fig, False)
    return {"ok": checker.failed == 0, "rows": len(rows), "max_abs_err": checker.max_abs_err}


if __name__ == "__main__":
    # python benchmarks/check.py <fig1|fig2> <csv|json> <file> <grid points>
    print(json.dumps(check_figure(sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]))))

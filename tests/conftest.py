"""Shared test plumbing: collects acceptance results and prints one
pass/fail line per criterion at the end of the run, and holds the mpmath
reference shared by the accuracy tests."""

import math

import pytest

ACCEPTANCE_RESULTS = []


def record_acceptance(num, desc, ok, detail=""):
    ACCEPTANCE_RESULTS.append((num, desc, bool(ok), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, desc, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        suffix = f" {detail}" if detail else ""
        terminalreporter.write_line(f"ACCEPTANCE {num:2d} [{status}] {desc}{suffix}")


@pytest.fixture
def mp():
    """mpmath at 40 significant digits for the duration of the test; the
    test is skipped where mpmath is not installed."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def mp_entropy(mp, rate_a, rate_b):
    """h(W + X) at the exact binary rates, as an mpmath number:
    1 + gamma - ln lambda_lo + psi(r) - ln r, or 1 + gamma - ln lambda at
    equal rates."""
    hi, lo = mp.mpf(max(rate_a, rate_b)), mp.mpf(min(rate_a, rate_b))
    h = 1 + mp.euler - mp.log(lo)
    if hi != lo:
        r = hi / (hi - lo)
        h += mp.digamma(r) - mp.log(r)
    return h


def mp_log_integral(mp, u, v):
    """int_0^inf e^(-ux) ln(1 - e^(-vx)) dx = -(gamma + psi(u/v + 1))/u at the
    exact binary u and v, as an mpmath number. Where u < v the precision
    grows by log10(v/u) digits, since gamma + psi(1 + u/v) cancels to about
    zeta(2) u/v, which 1 + u/v must still hold; rounded up to a multiple of
    100, so that few precisions recompute mpmath's Bernoulli numbers."""
    u, v = mp.mpf(u), mp.mpf(v)
    with mp.extradps(max(0, 100 * math.ceil(mp.log10(v / u) / 100))):
        return -(mp.euler + mp.digamma(u / v + 1)) / u

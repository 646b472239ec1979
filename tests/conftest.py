"""Shared test plumbing: reports numpy's SIMD dispatch and OpenBLAS core in the
header, collects acceptance results and prints one pass/fail line per criterion
at the end of the run, and holds the mpmath reference shared by the accuracy
tests."""

import math

import pytest

ACCEPTANCE_RESULTS = []


def record_acceptance(num, desc, ok, detail=""):
    ACCEPTANCE_RESULTS.append((num, desc, bool(ok), detail))


def openblas_core():
    """The core OpenBLAS picked at run time, as numpy's bundled OpenBLAS names it, or
    "unavailable" where that library or its probe is missing."""
    import ctypes
    import glob
    import os

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    except (IndexError, OSError, AttributeError):  # no such library, or no probe in it
        return "unavailable"


def pytest_report_header(config):
    """numpy's version, the SIMD targets it dispatches to and the OpenBLAS core picked at
    run time: numpy's exp, log, expm1, log1p and geomspace, and so the quadrature and figure
    bit goldens, depend on the dispatch; CI checks that they do not depend on the core."""
    import numpy as np

    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return (
        f"numpy {np.__version__}, SIMD dispatch: {' '.join(found) or 'baseline only'}, "
        f"OpenBLAS core: {openblas_core()}; bit goldens recorded with X86_V4 (AVX-512)"
    )


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

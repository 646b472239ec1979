"""The two-phase hypoexponential distribution of a sum of two exponentials.

Every function here takes the law of Y = W + X, for independent
exponentials W and X, as the ``RatePair`` of their rates. With ordered
rates lambda_hi >= lambda_lo and gap = lambda_hi - lambda_lo, the density is

    f(y) = lambda_hi * lambda_lo * exp(-lambda_lo * y) * E(gap, y),   y >= 0,

where E(gap, y) = (1 - exp(-gap * y)) / gap = int_0^y exp(-gap * s) ds is
computed with expm1 and equals y at gap = 0. This one form is the
familiar difference of exponentials for distinct rates and the Erlang-2
density at equal rates, with no cancellation and no switch between the
two, however small the gap. In the unit scale t = lambda_lo y it reads
f = lambda_lo e^(-t) k with k = lambda_hi E, the kernel that the pdf, the
CDF, both quadratures and Monte Carlo share.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .specfun import _require_positive

_DBL_MAX = 1.7976931348623157e308


def _ret(out, arr):
    """``out``, as a float when the input array ``arr`` is 0-d."""
    return float(out) if arr.ndim == 0 else out


class RatePair(namedtuple("RatePair", "lambda_hi lambda_lo")):
    """A validated pair of exponential rates, stored largest first.

    The distribution of a sum does not depend on the order of its
    summands, so the constructor canonicalizes: ``RatePair(1, 2)`` and
    ``RatePair(2, 1)`` are equal and behave identically everywhere.
    """

    __slots__ = ()

    def __new__(cls, lambda_hi: float, lambda_lo: float):
        hi = _require_positive(lambda_hi, "lambda_hi")
        lo = _require_positive(lambda_lo, "lambda_lo")
        if hi < lo:
            hi, lo = lo, hi
        return super().__new__(cls, hi, lo)

    @classmethod
    def _make(cls, iterable):
        """Through ``__new__``, so ``_make`` and ``_replace`` check the rates."""
        return cls(*iterable)


def HypoexpTwo(rates: RatePair) -> RatePair:
    """Return ``rates``; not exported. ``benchmarks/workloads.py`` and
    ``benchmarks/setup_probe.py`` call ``HypoexpTwo(RatePair(hi, lo))`` and change
    only in benchmark-only commits; delete this once they call ``RatePair``."""
    return rates


def _unit_kernel(rates: RatePair, x, scale, out=None):
    """(t, k) of the module docstring's unit scale, t = scale x and k = lambda_hi E.
    ``scale`` is lambda_lo where x is y (pdf, CDF), and 1.0 where x is t (quadratures,
    Monte Carlo) and is returned as t. d = gap y is formed as x (gap/(lambda_lo/scale)):
    that divisor is exactly 1.0 or lambda_lo, so the factor takes one rounding, and
    t/lambda_lo, which overflows where t does, is never formed. k = r (1 - e^(-d)) with
    r = lambda_hi/gap <= 2^53, or t at gap = 0, where d is not formed and t is capped at
    DBL_MAX, so that e^(-t) k is 0, not 0 * inf, at t = +inf. t or d overflowing to +inf
    is exact here; the caller suppresses numpy's overflow warning, the quadratures once
    per quadrature. k is written into ``out``, which must not share memory with ``x``,
    when given.
    """
    import numpy as np

    hi, lo = rates
    t = x if scale == 1.0 else scale * x
    if hi == lo:
        k = np.minimum(t, _DBL_MAX, out=out)
    else:
        k = np.expm1(np.multiply(x, -((hi - lo) / (lo / scale)), out=out), out=out)
        k = np.multiply(k, -(hi / (hi - lo)), out=out)
    return t, k


def hypoexp_pdf(rates: RatePair, y):
    """Density of the sum at ``y`` (scalar or array); 0 for y < 0.

    lambda_lo (e^(-t) k): the bracket is at most max(1/e, r), so nothing overflows,
    and lambda_lo E, which underflows for ratios of rates past DBL_MAX, is never formed.
    So that a normal pdf keeps its precision, k is lambda_hi y where d = gap y is
    subnormal, and past t = 708, where e^(-t) is subnormal, lambda_lo e^(-t) is formed
    as e^(ln lambda_lo - t) where lambda_lo > 1.
    """
    import numpy as np

    hi, lo = rates
    arr = np.asarray(y, dtype=float)
    y_pos = np.maximum(arr, 0.0)
    with np.errstate(over="ignore"):  # t, d and gap y overflowing to +inf are exact
        t, k = _unit_kernel(rates, y_pos, lo)
        if hi > lo:  # where d is subnormal, 1 - e^(-d) = d: k = lambda_hi y, not r d rounded
            k = np.where(y_pos * (hi - lo) < 2.0**-1022, hi * y_pos, k)
    pdf = lo * (np.exp(-t) * k)
    if lo > 1.0:  # e^(ln lambda_lo - t) <= e^1.8 at t >= 708: no overflow where it is dropped
        pdf = np.where(t > 708.0, np.exp(math.log(lo) - np.maximum(t, 708.0)) * k, pdf)
    return _ret(np.where(arr < 0.0, 0.0, pdf), arr)


def hypoexp_cdf(rates: RatePair, y):
    """Cumulative distribution of the sum at ``y``; 0 for y < 0, -> 1 as y grows.

    1 - e^(-t) (1 + lambda_lo E), arranged as -expm1(-t) - (lambda_lo/lambda_hi) e^(-t) k,
    whose error near y = 0 shrinks with y instead of staying at one ulp of 1.
    """
    import numpy as np

    hi, lo = rates
    arr = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):  # t and d overflowing to +inf are exact
        t, k = _unit_kernel(rates, np.maximum(arr, 0.0), lo)
    val = np.clip(-np.expm1(-t) - lo / hi * (np.exp(-t) * k), 0.0, 1.0)
    return _ret(np.where(arr < 0.0, 0.0, val), arr)


def exponential_draws(rng: numpy.random.Generator, n: int, rate: float, out=None):
    """n inverse-CDF exponential draws, -log(1 - U)/rate, from the next n
    uniforms U on [0, 1) of ``rng``, written into ``out`` (n floats) when given.

    Taken as log1p(-U)/(-rate), which negation and round-to-nearest make
    bit-identical to -log1p(-U)/rate.
    """
    import numpy as np

    u = np.negative(rng.random(n, out=out), out=out)
    return np.divide(np.log1p(u, out=out), -rate, out=out)


"""Digamma-family special functions, self-contained.

Only the small slice of special-function machinery the entropy formulas
need: the Euler-Mascheroni constant, the digamma function psi(x) for
positive real arguments, and the combination psi(x) - ln(x) evaluated
without cancellation.

Algorithm: arguments below a shift threshold of 10 are raised with the
recurrence psi(x) = psi(x+1) - 1/x, then the asymptotic expansion

    psi(x) - ln(x) ~ -w/2 - sum_{n>=1} B_{2n} w^{2n} / (2n),   w = 1/x,

is applied, truncated after the w^14 term and evaluated by Horner in w^2.
``_series_tail`` takes w itself, so a caller that holds w = 1/x more
accurately than x (the entropy closed form does) passes it directly; at
w = 0 the series is exactly zero. Against mpmath at 40 digits the
truncation error is largest where the series starts, at x = 10, where it
is 4.2e-17.

``_digamma_minus_log_array`` takes the same steps over a numpy array of
arguments x >= 1, bit for bit; numpy is imported inside it only.
"""

from __future__ import annotations

import math

#: Euler-Mascheroni constant, lim_{n->inf} (H_n - ln n), to double precision.
EULER_GAMMA = 0.5772156649015329

_SHIFT_THRESHOLD = 10.0

# Coefficients B_{2n}/(2n) for n = 1..7, i.e. the w^2 .. w^14 terms of
# the asymptotic expansion of psi(x) - ln(x) + w/2 in w = 1/x.
_ASYMPTOTIC = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


# Coefficients zeta(k+1) - 1/k for k = 1..25: the Taylor series
# gamma + psi(1 + e) - ln(1 + e) = sum_k (-1)^(k+1) (zeta(k+1) - 1/k) e^k.
# Against mpmath at 50 digits, 25 terms leave a truncation error of at most
# 5.1e-18 relative for e <= 1/5, below the rounding error (17 leave 2e-12).
_NEAR_ONE = (
    0.6449340668482264,
    0.7020569031595942,
    0.7489899003778049,
    0.7869277551433699,
    0.8173430619844492,
    0.8416826107152562,
    0.8612202133408015,
    0.8770083928260822,
    0.8898834640167069,
    0.9004941886041194,
    0.9093369956442171,
    0.9167893800142451,
    0.9231381712119818,
    0.9286020168077356,
    0.933348615592742,
    0.9375076371976379,
    0.9411802878815003,
    0.944446352657161,
    0.9473693750146654,
    0.9500004769329868,
    0.9523811908314551,
    0.9545455737653805,
    0.9565217987386239,
    0.9583333631368368,
    0.9600000149015548,
)


def _require_positive(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")
    return x


def _series_tail(w):
    """psi(1/w) - ln(1/w) for 0 <= w <= 1/10, by the asymptotic series in w.

    Never forms psi and ln separately, so the returned difference carries
    full relative accuracy however small w gets, and is exactly zero (as
    -0.0) at w = 0. Takes a float or a float array, elementwise.
    """
    z = w * w
    s = 0.0
    for coeff in reversed(_ASYMPTOTIC):
        s = (s + coeff) * z
    return -0.5 * w - s


def _near_one_tail(e: float) -> float:
    """gamma + psi(1 + e) - ln(1 + e) for 0 <= e <= 1/5, by its Taylor series.

    The value vanishes like 0.645 e, and the series carries full relative
    accuracy down to the smallest e, where gamma + psi(1/w) - ln(1/w) at
    w = 1/(1 + e) cancels to an absolute error of about 2e-16.
    """
    s = 0.0
    for coeff in reversed(_NEAR_ONE):
        s = coeff - e * s
    return e * s


def _shift(x: float):
    """(acc, y) with psi(x) = acc + psi(y) and y >= the shift threshold, by
    the recurrence psi(x) = psi(x + 1) - 1/x; (0.0, x) from the threshold on."""
    acc = 0.0
    while x < _SHIFT_THRESHOLD:
        acc -= 1.0 / x
        x += 1.0
    return acc, x


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x) for x > 0.

    Absolute error is at or below 1e-12 for x in [1e-3, 1e12].

    Raises ValueError for nonpositive, NaN, or infinite arguments.
    """
    acc, y = _shift(_require_positive(x, "x"))
    return acc + math.log(y) + _series_tail(1.0 / y)


def digamma_minus_log(x: float) -> float:
    """psi(x) - ln(x), computed without catastrophic cancellation.

    For x at or above the shift threshold the value is exactly
    ``_series_tail(1/x)`` = -1/(2x) - 1/(12x^2) + ..., so the tiny difference
    is never formed by subtracting two near-equal numbers; relative error
    of the returned difference stays below 1e-10 however large x gets.
    Below the threshold the difference is order one and the recurrence
    path is used with the log folded in analytically.
    """
    x = _require_positive(x, "x")
    acc, y = _shift(x)
    # psi(x) - ln x = psi(y) - sum 1/(x+k) - ln x, and psi(y) = ln y + tail(y)
    return acc + _log_ratio(y, x) + _series_tail(1.0 / y)


def _log_ratio(y: float, x: float) -> float:
    """ln(y/x), as ln y - ln x where y/x overflows (x below about 6/DBL_MAX).

    For x below 1/DBL_MAX the recurrence's first step is already -inf,
    which is then the value returned: psi(x) - ln x is below -DBL_MAX.
    """
    ratio = y / x
    return math.log(ratio) if ratio != math.inf else math.log(y) - math.log(x)


def log_each(x):
    """math.log of every element of the float array ``x``, as an array.

    ``np.log`` is not used: on an AVX-512 x86-64 CPU with numpy 2.4.6 it
    differs from ``math.log`` in the last bit on 279 of 2.2e6 log-uniform
    doubles in [e^-30, e^30], and on 3 of the 2000 points of
    ``geomspace(0.01, 2, 2000)``, while the array forms here must equal
    the scalar forms bit for bit.
    """
    import numpy as np

    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)


def _digamma_minus_log_array(x):
    """``digamma_minus_log`` of each element of the float array x >= 1, bit
    for bit: each step adds 1.0 to the elements below the shift threshold
    and 0.0, which changes nothing, to the rest, so each element stops
    where its scalar loop would. y/x <= 10 cannot overflow."""
    import numpy as np

    acc = np.zeros_like(x)
    y = x.copy()
    step = y < _SHIFT_THRESHOLD
    while step.any():
        acc -= step / y
        y += step
        step = y < _SHIFT_THRESHOLD
    return acc + log_each(y / x) + _series_tail(1.0 / y)

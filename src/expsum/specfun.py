"""Digamma-family special functions, self-contained.

Only the small slice of special-function machinery the entropy formulas
need: the Euler-Mascheroni constant, the digamma function psi(x) for
positive real arguments, and the combination psi(x) - ln(x) evaluated
without cancellation.

Algorithm: arguments below a shift threshold are raised with the
recurrence psi(x) = psi(x+1) - 1/x, then the asymptotic expansion

    psi(x) ~ ln(x) - 1/(2x) - sum_{n>=1} B_{2n} / (2n x^{2n})

is applied, truncated after the x^(-14) term. With the threshold at 6
the truncation error is largest where the series starts: against mpmath
at 40 digits, ``digamma_minus_log(6.0)`` is off by -1.33e-13, while at
10.0 the error is 4.5e-17. Absolute accuracy therefore stays near 1e-13
across the supported range.

The ``_array`` form evaluates the same steps over a numpy array, bit for
bit; numpy is imported inside it only.
"""

from __future__ import annotations

import math

#: Euler-Mascheroni constant, lim_{n->inf} (H_n - ln n), to double precision.
EULER_GAMMA = 0.5772156649015329

_SHIFT_THRESHOLD = 6.0

# Coefficients B_{2n}/(2n) for n = 1..7, i.e. the x^{-2} .. x^{-14} terms
# of the asymptotic expansion of psi(x) - ln(x) + 1/(2x).
_ASYMPTOTIC = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def _require_positive(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")
    return x


def _series_tail(x: float) -> float:
    """psi(x) - ln(x) for x >= the shift threshold, via the asymptotic series.

    Never forms psi(x) and ln(x) separately, so the returned difference
    carries full relative accuracy even when both are large.
    """
    z = 1.0 / (x * x)
    s = 0.0
    for coeff in reversed(_ASYMPTOTIC):
        s = (s + coeff) * z
    return -0.5 / x - s


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x) for x > 0.

    Absolute error is at or below 1e-12 for x in [1e-3, 1e12].

    Raises ValueError for nonpositive, NaN, or infinite arguments.
    """
    x = _require_positive(x, "x")
    acc = 0.0
    while x < _SHIFT_THRESHOLD:
        acc -= 1.0 / x
        x += 1.0
    return acc + math.log(x) + _series_tail(x)


def digamma_minus_log(x: float) -> float:
    """psi(x) - ln(x), computed without catastrophic cancellation.

    For x at or above the shift threshold the value comes straight from
    the asymptotic tail -1/(2x) - 1/(12x^2) + ..., so the tiny difference
    is never formed by subtracting two near-equal numbers; relative error
    of the returned difference stays below 1e-10 however large x gets.
    Below the threshold the difference is order one and the recurrence
    path is used with the log folded in analytically.
    """
    x = _require_positive(x, "x")
    if x >= _SHIFT_THRESHOLD:
        return _series_tail(x)
    acc = 0.0
    y = x
    while y < _SHIFT_THRESHOLD:
        acc -= 1.0 / y
        y += 1.0
    # psi(x) - ln x = psi(y) - sum 1/(x+k) - ln x, and psi(y) = ln y + tail(y)
    return acc + math.log(y / x) + _series_tail(y)


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


def digamma_minus_log_array(x):
    """``digamma_minus_log`` of every element of ``x``, bit for bit.

    Each element goes through the scalar function's IEEE operations in the
    same order: the asymptotic tail at or above the shift threshold, and
    below it the recurrence steps, masked so that each element stops where
    its scalar loop would (at most 5 steps for x > 1), with ln(y/x) taken
    by ``math.log``. Raises ValueError like the scalar form.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(x) & (x > 0.0))
    if bad.any():
        _require_positive(x[bad][0], "x")
    out = np.empty_like(x)
    high = x >= _SHIFT_THRESHOLD
    out[high] = _series_tail(x[high])
    low = ~high
    y = x[low]
    acc = np.zeros_like(y)
    step = y < _SHIFT_THRESHOLD
    while step.any():
        acc[step] -= 1.0 / y[step]
        y[step] += 1.0
        step = y < _SHIFT_THRESHOLD
    out[low] = acc + log_each(y / x[low]) + _series_tail(y)
    return out

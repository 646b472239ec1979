"""Closed-form differential entropies, in nats.

Main result: for Y = W + X, a sum of independent exponentials with
distinct rates, writing lambda_hi > lambda_lo for the ordered rates and

    r = lambda_hi / (lambda_hi - lambda_lo) > 1,

the differential entropy of Y is

    h(Y) = 1 + gamma + ln((lambda_hi - lambda_lo) / (lambda_hi * lambda_lo))
             + psi(lambda_hi / (lambda_hi - lambda_lo))
         = 1 + gamma - ln(lambda_lo) + T(w),   T(w) = psi(1/w) - ln(1/w),

with w = 1/r = (lambda_hi - lambda_lo) / lambda_hi in [0, 1). The second
line is an exact algebraic rewrite of the first, and it is what gets
evaluated: as the rates approach each other the first form subtracts two
diverging terms, while T(w) vanishes with w and ``specfun`` computes it
without cancellation, as a series in w for w <= 1/10 and by the digamma
recurrence at r above that. T(0) is exactly zero, so equal rates give the
Erlang-2 entropy 1 + gamma - ln(lambda) with no separate branch, and
nearly equal ones approach it continuously.

``hypoexp_entropy_array`` evaluates its scalar namesake over numpy arrays,
element by element and bit for bit.
"""

from __future__ import annotations

import math

from .dist import RatePair
from .specfun import _SHIFT_THRESHOLD, EULER_GAMMA, _log_ratio, _near_one_tail, _series_tail
from .specfun import _digamma_minus_log_array, _require_positive, digamma_minus_log, log_each


def exp_entropy(lam: float) -> float:
    """Entropy of an Exponential(lam) variable: 1 - ln(lam).

    This is the maximum entropy of any nonnegative random variable with
    mean 1/lam, which makes it an upper bound for every distribution
    treated here once means are matched.
    """
    lam = _require_positive(lam, "lam")
    return 1.0 - math.log(lam)


def erlang2_entropy(lam: float) -> float:
    """Entropy of an Erlang-2(lam) variable: 1 + gamma - ln(lam).

    Equivalent to 2 - psi(2) - ln(lam) via psi(2) = 1 - gamma.
    """
    lam = _require_positive(lam, "lam")
    return 1.0 + EULER_GAMMA - math.log(lam)


def _tail(hi: float, lo: float) -> float:
    """T(w) = psi(1/w) - ln(1/w) at w = (hi - lo)/hi, for hi >= lo.

    The series takes w itself; the recurrence takes r = hi/(hi - lo),
    which is rounded once, not as 1/w.
    """
    gap = hi - lo
    w = gap / hi
    return _series_tail(w) if w * _SHIFT_THRESHOLD <= 1.0 else digamma_minus_log(hi / gap)


def hypoexp_entropy(rates: RatePair) -> float:
    """Entropy of the sum of independent exponentials at the two rates.

    Evaluates 1 + gamma - ln(lambda_lo) + T(w), with
    w = (lambda_hi - lambda_lo)/lambda_hi. At equal rates T(0) is exactly
    zero, so the value equals ``erlang2_entropy`` of the common rate.
    """
    hi, lo = rates.lambda_hi, rates.lambda_lo
    return 1.0 + EULER_GAMMA - math.log(lo) + _tail(hi, lo)


def hypoexp_entropy_array(hi, lo):
    """``hypoexp_entropy(RatePair(hi, lo))`` for each pair of elements.

    The arrays must hold what a ``RatePair`` holds, valid rates with hi >= lo;
    they are not checked or reordered. T(w) takes the series or the recurrence
    as ``_tail`` does, so every element equals the scalar value bit for bit.
    """
    import numpy as np

    hi = np.asarray(hi, dtype=float)
    lo = np.asarray(lo, dtype=float)
    gap = hi - lo
    w = gap / hi
    tail = _series_tail(w)
    rec = w * _SHIFT_THRESHOLD > 1.0
    tail[rec] = _digamma_minus_log_array(hi[rec] / gap[rec])  # r >= 1
    h = 1.0 + EULER_GAMMA - log_each(lo)
    h += tail
    return h


def mutual_info_aen(signal_rate: float, noise_rate: float) -> float:
    """Mutual information of the additive exponential noise timing channel.

    For input X ~ Exponential(signal_rate), noise W ~ Exponential(noise_rate)
    and output Y = X + W, returns I(X; Y) = h(Y) - h(W), a standard
    identity for additive noise channels. For noise_rate > signal_rate
    this equals

        gamma + ln((noise_rate - signal_rate) / signal_rate)
              + psi(noise_rate / (noise_rate - signal_rate)),

    and the difference form extends it to any pair of positive rates. It
    is evaluated as gamma + ln(lambda_hi/lambda_lo) + T(w) when the noise
    is faster and gamma + T(w) otherwise, so the ln lambda terms of h(Y)
    and h(W) never cancel numerically, and at equal rates the value is
    exactly gamma. (-log1p(-w) would equal the logarithm but loses digits
    as w approaches 1.) When the signal is faster than the noise by more
    than a factor of 6, gamma + T(w) itself cancels, as T(w) -> -gamma;
    there it is the series in e = lambda_lo/(lambda_hi - lambda_lo) of
    ``_near_one_tail``, which keeps full relative accuracy. Always
    nonnegative.
    """
    signal_rate = _require_positive(signal_rate, "signal_rate")
    noise_rate = _require_positive(noise_rate, "noise_rate")
    hi, lo = max(signal_rate, noise_rate), min(signal_rate, noise_rate)
    if noise_rate > signal_rate:
        return EULER_GAMMA + _log_ratio(hi, lo) + _tail(hi, lo)
    gap = hi - lo
    if 5.0 * lo <= gap:  # e <= 1/5, the range of _near_one_tail
        return _near_one_tail(lo / gap)
    return EULER_GAMMA + _tail(hi, lo)


def cond_entropy_light(
    lambda_x: float, lambda_w_on: float, lambda_w_off: float, p_on: float
) -> float:
    """Dwell-time entropy of a light-gated model, conditioned on the gate state.

    ``lambda_x`` is the rate of the shared second phase; ``lambda_w_on``
    and ``lambda_w_off`` are the first-phase rates with the gate on and
    off; ``p_on`` is the probability the gate is on. No ordering among
    the rates is required: the entropy of a sum is order-symmetric.

    h(Y | L) = p_off * h(Y | off) + p_on * h(Y | on), where each branch is
    the sum entropy for (lambda_x, lambda_w_branch).
    """
    lambda_x = _require_positive(lambda_x, "lambda_x")
    lambda_w_on = _require_positive(lambda_w_on, "lambda_w_on")
    lambda_w_off = _require_positive(lambda_w_off, "lambda_w_off")
    p = float(p_on)
    if not math.isfinite(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"p_on must lie in [0, 1], got {p_on!r}")
    h_on = hypoexp_entropy(RatePair(lambda_x, lambda_w_on))
    h_off = hypoexp_entropy(RatePair(lambda_x, lambda_w_off))
    return (1.0 - p) * h_off + p * h_on


def mean_constrained_rates(lam: float) -> RatePair:
    """The unique rate pair {lam, lam/(lam-1)} with unit mean.

    For lam > 1 the pair (min{lam, lam/(lam-1)}, max{lam, lam/(lam-1)})
    satisfies 1/lambda_hi + 1/lambda_lo = 1 exactly; lam and lam/(lam-1)
    parameterize the same pair, and lam = 2 gives the equal-rate point
    (2, 2).
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 1.0:
        raise ValueError(f"lam must be finite and greater than 1, got {lam!r}")
    return RatePair(lam, lam / (lam - 1.0))

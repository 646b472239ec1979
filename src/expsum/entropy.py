"""Closed-form differential entropies, in nats.

Main result: for Y = W + X, a sum of independent exponentials with
distinct rates, writing lambda_hi > lambda_lo for the ordered rates and

    r = lambda_hi / (lambda_hi - lambda_lo) > 1,

the differential entropy of Y is

    h(Y) = 1 + gamma + ln((lambda_hi - lambda_lo) / (lambda_hi * lambda_lo))
             + psi(lambda_hi / (lambda_hi - lambda_lo))
         = 1 + gamma - ln(lambda_lo) + (psi(r) - ln(r)),

the second line being an exact algebraic rewrite of the first. The
rewrite is what gets evaluated: as the rates approach each other r blows
up and the first form subtracts two diverging terms, while the second
isolates the vanishing difference psi(r) - ln(r), which ``specfun``
computes without cancellation. In the limit of equal rates the value
degrades continuously to the Erlang-2 entropy 1 + gamma - ln(lambda).

The ``_array`` forms evaluate their scalar namesakes over numpy arrays,
element by element and bit for bit; numpy is imported inside them only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dist import DEGENERACY_RTOL, RatePair, _require_rate, _require_rates, erlang2_rate
from .specfun import EULER_GAMMA, digamma_minus_log, digamma_minus_log_array, log_each

#: Differential entropies are plain floats measured in nats (natural log
#: base); they may be negative.
EntropyNats = float


@dataclass(frozen=True)
class LightGatedModel:
    """Rates of a light-gated dwell-time model and the mixing probability.

    ``lambda_x`` is the rate of the shared second phase; ``lambda_w_on``
    and ``lambda_w_off`` are the first-phase rates with the gate on and
    off; ``p_on`` is the probability the gate is on. No ordering among
    the rates is required: the entropy of a sum is order-symmetric.
    """

    lambda_x: float
    lambda_w_on: float
    lambda_w_off: float
    p_on: float

    def __post_init__(self):
        object.__setattr__(self, "lambda_x", _require_rate(self.lambda_x, "lambda_x"))
        object.__setattr__(
            self, "lambda_w_on", _require_rate(self.lambda_w_on, "lambda_w_on")
        )
        object.__setattr__(
            self, "lambda_w_off", _require_rate(self.lambda_w_off, "lambda_w_off")
        )
        p = float(self.p_on)
        if not math.isfinite(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"p_on must lie in [0, 1], got {self.p_on!r}")
        object.__setattr__(self, "p_on", p)


def exp_entropy(lam: float) -> EntropyNats:
    """Entropy of an Exponential(lam) variable: 1 - ln(lam).

    This is the maximum entropy of any nonnegative random variable with
    mean 1/lam, which makes it an upper bound for every distribution
    treated here once means are matched.
    """
    lam = _require_rate(lam, "lam")
    return 1.0 - math.log(lam)


def erlang2_entropy(lam: float) -> EntropyNats:
    """Entropy of an Erlang-2(lam) variable: 1 + gamma - ln(lam).

    Equivalent to 2 - psi(2) - ln(lam) via psi(2) = 1 - gamma.
    """
    lam = _require_rate(lam, "lam")
    return 1.0 + EULER_GAMMA - math.log(lam)


def hypoexp_entropy(rates: RatePair) -> EntropyNats:
    """Entropy of the sum of independent exponentials at the two rates.

    Evaluates the stable form 1 + gamma - ln(lambda_lo) + (psi(r) - ln r)
    with r = lambda_hi / (lambda_hi - lambda_lo). Rates equal within the
    degeneracy tolerance fall back to the Erlang-2 value at the common
    rate, which is the continuous limit.
    """
    hi, lo = rates.lambda_hi, rates.lambda_lo
    if rates.nearly_equal:
        return erlang2_entropy(erlang2_rate(hi, lo))
    r = hi / (hi - lo)
    return 1.0 + EULER_GAMMA - math.log(lo) + digamma_minus_log(r)


def hypoexp_entropy_array(rate_a, rate_b):
    """``hypoexp_entropy(RatePair(a, b))`` for each pair of elements.

    The rates are checked, ordered and switched to the Erlang-2 value
    exactly as ``RatePair`` and ``hypoexp_entropy`` do, so every element
    equals the scalar value bit for bit.
    """
    import numpy as np

    a = _require_rates(rate_a, "lambda_hi")
    b = _require_rates(rate_b, "lambda_lo")
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    nearly = hi - lo <= DEGENERACY_RTOL * hi
    apart = ~nearly
    log_arg = lo.copy()
    log_arg[nearly] = list(map(erlang2_rate, hi[nearly].tolist(), lo[nearly].tolist()))
    h = 1.0 + EULER_GAMMA - log_each(log_arg)
    h[apart] += digamma_minus_log_array(hi[apart] / (hi[apart] - lo[apart]))
    return h


def mutual_info_aen(signal_rate: float, noise_rate: float) -> EntropyNats:
    """Mutual information of the additive exponential noise timing channel.

    For input X ~ Exponential(signal_rate), noise W ~ Exponential(noise_rate)
    and output Y = X + W, returns I(X; Y) = h(Y) - h(W), a standard
    identity for additive noise channels. For noise_rate > signal_rate
    this equals

        gamma + ln((noise_rate - signal_rate) / signal_rate)
              + psi(noise_rate / (noise_rate - signal_rate)),

    and the difference form extends it to any pair of positive rates; at
    equal rates the value is exactly gamma. Always nonnegative.
    """
    signal_rate = _require_rate(signal_rate, "signal_rate")
    noise_rate = _require_rate(noise_rate, "noise_rate")
    h_out = hypoexp_entropy(RatePair(signal_rate, noise_rate))
    return h_out - exp_entropy(noise_rate)


def cond_entropy_light(model: LightGatedModel) -> EntropyNats:
    """Dwell-time entropy conditioned on the gate state.

    h(Y | L) = p_off * h(Y | off) + p_on * h(Y | on), where each branch is
    the sum entropy for (lambda_x, lambda_w_branch).
    """
    p_on = model.p_on
    h_on = hypoexp_entropy(RatePair(model.lambda_x, model.lambda_w_on))
    h_off = hypoexp_entropy(RatePair(model.lambda_x, model.lambda_w_off))
    return (1.0 - p_on) * h_off + p_on * h_on


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


def mean_constrained_rates_array(lam):
    """``mean_constrained_rates`` of each element: (lambda_hi, lambda_lo)
    arrays, checked and ordered as the scalar form does."""
    import numpy as np

    lam = np.asarray(lam, dtype=float)
    bad = ~(np.isfinite(lam) & (lam > 1.0))
    if bad.any():
        mean_constrained_rates(lam[bad][0])  # raises the scalar form's error
    other = lam / (lam - 1.0)
    return np.maximum(lam, other), np.minimum(lam, other)

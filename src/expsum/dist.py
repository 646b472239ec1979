"""Exponential, Erlang-2, and two-phase hypoexponential distributions.

The central object is ``HypoexpTwo``, the distribution of Y = W + X for
independent exponentials W and X with distinct rates. Its density is

    f(y) = c * (exp(-lambda_lo * y) - exp(-lambda_hi * y)),   y >= 0,

with normalization c = lambda_hi * lambda_lo / (lambda_hi - lambda_lo).
When the two rates coincide this expression is 0/0; the sum is then
Erlang-2 distributed, and the objects here switch to the exact Erlang-2
forms once the relative rate gap drops below ``DEGENERACY_RTOL``.

numpy is imported inside the array functions, not at module level, so
that importing the package for its scalar closed forms does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy

#: Relative rate gap below which the two-phase form degrades to Erlang-2.
#: Below this the difference lambda_hi - lambda_lo has no significant bits
#: left, so the normalization constant would be pure noise.
DEGENERACY_RTOL = 1e-12


def _require_rate(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite rate, got {value!r}")
    return value


def _require_rates(values, name: str):
    """``values`` as a float array, each element checked by ``_require_rate``."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    bad = ~(np.isfinite(values) & (values > 0.0))
    if bad.any():
        _require_rate(values[bad][0], name)
    return values


def _ret(out, arr):
    """``out``, as a float when the input array ``arr`` is 0-d."""
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class RatePair:
    """A validated pair of exponential rates, stored largest first.

    The distribution of a sum does not depend on the order of its
    summands, so the constructor canonicalizes: ``RatePair(1, 2)`` and
    ``RatePair(2, 1)`` are equal and behave identically everywhere.
    """

    lambda_hi: float
    lambda_lo: float

    def __post_init__(self):
        hi = _require_rate(self.lambda_hi, "lambda_hi")
        lo = _require_rate(self.lambda_lo, "lambda_lo")
        if hi < lo:
            hi, lo = lo, hi
        object.__setattr__(self, "lambda_hi", hi)
        object.__setattr__(self, "lambda_lo", lo)

    @property
    def nearly_equal(self) -> bool:
        """True when the rates agree within the degeneracy tolerance."""
        return self.lambda_hi - self.lambda_lo <= DEGENERACY_RTOL * self.lambda_hi


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with density rate * exp(-rate * y), y >= 0."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", _require_rate(self.rate, "rate"))

    def pdf(self, y):
        import numpy as np

        arr = np.asarray(y, dtype=float)
        yc = np.maximum(arr, 0.0)
        val = self.rate * np.exp(-self.rate * yc)
        return _ret(np.where(arr < 0.0, 0.0, val), arr)

    def mean(self) -> float:
        return 1.0 / self.rate


@dataclass(frozen=True)
class Erlang2:
    """Erlang-2 distribution: sum of two IID exponentials with the given rate.

    Density rate^2 * y * exp(-rate * y) on y >= 0; the equal-rate limit of
    the two-phase hypoexponential.
    """

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", _require_rate(self.rate, "rate"))

    def pdf(self, y):
        import numpy as np

        arr = np.asarray(y, dtype=float)
        yc = np.maximum(arr, 0.0)
        val = self.rate * self.rate * yc * np.exp(-self.rate * yc)
        return _ret(np.where(arr < 0.0, 0.0, val), arr)

    def mean(self) -> float:
        return 2.0 / self.rate


@dataclass(frozen=True)
class HypoexpTwo:
    """Two-phase hypoexponential: the law of W + X for independent
    exponentials at the two rates in ``rates``.

    ``norm_const`` caches c = lambda_hi * lambda_lo / (lambda_hi - lambda_lo)
    and is None in the degenerate (equal-rate) regime, where the object
    follows Erlang-2 semantics with rate ``erlang_rate`` instead.
    """

    rates: RatePair
    norm_const: float | None = field(init=False, default=None, compare=False)

    def __post_init__(self):
        r = self.rates
        if not r.nearly_equal:
            c = r.lambda_hi * r.lambda_lo / (r.lambda_hi - r.lambda_lo)
            object.__setattr__(self, "norm_const", c)

    @classmethod
    def from_rates(cls, rate_a: float, rate_b: float) -> "HypoexpTwo":
        return cls(RatePair(rate_a, rate_b))

    @property
    def is_degenerate(self) -> bool:
        return self.norm_const is None

    @property
    def erlang_rate(self) -> float:
        return 0.5 * (self.rates.lambda_hi + self.rates.lambda_lo)

    def pdf(self, y):
        return hypoexp_pdf(self, y)

    def cdf(self, y):
        return hypoexp_cdf(self, y)

    def mean(self) -> float:
        return hypoexp_mean(self)


def hypoexp_pdf(d: HypoexpTwo, y):
    """Density of ``d`` at ``y`` (scalar or array); 0 for y < 0.

    In the degenerate regime this is the Erlang-2 density
    lambda^2 * y * exp(-lambda * y).
    """
    import numpy as np

    arr = np.asarray(y, dtype=float)
    yc = np.maximum(arr, 0.0)
    if d.is_degenerate:
        lam = d.erlang_rate
        val = lam * lam * yc * np.exp(-lam * yc)
    else:
        r = d.rates
        val = d.norm_const * (np.exp(-r.lambda_lo * yc) - np.exp(-r.lambda_hi * yc))
        # the difference of exponentials can round to a tiny negative for
        # y within a few ulp of 0; the true density is never negative
        val = np.maximum(val, 0.0)
    return _ret(np.where(arr < 0.0, 0.0, val), arr)


def hypoexp_log_pdf(d: HypoexpTwo, y):
    """Natural log of the density, stable far into both tails.

    Returns -inf where the density is 0 (y <= 0).
    """
    import numpy as np

    arr = np.asarray(y, dtype=float)
    yc = np.maximum(arr, 1e-300)
    with np.errstate(divide="ignore"):
        if d.is_degenerate:
            lam = d.erlang_rate
            val = 2.0 * math.log(lam) + np.log(yc) - lam * yc
        else:
            r = d.rates
            gap = r.lambda_hi - r.lambda_lo
            # log f = log c - lambda_lo y + log(1 - exp(-gap y))
            val = (
                math.log(d.norm_const)
                - r.lambda_lo * yc
                + np.log1p(-np.exp(-gap * yc))
            )
    out = np.where(arr <= 0.0, -np.inf, val)
    return _ret(out, arr)


def hypoexp_cdf(d: HypoexpTwo, y):
    """Cumulative distribution of ``d`` at ``y``; 0 for y < 0, -> 1 as y grows."""
    import numpy as np

    arr = np.asarray(y, dtype=float)
    yc = np.maximum(arr, 0.0)
    if d.is_degenerate:
        lam = d.erlang_rate
        val = 1.0 - np.exp(-lam * yc) * (1.0 + lam * yc)
    else:
        r = d.rates
        val = d.norm_const * (
            (-np.expm1(-r.lambda_lo * yc)) / r.lambda_lo
            - (-np.expm1(-r.lambda_hi * yc)) / r.lambda_hi
        )
    val = np.clip(val, 0.0, 1.0)
    return _ret(np.where(arr < 0.0, 0.0, val), arr)


def hypoexp_mean(d: HypoexpTwo) -> float:
    """E[Y] = 1/lambda_hi + 1/lambda_lo, by linearity of expectation."""
    r = d.rates
    return 1.0 / r.lambda_hi + 1.0 / r.lambda_lo


def exponential_draws(rng: numpy.random.Generator, n: int, rate: float):
    """n inverse-CDF exponential draws, -log(1 - U)/rate, from the next n
    uniforms U on [0, 1) of ``rng``."""
    import numpy as np

    return -np.log1p(-rng.random(n)) / rate


def sample_hypoexp(d: HypoexpTwo, rng: numpy.random.Generator, size: int | None = None):
    """Draw Y = W + X by inverse-CDF sampling of the two exponentials.

    Each exponential draw is -log(1 - U)/rate with U uniform on [0, 1);
    the lambda_hi block of n uniforms is consumed first, then the
    lambda_lo block, which starts n draws after the lambda_hi block
    (``entropy_monte_carlo`` relies on this to stream the same samples in
    chunks). The output is fully determined by the generator state. Pass
    ``np.random.default_rng(seed)`` (PCG64) for a documented, seedable
    stream; two generators with equal seeds yield identical samples.

    Returns a scalar when ``size`` is None, else an array of length ``size``.
    """
    r = d.rates
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValueError(f"size must be at least 1, got {size!r}")
    y = exponential_draws(rng, n, r.lambda_hi) + exponential_draws(rng, n, r.lambda_lo)
    return float(y[0]) if size is None else y

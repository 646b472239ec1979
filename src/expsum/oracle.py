"""Independent numerical ground truth for the closed forms.

Three oracles, none of which share code paths with the closed-form
entropy expressions:

* ``entropy_quadrature`` integrates -f ln f directly with an adaptive
  Gauss-Kronrod rule over a truncated domain whose tail is bounded
  analytically.
* ``entropy_monte_carlo`` is the resubstitution estimator
  -(1/n) sum ln f(Y_i) over seeded samples drawn from f itself.
* ``gr_log_integral`` numerically evaluates the exponential-log integral
  int_0^inf exp(-u x) ln(1 - exp(-v x)) dx, whose closed form
  -(gamma + psi(u/v + 1))/u is tabulated in Gradshteyn and Ryzhik's
  integral tables; checking one against the other validates the identity
  the entropy derivation rests on.

numpy is imported inside the functions that build arrays, and the
Gauss-Kronrod tables are built on first use, so importing this module
does not load numpy.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

from . import dist
from .dist import HypoexpTwo, exponential_draws, hypoexp_log_pdf
from .specfun import _require_positive


class ConvergenceError(RuntimeError):
    """Raised when the subdivision budget runs out before reaching tolerance."""


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte-Carlo estimate with its standard error and sample count."""

    estimate: float
    std_error: float
    n_samples: int


#: Panel splits the adaptive integrator may make before it gives up.
MAX_SUBDIVISIONS = 2000

#: Samples drawn and evaluated per chunk by ``entropy_monte_carlo``. Peak
#: memory grows with it; at 10^7 samples no size from 2^14 to 2^20 ran faster.
MC_CHUNK = 1 << 16

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (QUADPACK dqk15 abscissae and weights). The embedded Gauss value uses
# every second node; |K15 - G7| serves as the per-panel error estimate.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)


@functools.cache
def _gk15():
    """The Gauss-Kronrod 15(7) panel rule, built once on first use.

    Returns ``panel(f, a, b) -> (kronrod value, error estimate)``.
    """
    import numpy as np

    nodes = np.concatenate((-np.array(_XGK[:-1]), np.array(_XGK[::-1])))
    weights_k = np.concatenate((np.array(_WGK[:-1]), np.array(_WGK[::-1])))
    weights_g = np.zeros(15)
    weights_g[[1, 13]] = _WG[0]
    weights_g[[3, 11]] = _WG[1]
    weights_g[[5, 9]] = _WG[2]
    weights_g[7] = _WG[3]

    def panel(f, a: float, b: float) -> tuple[float, float]:
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        fx = np.asarray(f(mid + half * nodes), dtype=float)
        kronrod = half * float(weights_k @ fx)
        gauss = half * float(weights_g @ fx)
        return kronrod, abs(kronrod - gauss)

    return panel


def _adaptive(f, a: float, b: float, abs_tol: float) -> float:
    """Globally adaptive bisection, always splitting the worst panel."""
    import numpy as np

    gk15 = _gk15()
    initial = 4
    edges = np.linspace(a, b, initial + 1)
    heap = []
    counter = 0  # tie-breaker so the heap never compares closures
    total_err = 0.0
    for i in range(initial):
        val, err = gk15(f, edges[i], edges[i + 1])
        heap.append((-err, counter, edges[i], edges[i + 1], val))
        counter += 1
        total_err += err
    heapq.heapify(heap)
    splits = 0
    while total_err > abs_tol:
        if splits >= MAX_SUBDIVISIONS:
            raise ConvergenceError(
                f"estimated error {total_err:.3e} above tolerance {abs_tol:.3e} "
                f"after {splits} subdivisions"
            )
        neg_err, _, pa, pb, _ = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        val1, err1 = gk15(f, pa, mid)
        val2, err2 = gk15(f, mid, pb)
        total_err += err1 + err2 + neg_err
        heapq.heappush(heap, (-err1, counter, pa, mid, val1))
        counter += 1
        heapq.heappush(heap, (-err2, counter, mid, pb, val2))
        counter += 1
        splits += 1
    return math.fsum(panel[4] for panel in heap)


def _truncation_point(d: HypoexpTwo, abs_tol: float) -> float:
    """Smallest doubling of 20/lambda_slow whose tail bound is < abs_tol/10.

    The bound is on the mass of |f ln f| (and of f) beyond u.
    Erlang-2(lam), valid for u >= 1 so that ln y <= y on the tail:
        exp(-lam u) (2|ln lam|(1 + lam u)
                     + (1 + lam)(lam^2 u^2 + 2 lam u + 2)/lam).
    Two-phase with c = norm const: f <= c exp(-lambda_lo y) and
    |ln f| <= |ln c| + lambda_hi y + 1 on the tail, giving
        c exp(-lambda_lo u) (|ln c| + lambda_hi u + 1)(u + 2/lambda_lo).
    Each bound also dominates the plain density tail, so the same
    truncation point serves the normalization integral.
    """
    if d.is_degenerate:
        lam = d.erlang_rate

        def tail_bound(u):
            e = math.exp(-lam * u)
            poly = (1.0 + lam) * (lam * lam * u * u + 2.0 * lam * u + 2.0) / lam
            return e * (2.0 * abs(math.log(lam)) * (1.0 + lam * u) + poly)

        u = max(20.0 / lam, 1.0)  # the Erlang-2 bound needs u >= 1
    else:
        c, hi, lo = d.norm_const, d.rates.lambda_hi, d.rates.lambda_lo

        def tail_bound(u):
            return c * math.exp(-lo * u) * (abs(math.log(c)) + hi * u + 1.0) * (u + 2.0 / lo)

        u = 20.0 / lo
    for _ in range(200):
        if tail_bound(u) < abs_tol / 10.0:
            return u
        u *= 2.0
    raise ConvergenceError(f"tail bound would not drop below {abs_tol / 10.0:.3e}")


def _neg_f_log_f(d: HypoexpTwo):
    import numpy as np

    def integrand(y):
        f = np.asarray(dist.hypoexp_pdf(d, y), dtype=float)
        out = np.zeros_like(f)
        mask = f > 0.0
        out[mask] = -f[mask] * np.log(f[mask])
        return out

    return integrand


def entropy_quadrature(d: HypoexpTwo, *, abs_tol: float = 1e-10) -> float:
    """Differential entropy -int f ln f by adaptive quadrature.

    The integration domain is [0, U] with U from the analytic tail bound,
    so truncation error stays below a tenth of ``abs_tol``; the 0 ln 0
    convention at points of vanishing density is applied explicitly.
    Raises ConvergenceError if the subdivision budget is exhausted.
    """
    abs_tol = _require_positive(abs_tol, "abs_tol")
    u = _truncation_point(d, abs_tol)
    return _adaptive(_neg_f_log_f(d), 0.0, u, abs_tol)


def normalization_quadrature(d: HypoexpTwo, *, abs_tol: float = 1e-10) -> float:
    """int f over the same truncated domain; should be 1 for any density."""
    abs_tol = _require_positive(abs_tol, "abs_tol")
    u = _truncation_point(d, abs_tol)
    return _adaptive(lambda y: dist.hypoexp_pdf(d, y), 0.0, u, abs_tol)


def entropy_monte_carlo(d: HypoexpTwo, n: int, seed: int) -> EstimateWithError:
    """Resubstitution entropy estimate from n seeded samples.

    Draws Y_1..Y_n from the ``sample_hypoexp`` stream of
    ``default_rng(seed)`` (PCG64) and returns the sample mean of -ln f(Y_i)
    together with its standard error (sample standard deviation over
    sqrt(n)). Bit-identical across runs with equal (d, n, seed).

    The samples are streamed in chunks of ``MC_CHUNK``: a second generator,
    advanced by n draws, supplies the lambda_lo block, so chunk i uses the
    same uniforms as the one-shot ``sample_hypoexp(d, rng, n)``. Only the n
    values of -ln f are kept (about 8 bytes per sample, plus a fixed chunk
    buffer), and the mean and variance are the reductions that
    ``vals.mean()`` and ``vals.std(ddof=1)`` perform, done in place, so the
    estimates are bit-identical to the one-shot form.

    Raises FloatingPointError, naming the first offending sample, when the
    estimate is not finite (the log-density was -inf or nan at a sample).
    """
    import numpy as np

    n = int(n)
    if n < 2:
        raise ValueError(f"n must be at least 2 to form a standard error, got {n}")
    r = d.rates
    rng_hi = np.random.default_rng(seed)
    rng_lo = np.random.default_rng(seed)
    rng_lo.bit_generator.advance(n)
    vals = np.empty(n)
    for start in range(0, n, MC_CHUNK):
        k = min(MC_CHUNK, n - start)
        y = exponential_draws(rng_hi, k, r.lambda_hi)
        y += exponential_draws(rng_lo, k, r.lambda_lo)
        np.negative(hypoexp_log_pdf(d, y), out=vals[start : start + k])
    mean = float(np.add.reduce(vals) / n)
    if not math.isfinite(mean):
        bad = int(np.argmin(np.isfinite(vals)))
        raise FloatingPointError(
            f"Monte-Carlo estimate is not finite: -ln f = {float(vals[bad])!r} at sample "
            f"{bad} (rates {r.lambda_hi!r}, {r.lambda_lo!r}; n={n}, seed={seed})"
        )
    vals -= mean
    np.multiply(vals, vals, out=vals)
    std = math.sqrt(np.add.reduce(vals) / (n - 1))
    return EstimateWithError(estimate=mean, std_error=std / math.sqrt(n), n_samples=n)


def gr_log_integral(u: float, v: float, *, abs_tol: float = 1e-10) -> float:
    """Numerically evaluate int_0^inf exp(-u x) ln(1 - exp(-v x)) dx.

    The substitution xi = exp(-v x) turns this into
    (1/v) int_0^1 xi^(u/v - 1) ln(1 - xi) d(xi), removing the infinite
    domain; both endpoints are integrable singularities and are trimmed
    by slivers with analytic mass bounds below a tenth of the tolerance:
        lower: int_0^d xi^(p-1) |ln(1-xi)| dxi <= 2 d^(p+1)/(p+1),
        upper: int_{1-d}^1 ... <= 2 d (1 - ln d),
    both for d <= 1/4 (with p = u/v). The closed form this should match
    is -(gamma + psi(u/v + 1))/u.
    """
    import numpy as np

    u = _require_positive(u, "u")
    v = _require_positive(v, "v")
    tol = _require_positive(abs_tol, "abs_tol")
    p = u / v
    lower = min(((p + 1.0) * tol / 20.0) ** (1.0 / (p + 1.0)), 0.25)
    upper = tol / 20.0
    for _ in range(30):  # fixed point of d = tol / (20 (1 - ln d))
        upper = tol / (20.0 * (1.0 - math.log(upper)))
    upper = min(upper, 0.25)

    def integrand(xi):
        xi = np.asarray(xi, dtype=float)
        return xi ** (p - 1.0) * np.log1p(-xi)

    value = _adaptive(integrand, lower, 1.0 - upper, tol)
    return value / v

"""Independent numerical ground truth for the closed forms.

Three oracles, none of which share code paths with the closed-form
entropy expressions:

* ``entropy_quadrature`` integrates -f ln f directly, like the other two
  quadratures by adaptive Gauss-Kronrod on [0, T], T the smallest doubling
  of 20 at which an analytic tail bound drops below a tenth of abs_tol.
* ``entropy_monte_carlo`` is the resubstitution estimator
  -(1/n) sum ln f(Y_i) over seeded samples drawn from f itself, taken in
  the unit scale as -ln lambda_lo + (1/n) sum (t_i - ln k_i).
* ``gr_log_integral`` numerically evaluates the exponential-log integral
  int_0^inf exp(-u x) ln(1 - exp(-v x)) dx, whose closed form
  -(gamma + psi(u/v + 1))/u is tabulated in Gradshteyn and Ryzhik's
  integral tables; checking one against the other validates the identity
  the entropy derivation rests on.

The entropy oracles work in the unit scale t = lambda_lo y: the entropy
is a scale family, h(Y) = h(lambda_lo Y) - ln lambda_lo, and f(y) =
lambda_lo g(t) with g = e^(-t) k, k from ``dist._unit_kernel``, so
h = -ln lambda_lo + int g (t - ln k) dt, which the quadratures integrate
and Monte Carlo averages over samples of t. With d = gap y formed as
t (gap/lambda_lo), one domain [0, T] serves every rate pair: for t >= 1,
1 <= k <= 2t (k grows with t, is (1 + x)(1 - e^(-x))/x >= 1 at t = 1 for
x = gap/lambda_lo, and is at most t lambda_hi/lambda_lo and at most
lambda_hi/gap), so the tail of g |t - ln k| beyond T is below
2 e^(-T) (T^2 + 2T + 2). Only the density kernel is shared with the
package, never the digamma closed form, so agreement checks the latter.

numpy is imported inside the functions that build arrays, and
``_adaptive`` builds its Gauss-Kronrod node and weight arrays on each
call, so importing this module does not load numpy.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from . import dist
from .dist import RatePair, exponential_draws
from .specfun import _require_positive


class ConvergenceError(RuntimeError):
    """Raised when a quadrature cannot reach its tolerance: the tail bound stays above a tenth
    of it at every T tried (or v/u < DBL_MIN), the error estimate is not finite, or the
    subdivision budget runs out."""


#: A Monte-Carlo estimate with its standard error and sample count.
EstimateWithError = namedtuple("EstimateWithError", "estimate std_error n_samples")


#: Panel splits the adaptive integrator may make before it gives up.
MAX_SUBDIVISIONS = 2000

#: Samples drawn and evaluated per chunk by ``entropy_monte_carlo``. Peak
#: memory is three buffers of this many floats, 1.5 MB at 2^16; at 10^7
#: samples no size from 2^14 to 2^20 ran faster. Changing it changes the
#: estimates' last bits for n above it.
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
# The 15 nodes in ascending order, and the rule matrix of ``_adaptive``: per node a row
# (Kronrod weight, Gauss weight), the Gauss weight 0 on the eight Kronrod-only nodes.
_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_RULE = tuple(zip(_WGK[:-1] + _WGK[::-1], [0.0] + [w for g in _WG + _WG[-2::-1] for w in (g, 0.0)]))


def _adaptive(f, tail, abs_tol: float) -> float:
    """int_0^T f, T the least doubling of 20 with tail(T) < abs_tol/10, by globally
    adaptive bisection with the Gauss-Kronrod 15(7) rule, always splitting the worst
    panel. f is called once on the four starting panels and once on the two halves of
    each split."""
    import numpy as np

    t_max = 20.0
    while tail(t_max) >= abs_tol / 10.0:
        if t_max > 2000.0:
            raise ConvergenceError(f"tail bound would not drop below {abs_tol / 10.0:.3e}")
        t_max *= 2.0

    nodes, rule = np.array(_NODES), np.array(_RULE)

    def panels(mids, halves):
        """(Kronrod value, |Kronrod - Gauss|) on each panel, given its midpoint and half-width."""
        x = np.array(mids)[:, None] + np.multiply.outer(halves, nodes)
        fx = np.asarray(f(x.ravel()), dtype=float)
        # rows @ rule, like 1-D dots, is an OpenBLAS sum whose bits depend on the runtime kernel;
        # on OpenBLAS 0.3.31's SkylakeX kernel the two agree on 1,000+ quadrature values
        kg = (fx.reshape(-1, 15) @ rule).tolist()
        return [(h * k, abs(h * k - h * g)) for h, (k, g) in zip(halves, kg)]

    step = t_max / 4
    edges = [i * step for i in range(4)] + [t_max]  # np.linspace(0, t_max, 5) as Python floats
    spans = list(zip(edges, edges[1:]))
    heap = []
    total_err = 0.0
    # an inf at a node meets a zero Gauss weight: the nan is reported below, not warned
    with np.errstate(invalid="ignore"):
        start = panels([0.5 * (pa + pb) for pa, pb in spans], [0.5 * (pb - pa) for pa, pb in spans])
        for (pa, pb), (val, err) in zip(spans, start):
            heap.append((-err, pa, pb, val))
            total_err += err
        heapq.heapify(heap)
        splits = 0
        while not total_err <= abs_tol:  # a nan estimate is not convergence
            if splits >= MAX_SUBDIVISIONS or not math.isfinite(total_err):
                neg_err, pa, pb, _ = next((p for p in heap if not math.isfinite(p[0])), heap[0])
                raise ConvergenceError(
                    f"estimated error {total_err:.3e} above tolerance {abs_tol:.3e} "
                    f"after {splits} subdivisions of [0.0, {t_max!r}] "
                    f"({15 * (4 + 2 * splits)} integrand points); "
                    f"worst panel [{pa!r}, {pb!r}] with estimated error {-neg_err:.3e}"
                )
            neg_err, pa, pb, _ = heapq.heappop(heap)  # on a tie, the lower a: panels are disjoint
            mid = 0.5 * (pa + pb)
            (val1, err1), (val2, err2) = panels(
                [0.5 * (pa + mid), 0.5 * (mid + pb)], [0.5 * (mid - pa), 0.5 * (pb - mid)]
            )
            total_err += err1 + err2 + neg_err
            heapq.heappush(heap, (-err1, pa, mid, val1))
            heapq.heappush(heap, (-err2, mid, pb, val2))
            splits += 1
    return math.fsum(panel[3] for panel in heap)


def _unit_quadrature(rates: RatePair, abs_tol: float, integrand) -> float:
    """int_0^T integrand(t, g, k) dt over the unit scale, with T from the tail
    bound, (t, k) from ``dist._unit_kernel`` at d = t (gap/lambda_lo) and g = e^(-t) k."""
    import numpy as np

    abs_tol = _require_positive(abs_tol, "abs_tol")
    per_t = (rates.lambda_hi - rates.lambda_lo) / rates.lambda_lo  # not t/lambda_lo: overflows

    def unit_integrand(x):
        t, k = dist._unit_kernel(rates, x, 1.0, per_t)
        return integrand(t, np.exp(-t) * k, k)

    tail = lambda t: 2.0 * math.exp(-t) * (t * t + 2.0 * t + 2.0)  # noqa: E731
    return _adaptive(unit_integrand, tail, abs_tol)


def entropy_quadrature(rates: RatePair, *, abs_tol: float = 1e-10) -> float:
    """Differential entropy -int f ln f of the sum at ``rates``, by adaptive quadrature
    of -ln lambda_lo + int_0^T g (t - ln k) dt, with 0 ln 0 = 0 where k vanishes."""
    import numpy as np

    def integrand(t, g, k):
        return g * (t - np.log(k, out=np.zeros_like(k), where=k > 0.0))

    return _unit_quadrature(rates, abs_tol, integrand) - math.log(rates.lambda_lo)


def normalization_quadrature(rates: RatePair, *, abs_tol: float = 1e-10) -> float:
    """int f = int_0^T g dt at ``rates``, as in ``entropy_quadrature``; should be 1."""
    return _unit_quadrature(rates, abs_tol, lambda t, g, k: g)


def entropy_monte_carlo(rates: RatePair, n: int, seed: int) -> EstimateWithError:
    """Resubstitution entropy estimate of the sum at ``rates`` from n seeded samples.

    Draws n unit-scale samples t = lambda_lo Y from ``default_rng(seed)``
    (PCG64): a block of n ``exponential_draws`` at rate lambda_hi/lambda_lo,
    then one at rate 1, added elementwise; unlike draws of Y, these stay
    finite at subnormal rates. Returns -ln lambda_lo plus the sample mean
    of t - ln k, k from ``dist._unit_kernel``, with its standard error
    (sample standard deviation over sqrt(n)). Bit-identical across runs
    with equal (rates, n, seed).

    The samples are streamed in chunks of ``MC_CHUNK``: a second generator,
    advanced by n draws, supplies the lambda_lo block, so chunk i uses the
    same uniforms as the one-shot stream. Each chunk is drawn, evaluated
    and reduced in three buffers of ``MC_CHUNK`` floats made once, so no
    chunk allocates an array: t, k, and t - ln k, whose buffer first takes
    the lambda_lo draws. A chunk's sum and its sum of squared deviations M2
    are merged into running totals, the sums with Neumaier's compensation
    and the M2 values with the pairwise update of Chan, Golub and LeVeque
    (1979), so memory does not grow with n. For n <=
    ``MC_CHUNK`` there is one chunk and the estimates are bit-identical to
    the one-shot ``vals.mean() - ln lambda_lo`` and ``vals.std(ddof=1)``;
    above that they agree with the one-shot reduction to a few ulp (within
    1 ulp of the correctly rounded mean, and M2 within 1e-15 relative, on
    the cases measured up to 10^7 samples).

    Raises FloatingPointError, naming the first offending sample, when the
    estimate is not finite (t - ln k was inf or nan at a sample).
    """
    import numpy as np

    n = int(n)
    if n < 2:
        raise ValueError(f"n must be at least 2 to form a standard error, got {n}")
    hi, lo = rates
    per_t = (hi - lo) / lo  # d = gap y per unit of t, as in the quadratures
    rng_hi = np.random.default_rng(seed)
    rng_lo = np.random.default_rng(seed)
    rng_lo.bit_generator.advance(n)
    t_buf, k_buf, vals_buf = (np.empty(min(n, MC_CHUNK)) for _ in range(3))
    total, carry, m2 = 0.0, 0.0, 0.0
    for start in range(0, n, MC_CHUNK):
        size = min(MC_CHUNK, n - start)
        vals = vals_buf[:size]
        t = exponential_draws(rng_hi, size, hi / lo, t_buf[:size])
        t += exponential_draws(rng_lo, size, 1.0, vals)
        t, k = dist._unit_kernel(rates, t, 1.0, per_t, k_buf[:size])
        with np.errstate(divide="ignore"):  # k = 0 gives t - ln k = inf, reported below
            np.subtract(t, np.log(k, out=vals), out=vals)
        chunk_sum = float(np.add.reduce(vals))
        if not math.isfinite(chunk_sum):
            bad = int(np.argmin(np.isfinite(vals)))
            raise FloatingPointError(
                f"Monte-Carlo estimate is not finite: t - ln k = {float(vals[bad])!r} at sample "
                f"{start + bad} (rates {hi!r}, {lo!r}; n={n}, seed={seed})"
            )
        chunk_mean = chunk_sum / size
        vals -= chunk_mean
        np.multiply(vals, vals, out=vals)
        chunk_m2 = float(np.add.reduce(vals))
        if start:  # merge with the start samples before this chunk
            delta = chunk_mean - (total + carry) / start
            m2 += chunk_m2 + delta * delta * start * size / (start + size)
        else:
            m2 = chunk_m2
        # Neumaier summation: total + carry holds the sum of the chunk sums
        # to about one rounding, however many chunks there are
        new_total = total + chunk_sum
        if abs(total) >= abs(chunk_sum):
            carry += (total - new_total) + chunk_sum
        else:
            carry += (chunk_sum - new_total) + total
        total = new_total
    mean = (total + carry) / n - math.log(lo)
    std = math.sqrt(m2 / (n - 1))
    return EstimateWithError(estimate=mean, std_error=std / math.sqrt(n), n_samples=n)


def gr_log_integral(u: float, v: float, *, abs_tol: float = 1e-10) -> float:
    """Numerically evaluate int_0^inf exp(-u x) ln(1 - exp(-v x)) dx.

    In the scale s = c x, c = max(u, v), a = u/c, b = v/c, it is (1/c) int_0^T e^(-a s)
    ln(1 - e^(-b s)) ds, whose tail beyond T is below e^(-(a+b) T) / ((a+b) (1 - e^(-b T)))
    as -ln(1 - z) <= z/(1 - z); the error is about abs_tol/max(u, v). Raises ConvergenceError
    where b < DBL_MIN (u/v > 4.5e307). It should match -(gamma + psi(u/v + 1))/u.
    """
    import numpy as np

    u = _require_positive(u, "u")
    v = _require_positive(v, "v")
    tol = _require_positive(abs_tol, "abs_tol")
    c = max(u, v)
    a, b = u / c, v / c
    if b < 2.0**-1022:  # DBL_MIN
        raise ConvergenceError(f"v/u below DBL_MIN at u = {u!r}, v = {v!r}")

    def integrand(s):
        return np.exp(-a * s) * np.log(-np.expm1(-b * s))

    tail = lambda t: math.exp(-(a + b) * t) / ((a + b) * -math.expm1(-b * t))  # noqa: E731
    return _adaptive(integrand, tail, tol) / c

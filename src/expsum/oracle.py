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
and Monte Carlo averages over samples of t. The kernel forms d = gap y
from t itself, so one domain [0, T] serves every rate pair: for t >= 1,
1 <= k <= 2t (k grows with t, is (1 + x)(1 - e^(-x))/x >= 1 at t = 1 for
x = gap/lambda_lo, and is at most t lambda_hi/lambda_lo and at most
lambda_hi/gap), so the tail of g |t - ln k| beyond T is below
2 e^(-T) (T^2 + 2T + 2). Only the density kernel is shared with the
package, never the digamma closed form, so agreement checks the latter.

numpy is imported inside the functions that build arrays, and
``_adaptive`` builds its Gauss-Kronrod weight array on each call, so
importing this module does not load numpy.
"""

from __future__ import annotations

import heapq
import math
import os
from collections import namedtuple

from . import dist
from .dist import RatePair, exponential_draws
from .specfun import _require_positive


class ConvergenceError(RuntimeError):
    """Raised when a quadrature cannot reach its tolerance: the tail bound stays above a tenth
    of it at every T tried (or v/u < DBL_MIN), the error estimate is not finite, or the
    subdivision budget runs out. Each panel's estimate is at least 50 eps |its Kronrod value|
    (QUADPACK's round-off floor), so a tolerance below what doubles resolve raises."""


#: A Monte-Carlo estimate with its standard error and sample count.
EstimateWithError = namedtuple("EstimateWithError", "estimate std_error n_samples")


#: Panel splits the adaptive integrator may make before it gives up.
MAX_SUBDIVISIONS = 2000

# QUADPACK dqk15's floor on a panel's error estimate, as a multiple of |Kronrod value|:
# K and G can round to one double, so |K - G| alone may read 0 (Piessens et al. 1983)
_ROUNDOFF = 50.0 * 2.0**-52

#: Samples drawn and evaluated per chunk by ``entropy_monte_carlo``. Each of
#: its at most two stripes keeps one buffer of this many floats and one of
#: half as many, so peak memory is three buffers of this size, 1.5 MB at 2^16;
#: at 10^7 samples on one core no size from 2^14 to 2^20 ran faster. Changing
#: it changes the estimates' last bits for n above it.
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
    panel. One evaluator, ``panels(spans)``, turns a list of (a, b) panels into their
    heap records (-error estimate, a, b, Kronrod value) with one call of f, on the
    (panels, 15) float array of their nodes, which f must not write into and whose shape
    its float result keeps: it is called once on the four starting panels and once on the
    two halves of each split."""
    import numpy as np

    t_max = 20.0
    while tail(t_max) >= abs_tol / 10.0:
        if t_max > 2000.0:
            raise ConvergenceError(f"tail bound would not drop below {abs_tol / 10.0:.3e}")
        t_max *= 2.0

    rule = np.array(_RULE)

    def panels(spans):
        """The heap records of the panels (a, b) in spans, in order; each error estimate is
        |Kronrod - Gauss|, raised to QUADPACK's round-off floor 50 eps |Kronrod|."""
        mid_half = [(0.5 * (a + b), 0.5 * (b - a)) for a, b in spans]
        # a row of nodes mid + h node per panel, in Python floats: the two roundings of
        # numpy's multiply and add, without the cost of broadcasting two columns
        x = np.array([m + h * node for m, h in mid_half for node in _NODES]).reshape(-1, 15)
        # rows @ rule is an OpenBLAS sum whose bits depend on the runtime kernel and on the
        # row count: under OpenBLAS 0.3.31's SkylakeX and Haswell kernels, 76-82% of seeded
        # random rows rounded differently alone than among others, while products of 2 to
        # 399 rows agreed (Sandybridge: all agreed). Each product here has 2 or 4 rows
        kg = (f(x) @ rule).tolist()
        # a nan |K - G| comes first in max, so it stays nan
        return [(-max(abs((v := h * k) - h * g), _ROUNDOFF * abs(v)), a, b, v)
                for (a, b), (_, h), (k, g) in zip(spans, mid_half, kg)]

    # an inf at a node meets a zero Gauss weight: the nan is reported below, not warned
    with np.errstate(invalid="ignore"):
        heap = panels([(i * t_max / 4, (i + 1) * t_max / 4) for i in range(4)])  # exact edges
        total_err = 0.0
        for neg_err, *_ in heap:  # left to right and uncompensated, as the splits update it
            total_err += -neg_err
        heapq.heapify(heap)
        splits = 0
        while not total_err <= abs_tol:  # a nan estimate is not convergence
            if splits >= MAX_SUBDIVISIONS or not math.isfinite(total_err):
                neg_err, pa, pb, _ = next((p for p in heap if not math.isfinite(p[0])), heap[0])
                raise ConvergenceError(
                    f"estimated error {total_err:.3e} above tolerance {abs_tol:.3e} "
                    f"after {splits} subdivisions of [0.0, {t_max!r}] "
                    f"({15 * (len(heap) + splits)} integrand points); "
                    f"worst panel [{pa!r}, {pb!r}] with estimated error {-neg_err:.3e}"
                )
            neg_err, pa, pb, _ = heapq.heappop(heap)  # on a tie, the lower a: panels are disjoint
            mid = 0.5 * (pa + pb)
            low, high = panels([(pa, mid), (mid, pb)])
            total_err += -low[0] - high[0] + neg_err  # the halves' errors less the split one's
            heapq.heappush(heap, low)
            heapq.heappush(heap, high)
            splits += 1
    return math.fsum(panel[3] for panel in heap)


def _normalization_integrand(rates: RatePair):
    """The function g = e^(-t) k of the unit-scale nodes x = t, k from ``dist._unit_kernel``
    at scale 1.0, which forms d. Like every integrand here it never writes into x, and
    leaves the kernel's overflow warning to its caller."""
    import numpy as np

    def integrand(x):
        return np.exp(-x) * dist._unit_kernel(rates, x, 1.0)[1]

    return integrand


def _entropy_integrand(rates: RatePair):
    """The function g (t - ln k) of the unit-scale nodes x = t, g and k as in
    ``_normalization_integrand``, with 0 ln 0 = 0 where k vanishes."""
    import numpy as np

    zero = np.array(0.0)  # a 0-d operand: numpy takes a slower path for a Python float

    def integrand(x):
        k = dist._unit_kernel(rates, x, 1.0)[1]  # a new array, 0 or more
        g = np.exp(-x) * k
        return g * (x - np.log(k, k, where=k > zero))  # a 0 in k stays 0

    return integrand


def _unit_quadrature(rates: RatePair, abs_tol: float, integrand_of) -> float:
    """int_0^T of ``integrand_of(rates)`` over the unit scale, with T from the tail bound."""
    import numpy as np

    abs_tol = _require_positive(abs_tol, "abs_tol")
    tail = lambda t: 2.0 * math.exp(-t) * (t * t + 2.0 * t + 2.0)  # noqa: E731
    with np.errstate(over="ignore"):  # d = gap t overflowing to +inf is exact in the kernel
        return _adaptive(integrand_of(rates), tail, abs_tol)


def entropy_quadrature(rates: RatePair, *, abs_tol: float = 1e-10) -> float:
    """Differential entropy -int f ln f of the sum at ``rates``, by adaptive quadrature
    of -ln lambda_lo + int_0^T g (t - ln k) dt, with 0 ln 0 = 0 where k vanishes."""
    return _unit_quadrature(rates, abs_tol, _entropy_integrand) - math.log(rates.lambda_lo)


def normalization_quadrature(rates: RatePair, *, abs_tol: float = 1e-10) -> float:
    """int f = int_0^T g dt at ``rates``, as in ``entropy_quadrature``; should be 1."""
    return _unit_quadrature(rates, abs_tol, _normalization_integrand)


def _usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mc_stripe(rates: RatePair, n: int, seed: int, starts: range, vals_buf, k_buf) -> list:
    """Draw, evaluate and reduce the chunks at ``starts`` in order; return the list of
    their (sum, M2), or raise FloatingPointError at the first chunk whose sum is not
    finite. t is drawn into ``vals_buf``, the lambda_lo draws and k into ``k_buf``,
    one sub-block of its length at a time: the work is elementwise, so no bit moves."""
    import numpy as np

    hi, lo = rates
    rng_hi = np.random.default_rng(seed)
    rng_lo = np.random.default_rng(seed)
    rng_hi.bit_generator.advance(starts[0])  # each draw takes one uniform
    rng_lo.bit_generator.advance(n + starts[0])
    pairs = []
    for start in starts:
        size = min(MC_CHUNK, n - start)
        vals = vals_buf[:size]
        for sub in range(0, size, k_buf.size):
            t = vals[sub : sub + k_buf.size]
            k = k_buf[: t.size]
            exponential_draws(rng_hi, t.size, hi / lo, t)
            t += exponential_draws(rng_lo, t.size, 1.0, k)
            # d = gap t overflowing to +inf is exact in the kernel; k = 0 gives
            # t - ln k = inf, raised below
            with np.errstate(over="ignore", divide="ignore"):
                t, k = dist._unit_kernel(rates, t, 1.0, k)
                t -= np.log(k, out=k)
        chunk_sum = float(np.add.reduce(vals))
        if not math.isfinite(chunk_sum):
            bad = int(np.argmin(np.isfinite(vals)))
            raise FloatingPointError(
                f"Monte-Carlo estimate is not finite: t - ln k = {float(vals[bad])!r} at sample "
                f"{start + bad} (rates {hi!r}, {lo!r}; n={n}, seed={seed})"
            )
        vals -= chunk_sum / size
        np.multiply(vals, vals, out=vals)
        pairs.append((chunk_sum, float(np.add.reduce(vals))))
    return pairs


def entropy_monte_carlo(rates: RatePair, n: int, seed: int) -> EstimateWithError:
    """Resubstitution entropy estimate of the sum at ``rates`` from n seeded samples.

    Draws n unit-scale samples t = lambda_lo Y from ``default_rng(seed)``
    (PCG64): a block of n ``exponential_draws`` at rate lambda_hi/lambda_lo,
    then one at rate 1, added elementwise; unlike draws of Y, these stay
    finite at subnormal rates. Returns -ln lambda_lo plus the sample mean
    of t - ln k, k from ``dist._unit_kernel``, with its standard error
    (sample standard deviation over sqrt(n)). Bit-identical across runs
    with equal (rates, n, seed), whatever the number of cores.

    The samples are streamed in chunks of ``MC_CHUNK``, split into at most
    two contiguous stripes, one per usable core: the calling thread runs the
    first and one pool thread the second, or the calling thread both when no
    thread can be started. Each stripe has its own pair of generators,
    advanced to its first sample, so chunk i uses the same uniforms as the
    one-shot stream, and its own two buffers, allocated by the calling
    thread: ``MC_CHUNK`` floats for t - ln k and half as many for the
    lambda_lo draws and k, so no chunk allocates an array and peak memory is
    at most three chunk buffers. The stripes return each chunk's sum and sum
    of squared deviations M2, merged in chunk order, the sums with Neumaier's
    compensation and the M2 values with the pairwise update of Chan, Golub
    and LeVeque (1979). For n <= ``MC_CHUNK`` there is one chunk, no thread
    is started, and the estimates are bit-identical to the one-shot
    ``vals.mean() - ln lambda_lo`` and ``vals.std(ddof=1)``; above that they
    agree with it to a few ulp (within 1 ulp of the correctly rounded mean,
    and M2 within 1e-15 relative, on the cases measured up to 10^7 samples).

    Raises FloatingPointError, naming the sample, where t - ln k is inf or nan.
    Each stripe raises its own at its first such chunk. The second stripe's
    error is raised only once the first stripe, which holds the lower chunks,
    has finished, so the error raised is the lowest failing chunk's; either
    leaves only after the pool thread has been joined.
    """
    import numpy as np

    n = int(n)
    if n < 2:
        raise ValueError(f"n must be at least 2 to form a standard error, got {n}")
    starts = range(0, n, MC_CHUNK)
    # two stripes of 1.5 chunk buffers each hold peak memory at three buffers
    stripes = min(2, _usable_cores(), len(starts))
    cut = -(-len(starts) // stripes)
    # allocated here, not in the pool thread, whose own malloc arena would add to peak memory
    half = -(-MC_CHUNK // 2)
    jobs = [
        (rates, n, seed, part, np.empty(min(n, MC_CHUNK)), np.empty(min(n, half)))
        for part in (starts[:cut], starts[cut:])[:stripes]
    ]
    if stripes == 1:
        pairs = _mc_stripe(*jobs[0])
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            try:
                second = pool.submit(_mc_stripe, *jobs[1]).result
            except RuntimeError:  # no thread could be started: the same work, here
                second = lambda: _mc_stripe(*jobs[1])  # noqa: E731
            pairs = _mc_stripe(*jobs[0]) + second()
    total, carry, m2 = 0.0, 0.0, 0.0
    for start, (chunk_sum, chunk_m2) in zip(starts, pairs):
        size = min(MC_CHUNK, n - start)
        if start:  # merge with the start samples before this chunk
            delta = chunk_sum / size - (total + carry) / start
            chunk_m2 += delta * delta * start * size / (start + size)
        m2 += chunk_m2
        # Neumaier summation: total + carry holds the sum of the chunk sums
        # to about one rounding, however many chunks there are
        big, small = (total, chunk_sum) if abs(total) >= abs(chunk_sum) else (chunk_sum, total)
        total += chunk_sum
        carry += (big - total) + small
    mean = (total + carry) / n - math.log(rates.lambda_lo)
    std = math.sqrt(m2 / (n - 1))
    return EstimateWithError(estimate=mean, std_error=std / math.sqrt(n), n_samples=n)


def _log_integrand(a: float, b: float):
    """The function e^(-a s) ln(1 - e^(-b s)) of the nodes s, as in ``gr_log_integral``."""
    import numpy as np

    neg_a, neg_b = np.array(-a), np.array(-b)  # 0-d, as in ``_entropy_integrand``

    def integrand(s):
        return np.exp(s * neg_a) * np.log(-np.expm1(s * neg_b))

    return integrand


def gr_log_integral(u: float, v: float, *, abs_tol: float = 1e-10) -> float:
    """Numerically evaluate int_0^inf exp(-u x) ln(1 - exp(-v x)) dx.

    In the scale s = c x, c = max(u, v), a = u/c, b = v/c, it is J/c with J = int_0^T
    e^(-a s) ln(1 - e^(-b s)) ds, whose tail beyond T is below e^(-(a+b) T) / ((a+b)
    (1 - e^(-b T))) as -ln(1 - z) <= z/(1 - z). abs_tol bounds the error of J; since
    |J| >= 1, the returned value's relative error is at most about abs_tol (its absolute
    error about abs_tol/max(u, v)). Raises ConvergenceError where b < DBL_MIN
    (u/v > 4.5e307). It should match -(gamma + psi(u/v + 1))/u.
    """
    u = _require_positive(u, "u")
    v = _require_positive(v, "v")
    tol = _require_positive(abs_tol, "abs_tol")
    c = max(u, v)
    a, b = u / c, v / c
    if b < 2.0**-1022:  # DBL_MIN
        raise ConvergenceError(f"v/u below DBL_MIN at u = {u!r}, v = {v!r}")

    tail = lambda t: math.exp(-(a + b) * t) / ((a + b) * -math.expm1(-b * t))  # noqa: E731
    return _adaptive(_log_integrand(a, b), tail, tol) / c

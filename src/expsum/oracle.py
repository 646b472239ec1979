"""Independent numerical ground truth for the closed forms.

Three oracles, none of which share code paths with the closed-form
entropy expressions:

* ``entropy_quadrature`` integrates -f ln f directly, like the other two
  quadratures by adaptive Gauss-Kronrod over [0, inf), mapped onto u in
  (0, 1] by x = (1 - u)/u, with no cut-off.
* ``entropy_monte_carlo`` is the resubstitution estimator
  -(1/n) sum ln f(Y_i) over seeded samples drawn from f itself, taken in
  the unit scale as -ln lambda_lo + (1/n) sum (t_i - ln k_i).
* ``gr_log_integral`` numerically evaluates the exponential-log integral
  int_0^inf exp(-u x) ln(1 - exp(-v x)) dx, whose closed form
  -(gamma + psi(u/v + 1))/u is tabulated in Gradshteyn and Ryzhik's
  integral tables; checking one against the other validates the identity
  the entropy derivation rests on.

The entropy oracles work in ``dist``'s unit scale t = lambda_lo y, where
f(y) = lambda_lo g(t) with g = e^(-t) k. The entropy is a scale family,
h(Y) = h(lambda_lo Y) - ln lambda_lo, so h = -ln lambda_lo + int g (t - ln k) dt,
which the quadratures integrate and Monte Carlo averages over samples of t.
The kernel forms d = gap y from t itself, so one integrand serves every rate
pair. Only the density kernel is shared with the package, never the digamma
closed form, so agreement checks the latter.
"""

from __future__ import annotations

import functools
import math
import os
from collections import namedtuple

from . import dist
from .dist import RatePair, exponential_draws
from .specfun import _require_positive


class ConvergenceError(RuntimeError):
    """Raised when a quadrature cannot reach its tolerance: its error estimate is not finite
    (or v/u < DBL_MIN), or the subdivision budget runs out, as below the floor ``_ROUNDOFF``."""


#: A Monte-Carlo estimate with its standard error and sample count.
EstimateWithError = namedtuple("EstimateWithError", "estimate std_error n_samples")


#: Panel splits the adaptive integrator may make before it gives up.
MAX_SUBDIVISIONS = 2000

# QUADPACK dqk15's floor on a panel's error estimate, as a multiple of |Kronrod value|:
# K and G can round to one double, so |K - G| alone may read 0 (Piessens et al. 1983).
# A tolerance below what doubles resolve therefore raises ConvergenceError.
_ROUNDOFF = 50.0 * 2.0**-52

#: Samples drawn and evaluated per chunk by ``entropy_monte_carlo``, whose
#: docstring gives its buffers and peak memory; at 10^7 samples on one core no
#: size from 2^14 to 2^20 ran faster. Changing it changes the estimates' last
#: bits for n above it.
MC_CHUNK = 1 << 16

# Gauss-Kronrod 15(7) on [-1, 1], QUADPACK dqk15's abscissae and weights (Piessens et al.
# 1983): per node, ascending, (node, Kronrod weight, Gauss weight), the Gauss weight 0.0 on
# the eight Kronrod-only nodes. |K15 - G7| serves as the per-panel error estimate.
_GK15 = (
    (-0.9914553711208126, 0.0229353220105292, 0.0),
    (-0.9491079123427585, 0.0630920926299785, 0.1294849661688697),
    (-0.8648644233597691, 0.1047900103222502, 0.0),
    (-0.7415311855993944, 0.1406532597155259, 0.2797053914892767),
    (-0.5860872354676911, 0.1690047266392679, 0.0),
    (-0.4058451513773972, 0.1903505780647854, 0.3818300505051189),
    (-0.2077849550078985, 0.2044329400752989, 0.0),
    (0.0, 0.2094821410847278, 0.4179591836734694),
    (0.2077849550078985, 0.2044329400752989, 0.0),
    (0.4058451513773972, 0.1903505780647854, 0.3818300505051189),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.7415311855993944, 0.1406532597155259, 0.2797053914892767),
    (0.8648644233597691, 0.1047900103222502, 0.0),
    (0.9491079123427585, 0.0630920926299785, 0.1294849661688697),
    (0.9914553711208126, 0.0229353220105292, 0.0),
)
_NODES, _KRONROD, _GAUSS = zip(*_GK15)  # the table's columns


#: The start panels whose halves the first integrand call evaluates too, ascending: on rate
#: pairs the first round splits [0, 1/4], most often [1/4, 1/2] too, and seldom anything else.
_PRESPLIT = (0, 1)


@functools.cache  # on first use: no numpy at import
def _first_round():
    """What every quadrature starts from, read-only: the Kronrod and Gauss columns and the
    nodes of ``_GK15``; ``_adaptive``'s 46 start panels a, b with their midpoints and
    half-widths, then the halves of each ``_PRESPLIT`` panel, (a, mid) and (mid, b), as
    ``_adaptive`` bisects; the nodes x = (1 - u)/u and Jacobian u^2 of all these rows; and
    the start panel that each half came from."""
    import numpy as np

    nodes, kronrod, gauss = np.array((_NODES, _KRONROD, _GAUSS))
    edges = np.array((0.0, 0.25, 0.5, 0.75, *(1.0 - 2.0**-k for k in range(3, 45)), 1.0))
    a, b = edges[:-1], edges[1:]  # exact
    mid = 0.5 * (a + b)
    halves = np.array((a, mid, mid, b)).T[list(_PRESPLIT)].reshape(-1, 2).T
    a, b = np.concatenate(((a, b), halves), axis=1)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    u = mid[:, None] + half[:, None] * nodes
    parent = np.repeat(np.array(_PRESPLIT, dtype=np.intp), 2)
    start = (kronrod, gauss, nodes, a, b, mid, half, (1.0 - u) / u, u * u, parent)
    for array in start:
        array.flags.writeable = False
    return start


def _panel_sums(fx, half, kronrod, gauss):
    """Each row's Kronrod value and error estimate from the integrand values fx in u."""
    import numpy as np

    # per column, not fx @ rule, which OpenBLAS rounds by its kernel and row count
    k = half * np.add.reduce(fx * kronrod, axis=1)
    return k, np.maximum(abs(k - half * np.add.reduce(fx * gauss, axis=1)), _ROUNDOFF * abs(k))


def _adaptive(f, abs_tol: float) -> float:
    """int_0^inf f(x) dx as int_0^1 f((1 - u)/u)/u^2 du, QUADPACK's QAGI map (Piessens et al. 1983),
    by Gauss-Kronrod 15(7) bisection in u, breadth first, from 46 panels with edges 0, 1/4, 1/2,
    3/4, 1 - 2^-k (3 <= k <= 44) and 1: dyadic toward a boundary layer at x = 0, where 1 - u is
    exact. Each round closes each open panel whose error estimate is within an equal share of
    the tolerance left, and bisects the rest. The first call of f covers ``_first_round``'s
    shared, read-only x: the start panels and the halves of the ``_PRESPLIT`` ones. A second
    round on those halves alone makes no call; every other round calls f once on the x of all
    open panels' nodes, a (panels, 15) float array whose shape f's result keeps. A row's sums
    depend on its nodes alone, so no bit depends on which call evaluated it. numpy's overflow,
    invalid and divide warnings are off. Raises ValueError unless abs_tol is positive and finite."""
    abs_tol = _require_positive(abs_tol, "abs_tol")
    import numpy as np

    kronrod, gauss, nodes, a, b, mid, half, x, jac, parent = _first_round()
    starts = a.size - parent.size
    # d = gap t overflows exactly; x = 0 at a node rounded to u = 1 gives ln(1 - e^0) = -inf;
    # an inf meets a zero Gauss weight: the nan estimate is reported below, not warned
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k, err = _panel_sums(f(x) / jac, half, kronrod, gauss)
        points = x.size
        # the start panels' rows open the first round; the halves' rows wait for the second
        ahead = tuple(array[starts:] for array in (a, b, mid, half, k, err))
        a, b, mid, half, k, err = (array[:starts] for array in (a, b, mid, half, k, err))
        closed, closed_err = [], 0.0
        while True:
            total_err = closed_err + float(np.add.reduce(err))
            if total_err <= abs_tol:  # a nan estimate is not convergence
                return math.fsum(closed + k.tolist())
            # an equal share of what is left: a total above abs_tol leaves a panel above it
            keep = err <= (abs_tol - closed_err) / err.size
            split = ~keep
            splits = len(closed) + err.size - starts  # each split made one panel two
            n_split = np.count_nonzero(split)
            if not math.isfinite(total_err) or splits + n_split > MAX_SUBDIVISIONS:
                break
            closed += k[keep].tolist()
            closed_err += float(np.add.reduce(err[keep]))
            if ahead:  # the second round
                halves, ahead = ahead, ()
                rows = split[parent]  # the halves of the split panels
                if np.count_nonzero(rows) == 2 * n_split:  # and no other panel split
                    a, b, mid, half, k, err = (array[rows] for array in halves)
                    continue
            # each split panel's halves (a, mid) and (mid, b) in its place, so the open panels
            # stay in ascending order, and their nodes as ``_first_round`` forms the start's
            a, b = np.array((a, mid, mid, b)).T[split].reshape(-1, 2).T
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            u = mid[:, None] + half[:, None] * nodes
            k, err = _panel_sums(f((1.0 - u) / u) / (u * u), half, kronrod, gauss)
            points += u.size
    worst = int(np.argmax(err))  # the first nan, if there is one
    cause = ""
    if np.isnan(err[worst]) and (mid[worst] + half[worst] * nodes == 1.0).any():
        cause = "; a node of that panel rounds to u = 1.0, where x = 0 and ln(1 - e^(-x)) = -inf"
    raise ConvergenceError(
        f"estimated error {total_err:.3e} above tolerance {abs_tol:.3e} after {splits} "
        f"subdivisions of u in (0.0, 1.0] ({points} integrand points); worst panel "
        f"[{float(a[worst])!r}, {float(b[worst])!r}] with estimated error {err[worst]:.3e}{cause}"
    )


def _normalization_integrand(rates: RatePair):
    """The function g = e^(-t) k of the module docstring at the nodes x = t, k from
    ``dist._unit_kernel`` at scale 1.0. Like every integrand here it never writes into x,
    and leaves the kernel's overflow warning to ``_adaptive``."""
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


def entropy_quadrature(rates: RatePair, *, abs_tol: float = 1e-10) -> float:
    """Differential entropy -int f ln f of the sum at ``rates``, by adaptive quadrature
    of -ln lambda_lo + int_0^inf g (t - ln k) dt, with 0 ln 0 = 0 where k vanishes."""
    return _adaptive(_entropy_integrand(rates), abs_tol) - math.log(rates.lambda_lo)


def normalization_quadrature(rates: RatePair, *, abs_tol: float = 1e-10) -> float:
    """int f = int_0^inf g dt at ``rates``, as in ``entropy_quadrature``; should be 1."""
    return _adaptive(_normalization_integrand(rates), abs_tol)


def _usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mc_stripe(rates: RatePair, n: int, seed: int, starts: range, vals_buf, k_buf, stop) -> list:
    """Draw, evaluate and reduce the chunks at ``starts`` in order; return the list of
    their (sum, M2), or raise FloatingPointError at the first chunk whose sum is not
    finite. ``vals_buf`` holds t and ``k_buf`` the lambda_lo draws and k, as in
    ``entropy_monte_carlo``, one sub-block of its length at a time: the work is
    elementwise, so no bit moves. It stops before its next chunk once ``stop`` is set."""
    import numpy as np

    hi, lo = rates
    rng_hi = np.random.default_rng(seed)
    rng_lo = np.random.default_rng(seed)
    rng_hi.bit_generator.advance(starts[0])  # each draw takes one uniform
    rng_lo.bit_generator.advance(n + starts[0])
    pairs = []
    for start in starts:
        if stop.is_set():
            break
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
    at most three chunk buffers, 1.5 MB at 2^16. The stripes return each
    chunk's sum and sum of squared deviations M2, merged in chunk order, the
    sums with Neumaier's compensation and the M2 values with the pairwise
    update of Chan, Golub and LeVeque (1979). For n <= ``MC_CHUNK`` there is
    one chunk, no thread is started, and the estimates are bit-identical to
    the one-shot ``vals.mean() - ln lambda_lo`` and ``vals.std(ddof=1)``;
    above that they agree with it to a few ulp (within 1 ulp of the correctly
    rounded mean, and M2 within 1e-15 relative, on the cases measured up to
    10^7 samples).

    Raises FloatingPointError, naming the sample, where t - ln k is inf or nan.
    Each stripe raises its own at its first such chunk. The second stripe's
    error is raised only once the first stripe, which holds the lower chunks,
    has finished, so the error raised is the lowest failing chunk's. Any
    exception in the calling thread, a KeyboardInterrupt included, stops the
    pool thread before its next chunk, and leaves only after it was joined.
    """
    import threading

    import numpy as np

    n = int(n)
    if n < 2:
        raise ValueError(f"n must be at least 2 to form a standard error, got {n}")
    starts = range(0, n, MC_CHUNK)
    stripes = min(2, _usable_cores(), len(starts))
    cut = -(-len(starts) // stripes)
    # allocated here, not in the pool thread, whose own malloc arena would add to peak memory
    half = -(-MC_CHUNK // 2)
    stop = threading.Event()
    jobs = [
        (rates, n, seed, part, np.empty(min(n, MC_CHUNK)), np.empty(min(n, half)), stop)
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
            try:
                pairs = _mc_stripe(*jobs[0]) + second()
            finally:  # after the second stripe returned, or on any exception: stop it
                stop.set()
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

    In the scale s = c x, c = max(u, v), a = u/c, b = v/c, it is J/c with J = int_0^inf
    e^(-a s) ln(1 - e^(-b s)) ds. abs_tol bounds the error of J; since |J| >= 1, the
    returned value's relative error is at most about abs_tol (its absolute error about
    abs_tol/max(u, v)). Raises ConvergenceError where b < DBL_MIN (u/v > 4.5e307), before
    ``_adaptive`` checks abs_tol. It should match -(gamma + psi(u/v + 1))/u.
    """
    u = _require_positive(u, "u")
    v = _require_positive(v, "v")
    c = max(u, v)
    a, b = u / c, v / c
    if b < 2.0**-1022:  # DBL_MIN
        raise ConvergenceError(f"v/u below DBL_MIN at u = {u!r}, v = {v!r}")
    return _adaptive(_log_integrand(a, b), abs_tol) / c

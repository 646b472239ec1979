"""Seeded inputs and the closed-loop workloads.

Every workload is one caller that sends its next request only after the
previous one returned. The seed fixes every generated input; the package
sees only the generated arguments.

Rate pairs come from three classes (moderate, separated, near-equal)
with all rates in [1e-6, 1e6]. The gated workloads keep to inputs on
which the package meets its tolerances today: ``mc`` takes moderate and
separated pairs in equal halves, ``oracle`` pairs of ratio 1.1 to 100
with both rates in [0.1, 10]. ``oracle-full`` and ``mc-full`` take the
three classes in equal thirds and measure the package's known failures
there (ROADMAP item 3); they are not gated. Within a class, positions
come from a two-dimensional additive low-discrepancy sequence with a
seeded offset, so that any prefix of the stream covers the class evenly
and the share of inputs that hit a given region of the domain varies
little from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time

import check
from expsum import cli, oracle
from expsum.dist import HypoexpTwo, RatePair

RATE_MIN_LOG10, RATE_MAX_LOG10 = -6.0, 6.0
GRID_POINTS = 2000
MC_SIZES = (10**6, 10**7)

# log10 of (hi/lo) for moderate and separated pairs, of (hi/lo - 1) for
# near-equal ones.
PAIR_CLASSES = {
    "moderate": (math.log10(1.01), 2.0),
    "separated": (2.0, 6.0),
    "near_equal": (-12.0, -3.0),
}

# Additive recurrence steps 1/g and 1/g^2, g the plastic number (the R2
# sequence of Roberts, 2018).
_G = 1.324717957244746
_STEP = (1.0 / _G, 1.0 / (_G * _G))


def _log_rate(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(RATE_MIN_LOG10, RATE_MAX_LOG10)


def point_args(seed: int):
    """Endless argument lists for the three point-query subcommands.

    Each block of three holds one ``entropy``, one ``mi`` and one
    ``cond-entropy`` in a seeded order, with log-uniform rates.
    """
    rng = random.Random(f"point/{seed}")
    kinds = ["entropy", "mi", "cond-entropy"]
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "entropy":
                yield ["entropy", "--lambda-w", repr(_log_rate(rng)),
                       "--lambda-x", repr(_log_rate(rng)), "--method", "closed"]
            elif kind == "mi":
                yield ["mi", "--signal-rate", repr(_log_rate(rng)),
                       "--noise-rate", repr(_log_rate(rng))]
            else:
                yield ["cond-entropy", "--lambda-x", repr(_log_rate(rng)),
                       "--lambda-w-on", repr(_log_rate(rng)),
                       "--lambda-w-off", repr(_log_rate(rng)),
                       "--p-on", repr(rng.random())]


def figure_blocks(seed: int):
    """Endless blocks of the four figure commands in a seeded order."""
    rng = random.Random(f"figures/{seed}")
    jobs = [(fig, fmt) for fig in ("fig1", "fig2") for fmt in ("csv", "json")]
    while True:
        rng.shuffle(jobs)
        yield list(jobs)


def rate_pairs(seed: int, classes=PAIR_CLASSES,
               log10_range=(RATE_MIN_LOG10, RATE_MAX_LOG10)):
    """Endless (class, lambda_hi, lambda_lo) triples, classes in equal shares,
    both rates within ``10 ** log10_range``; ``classes`` maps each name to
    its range as in PAIR_CLASSES."""
    rng = random.Random(f"pairs/{seed}")
    offsets = {c: (rng.random(), rng.random()) for c in classes}
    counts = dict.fromkeys(classes, 0)
    order = list(classes)
    rate_min, rate_max = log10_range
    while True:
        rng.shuffle(order)
        for cls in order:
            counts[cls] += 1
            n = counts[cls]
            u = (offsets[cls][0] + n * _STEP[0]) % 1.0
            v = (offsets[cls][1] + n * _STEP[1]) % 1.0
            a, b = classes[cls]
            x = a + (b - a) * u
            ratio = 1.0 + 10.0**x if cls == "near_equal" else 10.0**x
            span = rate_max - rate_min - math.log10(ratio)
            lo = 10.0 ** (rate_min + span * v)
            hi = min(lo * ratio, 10.0**rate_max)
            yield cls, hi, lo


class Run:
    """What one workload run shares across operations."""

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.src = os.path.join(root, "src")
        self.out = os.path.join(root, "benchmarks", "out")
        os.makedirs(self.out, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.checker = check.Checker()
        self.figure_bytes = 0
        self.figure_verdicts = {}


def _timed(fn, *args, **kwargs):
    """Call ``fn``; returns (result, name of the exception raised or None, ns).

    Only the exception's name is kept: holding the exception would keep
    its traceback's frames, and their data, alive until the next cyclic
    garbage collection, which inflates peak memory.
    """
    t0 = time.perf_counter_ns()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the caller records it as a failed operation
        return None, type(exc).__name__, time.perf_counter_ns() - t0
    return result, None, time.perf_counter_ns() - t0


# --------------------------------------------------------------------- point


def _point_refs(argv):
    """Reference value of every line a point query prints."""
    a = {flag: value for flag, value in zip(argv[1::2], argv[2::2])}
    if argv[0] == "entropy":
        return {"entropy_nats": check.entropy_ref(float(a["--lambda-w"]), float(a["--lambda-x"]))}
    if argv[0] == "mi":
        return {
            "mutual_information": check.mi_ref(
                float(a["--signal-rate"]), float(a["--noise-rate"])
            )
        }
    x = float(a["--lambda-x"])
    h_on = check.entropy_ref(x, float(a["--lambda-w-on"]))
    h_off = check.entropy_ref(x, float(a["--lambda-w-off"]))
    p = check.mp.mpf(float(a["--p-on"]))
    return {
        "cond_entropy_nats": (1 - p) * h_off + p * h_on,
        "branch_on_nats": h_on,
        "branch_off_nats": h_off,
    }


def point_op(run: Run, argv, tracer):
    """One fresh ``python -m expsum.cli`` process; returns (ns, items)."""
    op = f"cli.{argv[0]}"
    proc, err, ns = _timed(
        tracer.call, "cli.process", subprocess.run,
        [sys.executable, "-m", "expsum.cli", *argv],
        capture_output=True, text=True, env=run.env, cwd=run.root, timeout=120,
    )
    if err is not None:
        run.checker.record(op, False, err)
    elif proc.returncode != 0:
        run.checker.record(op, False, "nonzero_exit")
    else:
        got = {}
        for line in proc.stdout.splitlines():
            parts = line.split()
            if len(parts) >= 2:
                got[parts[0]] = float(parts[1])
        refs = _point_refs(argv)
        if refs.keys() <= got.keys():
            run.checker.values(op, [(got[k], r) for k, r in refs.items()], check.CLOSED_TOL)
        else:
            run.checker.record(op, False)
    return ns, 1


# ------------------------------------------------------------------- figures


def figures_op(run: Run, block, tracer):
    """The four figure commands, each written to a file; returns (ns, rows).

    Output that repeats byte for byte is checked once and its verdict
    reused; the check never runs inside the timed region.
    """
    path = os.path.join(run.out, "figure.out")
    total_ns = rows = 0
    for fig, fmt in block:
        op = f"cli.figure.{fig}.{fmt}"
        argv = ["figure", fig, "--grid-points", str(GRID_POINTS), "--format", fmt, "--out", path]
        code, err, ns = _timed(tracer.call, f"cli.figure.{fmt}", cli.main, argv)
        total_ns += ns
        if err is not None:
            run.checker.record(op, False, err)
            continue
        if code != 0:
            run.checker.record(op, False, "nonzero_exit")
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        run.figure_bytes += len(data)
        key = (fig, fmt, hashlib.sha256(data).hexdigest())
        if key not in run.figure_verdicts:
            # A child process parses the output and builds the references,
            # so their memory stays out of this process's peak.
            proc = subprocess.run(
                [sys.executable, check.__file__, fig, fmt, path, str(GRID_POINTS)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            verdict = json.loads(proc.stdout)
            run.checker.max_abs_err = max(run.checker.max_abs_err, verdict["max_abs_err"])
            run.figure_verdicts[key] = (verdict["ok"], verdict["rows"])
        ok, n_rows = run.figure_verdicts[key]
        run.checker.record(op, ok)
        rows += n_rows
    return total_ns, rows


# -------------------------------------------------------------------- oracle


def oracle_op(run: Run, pair, tracer):
    """The three oracles on one rate pair; returns (ns, pairs)."""
    cls, hi, lo = pair
    calls = (
        ("entropy_quadrature",
         lambda: oracle.entropy_quadrature(HypoexpTwo(RatePair(hi, lo))),
         lambda: check.entropy_ref(hi, lo), check.QUAD_TOL),
        ("normalization_quadrature",
         lambda: oracle.normalization_quadrature(HypoexpTwo(RatePair(hi, lo))),
         lambda: 1, check.NORM_TOL),
        ("gr_log_integral",
         lambda: oracle.gr_log_integral(lo, hi - lo),
         lambda: check.gr_ref(lo, hi - lo), check.GR_TOL),
    )
    total_ns = 0
    for name, fn, ref, tol in calls:
        value, err, ns = _timed(fn)
        total_ns += ns
        op = f"oracle.{name}/{cls}"
        if err is not None:
            run.checker.record(op, False, err)
        else:
            run.checker.value(op, value, ref(), tol)
    return total_ns, 1


# ------------------------------------------------------------------------ mc


def mc_op(run: Run, pair, tracer):
    """Monte-Carlo entropy at 10^6 and 10^7 samples; returns (ns, samples)."""
    cls, hi, lo, seed = pair
    total_ns = 0
    for n in MC_SIZES:
        est, err, ns = _timed(
            lambda: oracle.entropy_monte_carlo(HypoexpTwo(RatePair(hi, lo)), n, seed)
        )
        total_ns += ns
        op = f"oracle.entropy_monte_carlo/{cls}"
        if err is not None:
            run.checker.record(op, False, err)
        else:
            run.checker.z_score(op, est.estimate, est.std_error, check.entropy_ref(hi, lo))
    return total_ns, sum(MC_SIZES)


def oracle_pairs(seed: int):
    """Rate pairs for ``oracle``: ratio 1.1 to 100, both rates in [0.1, 10].

    ``gr_log_integral`` holds its absolute tolerance on the integral after
    the substitution, so its error grows as 1/v with v = lambda_hi -
    lambda_lo; at ratio 1.1 and up, v >= 0.01 keeps it within 1e-8.
    """
    return rate_pairs(seed, {"moderate": (math.log10(1.1), 2.0)}, (-1.0, 1.0))


def mc_pairs(seed: int, classes=("moderate", "separated")):
    """Rate pairs for ``mc``, each with its own Monte-Carlo seed; ``classes``
    names the pair classes to draw from."""
    picked = {c: PAIR_CLASSES[c] for c in classes}
    for i, (cls, hi, lo) in enumerate(rate_pairs(seed, picked)):
        yield cls, hi, lo, seed * 1_000_003 + i


def mc_full_pairs(seed: int):
    """Rate pairs for ``mc-full``: all three classes."""
    return mc_pairs(seed, tuple(PAIR_CLASSES))


WORKLOADS = {
    "point": (point_args, point_op),
    "figures": (figure_blocks, figures_op),
    "oracle": (oracle_pairs, oracle_op),
    "mc": (mc_pairs, mc_op),
    "oracle-full": (rate_pairs, oracle_op),
    "mc-full": (mc_full_pairs, mc_op),
}

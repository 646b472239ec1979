"""Run one benchmark workload against the package in ``src/``.

    python3 benchmarks/run.py --workload oracle --seed 3 --seconds 25 --trace 0

Workloads: point, figures, oracle and mc, and the ungated oracle-full and
mc-full, which measure known failures (see benchmarks/README.md). The
run measures until its timed operations add up to ``--seconds``, checks
every output against an mpmath reference, prints a readable report and,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps the layer boundaries and reports per-layer
metrics instead. Exits 2 without a result when the package is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Tail percentile of op latency per workload, each leaving at least ten
#: operations beyond it at the baseline op count of a 25-second run.
TAIL_PERCENTILE = {
    "point": 90, "figures": 70, "oracle": 95, "mc": 60, "oracle-full": 95, "mc-full": 60,
}
SETUP_REPEATS = 7
IMPORT_REPEATS = 5


def _percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def setup_seconds(run, workload):
    """Seconds a fresh process takes to import the package and make the
    workload's first call, as reported by the probe itself."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         os.path.join(run.out, "setup.out")],
        capture_output=True, text=True, env=run.env, cwd=ROOT, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def import_split(run):
    """(python_ms, numpy_ms, expsum_self_ms, unmeasured) from fresh processes.

    ``python -c pass`` gives the bare interpreter; ``-X importtime`` on
    ``import expsum.cli`` gives the cumulative import time of numpy and
    of the whole import, whose difference is the package's own share.
    """
    bare = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=run.env, cwd=ROOT, timeout=120, check=True)
        bare.append((time.perf_counter() - t0) * 1e3)
    numpy_us, self_us = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import expsum.cli"],
            capture_output=True, text=True, env=run.env, cwd=ROOT, timeout=120, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]))
        if "expsum.cli" not in cumulative:
            return statistics.median(bare), 0.0, 0.0, ["import.expsum.cli"]
        numpy_us.append(cumulative.get("numpy", 0))
        self_us.append(cumulative["expsum.cli"] - numpy_us[-1])
    return statistics.median(bare), statistics.median(numpy_us) / 1e3, statistics.median(self_us) / 1e3, []


def cli_main_us(argvs):
    """Median microseconds of an in-process ``cli.main`` on point queries."""
    from expsum import cli

    times = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter_ns()
            cli.main(argv)
            times.append((time.perf_counter_ns() - t0) / 1e3)
    return statistics.median(times)


def layer_metrics(workload, run, tracer, op_ns, traced_ns, n_ops):
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    import workloads

    t = tracer
    per_op = 1.0 / t.op if t.op else 0.0
    python_ms, numpy_ms, expsum_ms, missing = import_split(run)
    point_argvs = []
    if workload == "point":
        args = workloads.point_args(run.seed)
        point_argvs = [next(args) for _ in range(30)]
    quads = ("oracle.entropy_quadrature", "oracle.normalization_quadrature")
    quad_calls = sum(t.calls(q) for q in quads)
    quad_ns = sum(t.agg[q][1] for q in quads if q in t.agg)
    quad_self_ns = sum(t.agg[q][2] for q in quads if q in t.agg)
    digamma_calls = t.calls("specfun.digamma_minus_log")
    computed_bytes = 8 * (
        t.work("dist.sample_hypoexp") + 2 * t.work("dist.hypoexp_log_pdf") + 2 * t.work("dist.pdf")
    )
    convergence = sum(
        n for (_, kind), n in run.checker.failures.items() if kind == "ConvergenceError"
    )
    figure_cmds = t.calls("cli.figure.csv") + t.calls("cli.figure.json")
    untraced = _median_or_zero(op_ns)
    overhead = _median_or_zero(traced_ns) / untraced - 1.0 if untraced else 0.0
    unmeasured = t.unmeasured + missing
    return {
        "import.python_ms": (python_ms, "ms"),
        "import.numpy_ms": (numpy_ms, "ms"),
        "import.expsum_self_ms": (expsum_ms, "ms"),
        "cli.main_us": (cli_main_us(point_argvs) if point_argvs else 0.0, "us"),
        "cli.figure_self_ms.csv": (t.mean_ns("cli.figure.csv", self_time=True) / 1e6, "ms"),
        "cli.figure_self_ms.json": (t.mean_ns("cli.figure.json", self_time=True) / 1e6, "ms"),
        "cli.bytes_written": (run.figure_bytes / figure_cmds if figure_cmds else 0.0, "B"),
        "entropy.hypoexp_entropy.calls": (t.calls("entropy.hypoexp_entropy") * per_op, "count/op"),
        "entropy.hypoexp_entropy.ns": (t.mean_ns("entropy.hypoexp_entropy"), "ns"),
        "entropy.mean_constrained_rates.ns": (t.mean_ns("entropy.mean_constrained_rates"), "ns"),
        "entropy.exp_entropy.calls": (t.calls("entropy.exp_entropy") * per_op, "count/op"),
        "entropy.erlang2_entropy.calls": (t.calls("entropy.erlang2_entropy") * per_op, "count/op"),
        "specfun.digamma_minus_log.calls": (digamma_calls * per_op, "count/op"),
        "specfun.digamma_minus_log.ns": (t.mean_ns("specfun.digamma_minus_log"), "ns"),
        "specfun.digamma_minus_log.recurrence_share": (
            t.work("specfun.digamma_minus_log") / digamma_calls if digamma_calls else 0.0,
            "fraction",
        ),
        "dist.RatePair.ns": (t.mean_ns("dist.RatePair"), "ns"),
        "dist.pdf.calls": (t.calls("dist.pdf") * per_op, "count/op"),
        "dist.pdf.points": (
            t.work("dist.pdf") / t.calls("dist.pdf") if t.calls("dist.pdf") else 0.0,
            "points/call",
        ),
        "dist.pdf.us_per_call": (t.mean_ns("dist.pdf") / 1e3, "us"),
        "dist.sample_hypoexp.ns_per_sample": (t.per_work_ns("dist.sample_hypoexp"), "ns"),
        "dist.hypoexp_log_pdf.ns_per_point": (t.per_work_ns("dist.hypoexp_log_pdf"), "ns"),
        "dist.bytes_moved_computed": (computed_bytes * per_op, "B/op"),
        "oracle.entropy_quadrature.ms": (t.mean_ns("oracle.entropy_quadrature") / 1e6, "ms"),
        "oracle.normalization_quadrature.ms": (
            t.mean_ns("oracle.normalization_quadrature") / 1e6, "ms"
        ),
        "oracle.gr_log_integral.ms": (t.mean_ns("oracle.gr_log_integral") / 1e6, "ms"),
        "oracle.quad.pdf_calls_per_call": (
            t.calls("dist.pdf") / quad_calls if quad_calls else 0.0, "count"
        ),
        "oracle.quad.self_share": (quad_self_ns / quad_ns if quad_ns else 0.0, "fraction"),
        "oracle.convergence_errors": (convergence / n_ops, "count/op"),
        "oracle.entropy_monte_carlo.self_ms": (
            t.mean_ns("oracle.entropy_monte_carlo", self_time=True) / 1e6, "ms"
        ),
        "trace.overhead_frac": (overhead, "fraction"),
        "trace.unmeasured_wraps": (float(len(unmeasured)), "count"),
        "check.max_abs_err_nats": (run.checker.max_abs_err, "nats"),
    }, unmeasured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "expsum", "__init__.py")):
        print(f"error: no package at {os.path.join(SRC, 'expsum')}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import setup_probe
    import spans
    import workloads

    run = workloads.Run(ROOT, args.seed)
    setup_seconds(run, args.workload)  # untimed: fills the bytecode cache
    setup_probe.first_call(args.workload, os.path.join(run.out, "setup.out"))

    inputs, op = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    op_ns, traced_ns, setup_times = [], [], []
    items = spent = 0
    limit = args.seconds * 1e9
    # Closed loop; a traced run traces every other operation so that the
    # untraced ones in between give the tracing overhead. The set-up probes
    # are spread over the run, outside the timed operations, because the
    # host's speed drifts over seconds.
    for i, item in enumerate(inputs(args.seed)):
        due = min(SETUP_REPEATS, int(spent * SETUP_REPEATS // limit) + 1)
        while tracer is None and len(setup_times) < due:
            setup_times.append(setup_seconds(run, args.workload))
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.install()
            try:
                ns, n = op(run, item, tracer)
            finally:
                tracer.uninstall()
                tracer.end_op()
            traced_ns.append(ns)
        else:
            ns, n = op(run, item, spans.NullTracer)
            op_ns.append(ns)
        items += n
        spent += ns
        if spent >= limit and (tracer is None or op_ns):
            break
    while tracer is None and len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_seconds(run, args.workload))

    checker = run.checker
    n_ops = len(op_ns) + len(traced_ns)
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"ops {n_ops}  checked outputs {checker.attempted}  failed {checker.failed}"
    )
    for (name, kind), n in sorted(checker.failures.items()):
        print(f"  failed  {name:48s} {kind:20s} {n}")
    if tracer is None:
        who = resource.RUSAGE_CHILDREN if args.workload == "point" else resource.RUSAGE_SELF
        ms = sorted(x / 1e6 for x in op_ns)
        tail = TAIL_PERCENTILE[args.workload]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_ms_tail": (_percentile(ms, tail), "ms"),
            "items_per_s": (items / (spent / 1e9), "1/s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
            "ok_frac": ((checker.attempted - checker.failed) / checker.attempted, "fraction"),
        }
        print(f"  {len(ms)} operations, median {statistics.median(ms):.4g} ms (printed, not a "
              f"metric), op_ms_tail is p{tail}; max_abs_err_nats {checker.max_abs_err:.3e}")
    else:
        metrics, unmeasured = layer_metrics(args.workload, run, tracer, op_ns, traced_ns, n_ops)
        tracer.write(os.path.join(run.out, f"spans-{args.workload}.jsonl"))
        if unmeasured:
            print(f"  unmeasured (wrapped name missing): {', '.join(unmeasured)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

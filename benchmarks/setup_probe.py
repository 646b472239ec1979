"""Set-up cost in a fresh process: import the package and make a first call.

    PYTHONPATH=src python benchmarks/setup_probe.py <workload> <scratch-file>

prints the seconds from just before ``import expsum`` to the end of the
workload's first call. Interpreter start-up is not included.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time


def first_call(workload: str, scratch: str) -> None:
    """The smallest call of the kind ``workload`` makes, importing on demand."""
    from expsum import cli, oracle
    from expsum.dist import HypoexpTwo, RatePair

    if workload == "point":
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["entropy", "--lambda-w", "2", "--lambda-x", "1"])
    elif workload == "figures":
        cli.main(["figure", "fig2", "--grid-points", "2", "--out", scratch])
    elif workload in ("oracle", "oracle-full"):
        oracle.entropy_quadrature(HypoexpTwo(RatePair(2.0, 1.0)))
    elif workload in ("mc", "mc-full"):
        oracle.entropy_monte_carlo(HypoexpTwo(RatePair(2.0, 1.0)), 1000, 0)
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    t0 = time.perf_counter()
    first_call(sys.argv[1], sys.argv[2])
    print(repr(time.perf_counter() - t0))

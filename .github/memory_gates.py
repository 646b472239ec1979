"""Peak memory of the commands that stream their work, as pass/fail checks.

Runs each command of ``GATES`` in its own child process and reads that
child's peak resident set size from ``os.wait4``. Exits with the first
child's code when a child itself fails, 1 when any peak is above its
limit, and 0 otherwise.

    PYTHONPATH=src python .github/memory_gates.py
"""

import os
import subprocess
import sys

GATES = [
    # (name, expsum arguments, limit in MB)
    # The estimator keeps three chunk buffers across its two stripes, so its
    # memory should not grow with the sample count; one unstreamed array of
    # 2e7 samples alone would take 160 MB.
    ("Monte-Carlo entropy at 2e7 samples",
     ["entropy", "--lambda-w", "2", "--lambda-x", "1", "--method", "mc",
      "--n", "20000000", "--seed", "1"], 45.0),
    # Figure rows are computed and written in blocks, so memory is one block
    # plus one curve's grid; this 31 MB file built as one string took 208 MB,
    # and its whole columns 65 MB.
    ("fig1 JSON at 20000 grid points",
     ["figure", "fig1", "--grid-points", "20000", "--format", "json",
      "--out", os.devnull], 45.0),
    # the same limit at four times the points: memory must not grow with them
    ("fig1 CSV at 80000 grid points",
     ["figure", "fig1", "--grid-points", "80000", "--out", os.devnull], 45.0),
]


def peak_rss_mb(arguments):
    """The child's exit code and peak RSS in MB."""
    child = subprocess.Popen([sys.executable, "-m", "expsum.cli", *arguments])
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return child.returncode, usage.ru_maxrss / 1024.0  # KiB on Linux


def main():
    above = False
    for name, arguments, limit_mb in GATES:
        code, peak_mb = peak_rss_mb(arguments)
        if code:
            print(f"{name}: the child exited {code}")
            return code
        verdict = "ok" if peak_mb <= limit_mb else "above the limit"
        print(f"{name}: peak RSS {peak_mb:.1f} MB, limit {limit_mb:.0f} MB: {verdict}")
        above = above or peak_mb > limit_mb
    return 1 if above else 0


if __name__ == "__main__":
    sys.exit(main())

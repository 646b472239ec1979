"""Peak memory of a large Monte-Carlo entropy run, as a pass/fail check.

Runs ``expsum entropy --method mc`` at 2e7 samples in a child process and
reads the child's peak resident set size from ``getrusage(RUSAGE_CHILDREN)``.
Exits 1 when it is above ``LIMIT_MB``, 0 otherwise, and
with the child's code when the child itself fails. The estimator keeps three
chunk buffers, so its memory should not grow with the sample count; one
unstreamed array of 2e7 samples alone would take 160 MB.

    PYTHONPATH=src python .github/mc_memory.py
"""

import resource
import subprocess
import sys

COMMAND = ["entropy", "--lambda-w", "2", "--lambda-x", "1", "--method", "mc",
           "--n", "20000000", "--seed", "1"]
LIMIT_MB = 60.0


def main():
    child = subprocess.run([sys.executable, "-m", "expsum.cli", *COMMAND])
    if child.returncode:
        return child.returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # KiB on Linux
    verdict = "ok" if peak_mb <= LIMIT_MB else "above the limit"
    print(f"peak RSS of the child {peak_mb:.1f} MB, limit {LIMIT_MB:.0f} MB: {verdict}")
    return 0 if peak_mb <= LIMIT_MB else 1


if __name__ == "__main__":
    sys.exit(main())

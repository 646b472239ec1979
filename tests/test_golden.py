"""Golden outputs: figure data hashes and the exact stdout and exit code
of every subcommand over a fixed argument corpus.

``golden_cli.json`` was recorded from the release whose ``_fmt17`` still
called ``numpy.format_float_positional``. The corpus covers equal rates,
widely separated rates (1e-6 with 1e6), values that print below 1 with
and without dropped trailing zeros, seeded Monte-Carlo runs and the
argument and convergence errors. The figure hashes at 2 and 7 grid
points were added later, recorded from the release that still built the
figures row by row. The ``oracle`` corpus holds ``float.hex`` of each
quadrature oracle's value, or the text of the error it raised: entropy and
normalization on 59 rate pairs (equal rates, relative gaps of 5e-14 and
1e-9, ratios 1.1 to 100) and the log integral on the ``verify`` grid,
each at abs_tol 1e-10 and 1e-6. It was recorded from the release that
still dispatched the oracles on three distribution types. Any change to a
value here is a behaviour change and must be called out in CHANGES.md.
"""

import hashlib
import json
import pathlib

import pytest

from expsum import oracle
from expsum.cli import main
from expsum.dist import HypoexpTwo

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN["commands"]))
def test_command_output(capsys, command):
    expected = GOLDEN["commands"][command]
    code = main(command.split())
    assert (code, capsys.readouterr().out) == (expected["exit"], expected["stdout"])


@pytest.mark.parametrize("figure", sorted(GOLDEN["figures"]))
def test_figure_hash(tmp_path, figure):
    fig, fmt, grid = figure.split()
    out = tmp_path / "figure.out"
    argv = ["figure", fig, "--format", fmt, "--out", str(out)]
    if grid != "default":
        argv += ["--grid-points", grid]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["figures"][figure]


def outcome(fn):
    try:
        return float.hex(fn())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize(
    "case",
    GOLDEN["oracle"]["quadrature"],
    ids=lambda c: "{!r} {!r} tol {!r}".format(*c["rates"], c["abs_tol"]),
)
def test_quadrature_values(case):
    d = HypoexpTwo.from_rates(*case["rates"])
    tol = case["abs_tol"]
    got = {
        "entropy": outcome(lambda: oracle.entropy_quadrature(d, abs_tol=tol)),
        "normalization": outcome(lambda: oracle.normalization_quadrature(d, abs_tol=tol)),
    }
    assert got == {key: case[key] for key in got}


@pytest.mark.parametrize(
    "case",
    GOLDEN["oracle"]["gr_log_integral"],
    ids=lambda c: f"u {c['u']!r} v {c['v']!r} tol {c['abs_tol']!r}",
)
def test_gr_log_integral_values(case):
    value = outcome(lambda: oracle.gr_log_integral(case["u"], case["v"], abs_tol=case["abs_tol"]))
    assert value == case["value"]

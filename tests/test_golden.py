"""Golden outputs: figure data hashes and the exact stdout and exit code
of every subcommand over a fixed argument corpus.

``golden_cli.json`` was recorded from the release whose ``_fmt17`` still
called ``numpy.format_float_positional``. The corpus covers equal rates,
widely separated rates (1e-6 with 1e6), values that print below 1 with
and without dropped trailing zeros, seeded Monte-Carlo runs and the
argument and convergence errors. The figure hashes at 2 and 7 grid
points were added later, recorded from the release that still built the
figures row by row. Any change to a value here is a behaviour change and
must be called out in CHANGES.md.
"""

import hashlib
import json
import pathlib

import pytest

from expsum.cli import main

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

"""CLI surface: output records, validation exits, figure files, verify."""

import argparse
import functools
import hashlib
import json
import math
import os
import pathlib
import signal
import stat
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import expsum
import expsum.entropy
from expsum import cli, oracle
from expsum.cli import _fmt17, main
from expsum.dist import RatePair
from expsum.specfun import EULER_GAMMA

GOLDEN_FIGURES = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())["figures"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_value(out, label):
    for line in out.splitlines():
        if line.startswith(label + " "):
            return float(line.split()[1])
    raise AssertionError(f"no {label!r} line in output:\n{out}")


class TestEntropyCommand:
    def test_closed_form(self, capsys):
        code, out, _ = run(capsys, ["entropy", "--lambda-w", "2", "--lambda-x", "1"])
        assert code == 0
        assert abs(first_value(out, "entropy_nats") - (2.0 - math.log(2.0))) < 1e-12

    def test_equal_rates(self, capsys):
        code, out, _ = run(capsys, ["entropy", "--lambda-w", "1", "--lambda-x", "1"])
        assert code == 0
        assert abs(first_value(out, "entropy_nats") - (1.0 + EULER_GAMMA)) < 1e-12

    def test_quadrature_method(self, capsys):
        code, out, _ = run(
            capsys,
            ["entropy", "--lambda-w", "2", "--lambda-x", "1", "--method", "quad"],
        )
        assert code == 0
        assert abs(first_value(out, "entropy_nats") - (2.0 - math.log(2.0))) < 1e-9

    def test_monte_carlo_method_is_deterministic(self, capsys):
        argv = [
            "entropy",
            "--lambda-w", "2", "--lambda-x", "1",
            "--method", "mc", "--n", "5000", "--seed", "42",
        ]
        code, out1, _ = run(capsys, argv)
        assert code == 0
        assert "std_error" in out1 and "n_samples 5000" in out1
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_mc_requires_n_and_seed(self, capsys):
        code, _, err = run(
            capsys, ["entropy", "--lambda-w", "2", "--lambda-x", "1", "--method", "mc"]
        )
        assert code == 2
        assert "--n" in err and "--seed" in err

    def test_nonpositive_rate_names_offending_flag(self, capsys):
        code, _, err = run(capsys, ["entropy", "--lambda-w", "-1", "--lambda-x", "1"])
        assert code == 2
        assert "--lambda-w" in err

    def test_unknown_method_rejected(self, capsys):
        code, _, _ = run(
            capsys,
            ["entropy", "--lambda-w", "2", "--lambda-x", "1", "--method", "exact"],
        )
        assert code == 2

    @pytest.mark.parametrize("rate", ["1.7e308", "1.7976931348623157e308"])
    def test_equal_rates_whose_sum_overflows(self, capsys, rate):
        code, out, err = run(capsys, ["entropy", "--lambda-w", rate, "--lambda-x", rate])
        assert (code, err) == (0, "")
        h = 1.0 + EULER_GAMMA - math.log(float(rate))
        assert first_value(out, "entropy_nats") == h
        code, out, err = run(capsys, ["mi", "--signal-rate", rate, "--noise-rate", rate])
        assert (code, err) == (0, "")
        assert first_value(out, "mutual_information") == EULER_GAMMA

    def test_quadrature_at_a_relative_gap_of_1e_9(self, capsys):
        argv = ["entropy", "--lambda-w", "1.000000001", "--lambda-x", "1"]
        code, out, err = run(capsys, [*argv, "--method", "quad"])
        assert (code, err) == (0, "")
        _, closed, _ = run(capsys, argv)
        assert abs(first_value(out, "entropy_nats") - first_value(closed, "entropy_nats")) <= 1e-10

    @pytest.mark.parametrize("rates", [("2e-300", "1e-300"), ("2e200", "1e200")])
    def test_quadrature_at_extreme_distinct_rates(self, capsys, rates):
        # distinct rates near both ends of the double range
        argv = ["entropy", "--lambda-w", rates[0], "--lambda-x", rates[1]]
        code, out, err = run(capsys, [*argv, "--method", "quad", "--tol", "1e-10"])
        assert (code, err) == (0, "")
        _, closed, _ = run(capsys, argv)
        assert abs(first_value(out, "entropy_nats") - first_value(closed, "entropy_nats")) <= 1e-10

    @pytest.mark.parametrize(
        "rates",
        [
            ("1e300", "1e-300"),
            ("1.7e308", "1.7e308"),
            ("5e-324", "5e-324"),
            ("1.7e308", "5e-324"),
            ("1.7e308", "1.6e308"),
            ("1e-310", "5e-311"),
        ],
    )
    def test_quadrature_at_extreme_rates(self, capsys, rates):
        # a ratio past DBL_MAX, equal rates at both ends of the range and a
        # subnormal gap: the unit-scale oracle meets its tolerance at each
        argv = ["entropy", "--lambda-w", rates[0], "--lambda-x", rates[1]]
        code, out, err = run(capsys, [*argv, "--method", "quad"])
        assert (code, err) == (0, "")
        _, closed, _ = run(capsys, argv)
        assert abs(first_value(out, "entropy_nats") - first_value(closed, "entropy_nats")) <= 1e-10
        assert abs(oracle.normalization_quadrature(RatePair(*map(float, rates))) - 1.0) <= 1e-10

    @pytest.mark.parametrize(
        "rates, n",
        [(("1e-310", "5e-311"), "1000"), (("5e-324", "5e-324"), "1000"),
         (("1.7e308", "5e-324"), "10000")],
    )
    def test_monte_carlo_at_extreme_rates(self, capsys, rates, n):
        # raw-rate draws -log(1 - U)/rate overflow at subnormal rates; unit-scale ones do not
        argv = ["entropy", "--lambda-w", rates[0], "--lambda-x", rates[1]]
        code, out, err = run(capsys, [*argv, "--method", "mc", "--n", n, "--seed", "1"])
        assert (code, err) == (0, "")
        _, closed, _ = run(capsys, argv)
        miss = abs(first_value(out, "entropy_nats") - first_value(closed, "entropy_nats"))
        assert miss <= 5.0 * first_value(out, "std_error")

    def test_subnormal_tolerance_exits_three_at_once(self, capsys):
        # no error estimate reaches 5e-324, and the subdivision budget runs out quickly
        argv = ["entropy", "--lambda-w", "2", "--lambda-x", "1", "--method", "quad"]
        start = time.perf_counter()
        code, out, err = run(capsys, [*argv, "--tol", "5e-324"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "error" in err

    def test_unattainable_tolerance_exits_three(self, capsys):
        code, _, err = run(
            capsys,
            [
                "entropy",
                "--lambda-w", "2", "--lambda-x", "1",
                "--method", "quad", "--tol", "1e-30",
            ],
        )
        assert code == 3
        assert "error" in err


class TestMiCommand:
    def test_one_nat_with_unit_label(self, capsys):
        code, out, _ = run(capsys, ["mi", "--signal-rate", "1", "--noise-rate", "2"])
        assert code == 0
        assert "nats per server request" in out
        assert abs(first_value(out, "mutual_information") - 1.0) < 1e-12

    def test_near_equal_rates_approach_gamma(self, capsys):
        code, out, _ = run(
            capsys, ["mi", "--signal-rate", "2", "--noise-rate", "2.000000001"]
        )
        assert code == 0
        assert abs(first_value(out, "mutual_information") - EULER_GAMMA) < 1e-6

    def test_rejects_nonpositive_rate(self, capsys):
        code, _, err = run(capsys, ["mi", "--signal-rate", "0", "--noise-rate", "2"])
        assert code == 2
        assert "--signal-rate" in err


class TestCondEntropyCommand:
    def test_even_mixture_with_branches(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "cond-entropy",
                "--lambda-x", "1", "--lambda-w-on", "2",
                "--lambda-w-off", "0.5", "--p-on", "0.5",
            ],
        )
        assert code == 0
        expected = 2.0 - math.log(2.0) / 2.0
        assert abs(first_value(out, "cond_entropy_nats") - expected) < 1e-12
        assert abs(first_value(out, "branch_on_nats") - (2.0 - math.log(2.0))) < 1e-12
        assert abs(first_value(out, "branch_off_nats") - 2.0) < 1e-12

    def test_degenerate_mixture_equals_branch(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "cond-entropy",
                "--lambda-x", "1", "--lambda-w-on", "2",
                "--lambda-w-off", "9", "--p-on", "1",
            ],
        )
        assert code == 0
        assert first_value(out, "cond_entropy_nats") == first_value(out, "branch_on_nats")

    def test_rejects_probability_out_of_range(self, capsys):
        code, _, err = run(
            capsys,
            [
                "cond-entropy",
                "--lambda-x", "1", "--lambda-w-on", "2",
                "--lambda-w-off", "0.5", "--p-on", "1.5",
            ],
        )
        assert code == 2
        assert "--p-on" in err


# (argv before the flag, flag, text, error message or None when accepted):
# one valid edge value and each rejection branch of every argument type
ARGUMENT_CASES = [
    *[(["entropy", "--lambda-x", "1"], "--lambda-w", text, message) for text, message in (
        ("5e-324", None),
        ("1.7976931348623157e308", None),
        ("abc", "expected a number, got 'abc'"),
        ("inf", "must be a positive finite rate, got 'inf'"),
        ("nan", "must be a positive finite rate, got 'nan'"),
        ("0", "must be a positive finite rate, got '0'"),
        ("-1e-300", "must be a positive finite rate, got '-1e-300'"),
    )],
    *[(["cond-entropy", "--lambda-x", "1", "--lambda-w-on", "2", "--lambda-w-off", "0.5"],
       "--p-on", text, message) for text, message in (
        ("0", None),
        ("1", None),
        ("abc", "expected a number, got 'abc'"),
        ("nan", "must lie in [0, 1], got 'nan'"),
        ("-inf", "must lie in [0, 1], got '-inf'"),
        ("-0.1", "must lie in [0, 1], got '-0.1'"),
        ("1.5", "must lie in [0, 1], got '1.5'"),
    )],
    *[(["entropy", "--lambda-w", "2", "--lambda-x", "1"], "--tol", text, message)
      for text, message in (
        ("5e-324", None),
        ("abc", "expected a number, got 'abc'"),
        ("inf", "must be a positive tolerance, got 'inf'"),
        ("nan", "must be a positive tolerance, got 'nan'"),
        ("0", "must be a positive tolerance, got '0'"),
        ("-1e-10", "must be a positive tolerance, got '-1e-10'"),
    )],
    *[(["entropy", "--lambda-w", "2", "--lambda-x", "1", "--method", "mc", "--seed", "0"],
       "--n", text, message) for text, message in (
        ("2", None),
        ("abc", "expected an integer, got 'abc'"),
        ("2.5", "expected an integer, got '2.5'"),
        ("inf", "expected an integer, got 'inf'"),
        ("1", "must be at least 2, got '1'"),
        ("-3", "must be at least 2, got '-3'"),
    )],
    *[(["entropy", "--lambda-w", "2", "--lambda-x", "1", "--method", "mc", "--n", "2"],
       "--seed", text, message) for text, message in (
        ("0", None),
        ("abc", "expected an integer, got 'abc'"),
        ("nan", "expected an integer, got 'nan'"),
        ("-1", "must be nonnegative, got '-1'"),
    )],
]


class TestArgumentErrors:
    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, ["--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: expsum")

    @pytest.mark.parametrize("prefix, flag, text, message", ARGUMENT_CASES)
    def test_exact_error_text(self, capsys, prefix, flag, text, message):
        code, out, err = run(capsys, [*prefix, f"{flag}={text}"])
        if message is None:
            assert (code, err) == (0, "")
        else:
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == f"expsum {prefix[0]}: error: argument {flag}: {message}"


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


class TestFigureCommand:
    def test_fig1_schema_and_content(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(
            capsys,
            ["figure", "fig1", "--grid-points", "25", "--out", str(out_path)],
        )
        assert code == 0
        header, rows = read_csv(out_path)
        assert header == ["curve", "lambda_w", "lambda_x", "entropy_nats"]
        assert len(rows) == 10 * 25 + 2 * 25
        text = out_path.read_text()
        assert "nan" not in text.lower() and "inf" not in text.lower()
        curves = {row[0] for row in rows}
        assert curves == {"hypoexp", "erlang2", "single"}
        lambda_ws = sorted({float(r[1]) for r in rows if r[0] == "hypoexp"})
        assert lambda_ws == [round(0.2 * k, 1) for k in range(1, 11)]
        for row in rows:
            if row[0] == "single":
                assert row[1] == ""

    def test_fig1_entropy_decreases_with_noise_rate(self, capsys, tmp_path):
        # at the shared leftmost point lambda_x = 0.01, the top line is
        # lambda_w = 0.2 and each increment lowers the curve
        out_path = tmp_path / "fig1.csv"
        run(capsys, ["figure", "fig1", "--grid-points", "12", "--out", str(out_path)])
        _, rows = read_csv(out_path)
        at_left = {
            float(r[1]): float(r[3])
            for r in rows
            if r[0] == "hypoexp" and float(r[2]) == 0.01
        }
        ordered = [at_left[lw] for lw in sorted(at_left)]
        assert len(ordered) == 10
        assert all(a > b for a, b in zip(ordered, ordered[1:]))

    def test_fig2_schema_and_bounds(self, capsys, tmp_path):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = run(
            capsys,
            ["figure", "fig2", "--grid-points", "40", "--out", str(out_path)],
        )
        assert code == 0
        header, rows = read_csv(out_path)
        assert header == [
            "lambda", "lambda_x", "lambda_w",
            "entropy_nats", "reference_exp", "reference_erlang2",
        ]
        for row in rows:
            lam_x, lam_w = float(row[1]), float(row[2])
            assert abs(1.0 / lam_x + 1.0 / lam_w - 1.0) < 1e-12
            assert float(row[3]) < 1.0
            assert float(row[4]) == 1.0

    def test_fig2_touches_erlang_reference_at_two(self, capsys, tmp_path):
        out_path = tmp_path / "fig2.csv"
        run(capsys, ["figure", "fig2", "--grid-points", "40", "--out", str(out_path)])
        _, rows = read_csv(out_path)
        touching = [r for r in rows if float(r[0]) == 2.0]
        assert len(touching) == 1
        assert touching[0][3] == touching[0][5]  # byte-identical cells

    def test_fig1_json_schema(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.json"
        code, _, _ = run(
            capsys,
            [
                "figure", "fig1", "--grid-points", "8",
                "--format", "json", "--out", str(out_path),
            ],
        )
        assert code == 0
        records = json.loads(out_path.read_text())
        assert len(records) == 10 * 8 + 2 * 8
        singles = [r for r in records if r["curve"] == "single"]
        assert singles and all(r["lambda_w"] is None for r in singles)
        assert all(math.isfinite(r["entropy_nats"]) for r in records)

    def test_stdout_matches_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "fig2.csv"
        run(capsys, ["figure", "fig2", "--grid-points", "10", "--out", str(out_path)])
        code, out, _ = run(capsys, ["figure", "fig2", "--grid-points", "10"])
        assert code == 0
        assert out == out_path.read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_hashes_to_the_golden_file(self, capsys, fmt):
        code, out, _ = run(capsys, ["figure", "fig1", "--grid-points", "2000", "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FIGURES[f"fig1 {fmt} 2000"]

    @pytest.mark.parametrize("figure, numbers", [("fig1", 48_020), ("fig2", 6_009)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_repeated_value_is_formatted_once(self, monkeypatch, figure, numbers, fmt):
        # fig1's lambda_w and fig2's two references are one value per block of
        # 1024 rows; formatted per row they would make 70,000 and 12,006 numbers.
        # A list passed twice is formatted once: erlang2's rates (2,000 numbers)
        # and fig2's lambda, the smaller rate below 2.0 and the larger from it up
        # (2,001 numbers); fig2's blocks split at 2.0, so its three blocks format
        # the two references 6 times, not 4
        handed = []
        fmt17_list, dumps = cli._fmt17_list, json.dumps

        def counting_fmt17_list(values):
            handed.append(len(values))
            return fmt17_list(values)

        def counting_dumps(value, **kwargs):
            cells = value if isinstance(value, list) else [value]
            handed.append(sum(type(v) in (int, float) for v in cells))
            return dumps(value, **kwargs)

        monkeypatch.setattr(cli, "FIGURE_BLOCK", 1024)
        if fmt == "csv":
            monkeypatch.setattr(cli, "_fmt17_list", counting_fmt17_list)
        else:
            monkeypatch.setattr(json, "dumps", counting_dumps)
        argv = ["figure", figure, "--grid-points", "2000", "--format", fmt, "--out", os.devnull]
        assert main(argv) == 0
        assert sum(handed) == numbers

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_is_one_block(self, tmp_path, fmt):
        argv = ["figure", "fig1", "--grid-points", "2000", "--format", fmt,
                "--out", str(tmp_path / "fig1.out")]
        assert main(argv) == 0  # imports outside the trace
        # the whole command: the grid-long arrays, plus one block's row text, its
        # cells' str objects and the lists holding them, take under 1 KiB a row;
        # the 24,000 rows' whole text would take 7.7 MB (csv) and 13.6 MB (json)
        assert self.traced_peak(main, argv) <= 1024 * cli.FIGURE_BLOCK

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_does_not_grow_with_the_grid(self, fmt):
        def peak(grid_points):
            argv = ["figure", "fig1", "--grid-points", str(grid_points), "--format", fmt,
                    "--out", os.devnull]
            return self.traced_peak(main, argv)

        peak(2)  # imports outside the trace
        # the only arrays as long as the grid are one curve's and the shared one,
        # with geomspace's temporaries; whole columns would add about 1.8 KB a point
        assert peak(8000) - peak(2000) <= 4 * 8 * 6000

    def test_unwritable_path_exits_four(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "fig1.csv"
        code, _, err = run(
            capsys, ["figure", "fig1", "--grid-points", "5", "--out", str(target)]
        )
        assert code == 4
        assert "error" in err

    def test_rejects_tiny_grid(self, capsys):
        code, _, _ = run(capsys, ["figure", "fig1", "--grid-points", "1"])
        assert code == 2

    def test_grid_numpy_refuses_to_allocate_exits_five(self, capsys, tmp_path):
        # a valid count: the parser accepts it and numpy's size check raises ValueError
        argv = ["figure", "fig1", "--grid-points", str(10**20), "--out", str(tmp_path / "f.csv")]
        code, out, err = run(capsys, argv)
        assert (code, out) == (cli.EXIT_INTERNAL, "")
        assert err.startswith("error: internal: ValueError: ")

    @pytest.fixture(params=["exchange", "no_renameat2", "renameat2_fails"])
    def write_path(self, request, monkeypatch):
        """How ``--out`` replaces an existing file. "exchange": a rename over an existing
        file raises, so only the swap can pass. The others: libc's ``renameat2`` is missing
        or fails, so the rename over the old file runs."""
        if request.param == "exchange":
            replace = os.replace

            def replace_onto_a_free_name(src, dst):
                if os.path.lexists(dst):
                    raise PermissionError(f"rename over the existing file {dst}")
                replace(src, dst)

            monkeypatch.setattr(os, "replace", replace_onto_a_free_name)
        elif request.param == "no_renameat2":
            monkeypatch.setattr(cli, "_renameat2", lambda: None)
        else:
            monkeypatch.setattr(cli, "_renameat2", lambda: lambda *args: -1)

    @pytest.mark.usefixtures("write_path")
    def test_failed_figure_leaves_the_old_file(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        out.write_bytes(b"old bytes\n")
        argv = ["figure", "fig1", "--grid-points", str(10**20), "--out", str(out)]
        assert run(capsys, argv)[0] == cli.EXIT_INTERNAL
        assert out.read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["fig1.csv"]  # the new file was removed

    @pytest.mark.usefixtures("write_path")
    def test_out_replaces_the_file_a_symlink_names_and_keeps_its_mode(self, capsys, tmp_path):
        argv = ["figure", "fig1", "--grid-points", "5"]
        expected = run(capsys, argv)[1].encode()
        target, link, new = tmp_path / "fig1.csv", tmp_path / "link.csv", tmp_path / "new.csv"
        target.write_bytes(b"old bytes\n")
        target.chmod(0o640)
        link.symlink_to(target)
        umask = os.umask(0o002)
        try:
            assert run(capsys, [*argv, "--out", str(link)])[0] == 0
            assert run(capsys, [*argv, "--out", str(new)])[0] == 0
        finally:
            os.umask(umask)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == new.read_bytes() == expected
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert stat.S_IMODE(new.stat().st_mode) == 0o664  # 0o666 less the umask
        assert sorted(os.listdir(tmp_path)) == ["fig1.csv", "link.csv", "new.csv"]

    @pytest.mark.usefixtures("write_path")
    def test_out_to_a_device_is_written_in_place(self, capsys):
        assert run(capsys, ["figure", "fig1", "--grid-points", "5", "--out", os.devnull]) == (
            0, "", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.parametrize("at", ["rendering", "rename", "swap"])
    def test_interrupt_leaves_one_complete_file_and_no_other(
            self, capsys, tmp_path, monkeypatch, at):
        # Ctrl-C while the rows are rendered, as the rename over the old file starts (libc
        # without renameat2), or just after the swap, before the old file is unlinked
        def interrupted(*args):
            raise KeyboardInterrupt

        renameat2 = cli._renameat2()

        def swapped_then_interrupted(*args):
            assert renameat2(*args) == 0
            raise KeyboardInterrupt

        argv = ["figure", "fig1", "--grid-points", "5"]
        expected = run(capsys, argv)[1].encode()
        out = tmp_path / "fig1.csv"
        out.write_bytes(b"old bytes\n")
        if at == "rendering":
            monkeypatch.setattr(cli, "_fmt17_list", interrupted)
        elif at == "rename":
            monkeypatch.setattr(cli, "_renameat2", lambda: None)
            monkeypatch.setattr(os, "replace", interrupted)
        else:
            monkeypatch.setattr(cli, "_renameat2", lambda: swapped_then_interrupted)
        assert run(capsys, [*argv, "--out", str(out)]) == (
            cli.EXIT_INTERRUPTED, "", "error: interrupted\n")
        assert out.read_bytes() == (expected if at == "swap" else b"old bytes\n")
        assert os.listdir(tmp_path) == ["fig1.csv"]

    @pytest.mark.usefixtures("write_path")
    def test_files_a_killed_run_left_are_passed_over_untouched(self, capsys, tmp_path):
        argv = ["figure", "fig1", "--grid-points", "5"]
        expected = run(capsys, argv)[1].encode()
        out = tmp_path / "fig1.csv"
        out.write_bytes(b"old bytes\n")
        stale = [tmp_path / f".fig1.csv.{os.getpid()}", tmp_path / f".fig1.csv.{os.getpid()}.1"]
        for path in stale:
            path.write_bytes(b"stale bytes\n")
        assert run(capsys, [*argv, "--out", str(out)]) == (0, "", "")
        assert out.read_bytes() == expected
        assert [path.read_bytes() for path in stale] == [b"stale bytes\n"] * 2
        assert sorted(os.listdir(tmp_path)) == sorted(["fig1.csv", *(p.name for p in stale)])


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "42", "--samples", "20000"])
        assert code == 0
        assert "overall PASS" in out
        assert out.count("PASS") >= 5

    def test_rejects_single_sample(self, capsys):
        code, _, _ = run(capsys, ["verify", "--samples", "1"])
        assert code == 2

    def test_tampered_closed_form_is_caught(self, capsys, monkeypatch):
        # mutation check: biasing the closed form must trip the suite
        true_fn = expsum.entropy.hypoexp_entropy
        monkeypatch.setattr(
            expsum.entropy, "hypoexp_entropy", lambda rates: true_fn(rates) + 1e-6
        )
        code, out, _ = run(capsys, ["verify", "--seed", "42", "--samples", "2000"])
        assert code == 1
        assert "overall FAIL" in out

    def test_each_rate_pair_is_integrated_once(self, capsys, monkeypatch):
        calls = {"entropy_quadrature": [], "normalization_quadrature": []}
        for name, seen in calls.items():
            true_fn = getattr(oracle, name)
            monkeypatch.setattr(
                oracle, name, lambda rates, fn=true_fn, seen=seen: seen.append(rates) or fn(rates)
            )
        code, _, _ = run(capsys, ["verify", "--seed", "42", "--samples", "2000"])
        assert code == 0
        entropy, norm = calls["entropy_quadrature"], calls["normalization_quadrature"]
        assert (len(entropy), len(norm)) == (21, 28)
        assert len(set(entropy)) == 21 and all(hi != lo for hi, lo in entropy)
        assert len(set(norm)) == 28

    @pytest.mark.parametrize("row", range(4))
    def test_a_defect_in_one_case_fails_its_own_row_only(self, capsys, monkeypatch, row):
        # each row's last case is biased past its limit, so a row that did not
        # reduce over all of its cases would pass; the other rows see no defect
        grid = np.geomspace(0.1, 10.0, 7).tolist()
        planted = [
            (expsum.entropy, "hypoexp_entropy", (RatePair(grid[-1], grid[-2]),),
             lambda value: value + 1e-6),
            (oracle, "normalization_quadrature", (RatePair(10.0, 10.0),),
             lambda value: value + 1e-9),
            (oracle, "gr_log_integral", (5.0, 5.0), lambda value: value + 1e-7),
            (oracle, "entropy_monte_carlo", (RatePair(1.01, 1.0), 2000, 46),
             lambda est: est._replace(estimate=est.estimate + 10.0 * est.std_error)),
        ]
        module, name, case, bias = planted[row]
        true_fn = getattr(module, name)

        def defective(*args, **kwargs):
            value = true_fn(*args, **kwargs)
            return bias(value) if args == case else value

        monkeypatch.setattr(module, name, defective)
        code, out, _ = run(capsys, ["verify", "--seed", "42", "--samples", "2000"])
        statuses = [line.split()[-1] for line in out.splitlines()[1:5]]
        assert code == 1
        assert statuses == ["FAIL" if i == row else "PASS" for i in range(4)], out


class TestDeterminism:
    def test_figure_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, ["figure", "fig1", "--grid-points", "20", "--out", str(path)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seeded_outputs_are_byte_identical(self, capsys):
        argv = [
            "entropy",
            "--lambda-w", "10", "--lambda-x", "0.3",
            "--method", "mc", "--n", "20000", "--seed", "7",
        ]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestInternalError:
    @pytest.mark.parametrize(
        "exc", [MemoryError("no room"), ZeroDivisionError("division by zero"), ValueError("bad value")]
    )
    def test_unexpected_exception_exits_five(self, capsys, monkeypatch, exc):
        def boom(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_entropy", boom)
        code, out, err = run(capsys, ["entropy", "--lambda-w", "2", "--lambda-x", "1"])
        assert code == cli.EXIT_INTERNAL == 5
        assert out == ""
        assert err == f"error: internal: {type(exc).__name__}: {exc}\n"

    def test_non_finite_monte_carlo_estimate_exits_five(self, capsys, monkeypatch):
        kernel = expsum.dist._unit_kernel

        def one_zero(*args):
            t, k = kernel(*args)
            k[0] = 0.0
            return t, k

        monkeypatch.setattr(expsum.dist, "_unit_kernel", one_zero)
        argv = ["entropy", "--lambda-w", "2", "--lambda-x", "1", "--method", "mc"]
        code, out, err = run(capsys, argv + ["--n", "100", "--seed", "3"])
        assert code == cli.EXIT_INTERNAL == 5
        assert out == ""
        assert err.startswith("error: internal: FloatingPointError: ")
        assert "seed=3" in err


class TestInterrupt:
    def test_keyboard_interrupt_exits_130_with_one_line(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_entropy", interrupted)
        code, out, err = run(capsys, ["entropy", "--lambda-w", "2", "--lambda-x", "1"])
        assert code == cli.EXIT_INTERRUPTED == 130
        assert (out, err) == ("", "error: interrupted\n")

    @pytest.mark.parametrize("owner, stage", [(cli, "build_parser"),
                                              (argparse.ArgumentParser, "parse_args")],
                             ids=["build_parser", "parse_args"])
    def test_keyboard_interrupt_while_parsing_exits_130(self, capsys, monkeypatch, owner, stage):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(owner, stage, interrupted)
        code, out, err = run(capsys, ["entropy", "--lambda-w", "2", "--lambda-x", "1"])
        assert (code, out, err) == (cli.EXIT_INTERRUPTED, "", "error: interrupted\n")

    def test_sigint_stops_a_long_monte_carlo_run_at_once(self):
        # 4e8 samples take seconds on two stripes; SIGINT lands in them, and both stop
        # within one chunk: no traceback, no wait for the pool thread's last chunk. The child
        # restores Python's SIGINT handler, as it inherits SIGINT ignored from a shell that
        # ignores it (`trap '' INT`, a background job), and then would run to the end
        script = (
            "import signal, sys\n"
            "from expsum.cli import main\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "print('ready', flush=True)\n"
            "sys.exit(main(['entropy', '--lambda-w', '2', '--lambda-x', '1', '--method', 'mc',"
            " '--n', '400000000', '--seed', '1']))\n"
        )
        src = str(pathlib.Path(expsum.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        try:
            assert proc.stdout.readline() == "ready\n"
            time.sleep(0.5)
            sent = time.monotonic()
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
            waited = time.monotonic() - sent
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
        assert waited < 0.5


numpy_positional = functools.partial(
    np.format_float_positional, precision=17, unique=False, fractional=False, trim="k"
)


def format_sweep():
    """Seeded doubles from every class the formatter branches on."""
    rng = np.random.default_rng(20161121)
    powers = 10.0 ** np.arange(-323, 309)
    return np.concatenate((
        rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-323, 308.2, 50_000),
        -(10.0 ** rng.uniform(-8, 20, 60_000)),
        rng.integers(-10**6, 10**6, 30_000) / 10.0 ** rng.integers(1, 9, 30_000),
        rng.integers(1, 2**52, 5_000) * 2.0**-1074,
        rng.uniform(1e15, 1e18, 10_000),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e16,
         np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), 1e17, 1e-4,
         np.nextafter(1e-4, 0.0)],
    )).tolist()


class TestFormat17:
    def test_documented_cases(self):
        assert _fmt17(0.5) == "0.5000000000000000"
        assert _fmt17(0.00123) == "0.0012300000000000"
        assert _fmt17(0.1) == "0.10000000000000001"
        assert _fmt17(12.5) == "12.500000000000000"
        assert _fmt17(1e16) == "10000000000000000."
        assert [_fmt17(v) for v in (math.nan, math.inf, -math.inf)] == ["nan", "inf", "-inf"]

    def test_matches_numpy_positional(self):
        values = format_sweep()
        assert len(values) >= 200_000
        ours = list(map(_fmt17, values))
        theirs = list(map(numpy_positional, values))
        assert [(v, a, b) for v, a, b in zip(values, ours, theirs) if a != b] == []

    def test_bulk_column_matches_fmt17(self):
        values = format_sweep()
        assert cli._fmt17_list(values) == list(map(_fmt17, values))

    def test_bulk_column_matches_fmt17_on_mixed_numbers(self):
        # a dyadic k/2^j with fewer than 17 digits prints exactly, so its
        # 17-digit text ends in zeros, with and without an exponent
        dyadics = [k / 2.0**j for j in range(1, 40, 3) for k in (1, -3, 5, -7, 4097)]
        zeros = [t for t in ("%#.17g" % v for v in dyadics) if t.endswith("0")]
        assert any("e" in t for t in zeros) and any(t.startswith("-0.") for t in zeros)
        values = [1, True, -0.0, 0.0, 0.0, -0.0, math.nan, math.inf, -math.inf,
                  math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), 1e16, 1e17, *dyadics]
        assert cli._fmt17_list(values) == list(map(_fmt17, values))


def row_count(columns):
    """The length of the list columns; a one-value column stands for every row."""
    return next((len(column) for column in columns if isinstance(column, list)), 0)


def expanded(columns):
    """The columns with each one-value column repeated to the row count."""
    rows = row_count(columns)
    return [column if isinstance(column, list) else [column] * rows for column in columns]


def csv_reference(header, columns):
    """The row-by-row CSV writer: one _fmt17 call per numeric cell."""
    lines = [",".join(header)]
    for row in zip(*expanded(columns)):
        cells = ("" if v is None else v if isinstance(v, str) else _fmt17(v) for v in row)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def json_reference(header, columns):
    records = [dict(zip(header, row)) for row in zip(*expanded(columns))]
    return json.dumps(records, indent=2) + "\n"


def rendered(render, header, columns):
    """The text ``render`` makes of equal-length list columns cut into blocks of
    ``cli.FIGURE_BLOCK`` rows, as the figure builders yield them; a one-value
    column is passed to every block unchanged."""
    size = cli.FIGURE_BLOCK
    rows = row_count(columns)
    blocks = ([column[s : s + size] if isinstance(column, list) else column for column in columns]
              for s in range(0, rows, size))
    return "".join(render(header, blocks))


def render_corpus():
    """(header, columns) cases over every kind of value a cell can hold, each
    column a list of numbers or one value (None, a str or a number) for every
    row, as the renderers take."""
    rng = np.random.default_rng(1121)
    strings = ["hypoexp", 'quote " and \\ backslash', "line\nbreak", "caf\u00e9 \u2028", "%s %%"]
    numbers = [
        -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e16, 1e-5, 1e-4,
        0.1, 0.5, 1.0 / 3.0, 123456.789, 1.7976931348623157e308, -2.5,
        math.nan, math.inf, -math.inf, 1, True, False,
    ]
    floats = (10.0 ** rng.uniform(-8, 20, 300) * rng.choice([-1.0, 1.0], 300)).tolist()
    nums = [numbers[i] for i in rng.integers(0, len(numbers), 300).tolist()]
    repeated = [floats[i] for i in rng.integers(0, 7, 300).tolist()]
    header = ["a", "b c", 'q"k', "%d", "caf\u00e9", "f", "s1", "s2", "s3", "s4"]
    return [
        (header, [strings[0], None, nums, *strings[1:3], floats, repeated, *strings[3:], floats[::-1]]),
        (["x", "y", "s", "n"],
         [[1.5, 1.5, 1.5, math.nan, math.inf], [1.5, 1.5, 1.5, math.nan, -math.inf], "s", None]),
        (["only"], [[-0.0, 0.0, math.nan, math.nan]]),
        # one-value columns at both ends and between lists: "%" must be escaped
        # in the row template, and 1e-5, 1e17 and 0.5 are texts _fmt17_list rewrites
        (["%s", "x", 'q"k', "nl", "none", "s", "e-5", "e17", "half", "nan", "-0", "true"],
         ["%s %%", floats[:7], 'q"k', "line\nbreak", None, nums[:7], 1e-5, 1e17, 0.5,
          math.nan, -0.0, True]),
        (["x", "y"], [[], []]),
        ([], []),
    ]


class TestRenderers:
    @pytest.mark.parametrize("case", range(6))
    def test_csv_matches_per_cell_reference(self, case):
        header, columns = render_corpus()[case]
        assert rendered(cli._render_csv, header, columns) == csv_reference(header, columns)

    @pytest.mark.parametrize("case", range(6))
    def test_json_matches_json_dumps(self, case):
        header, columns = render_corpus()[case]
        assert rendered(cli._render_json, header, columns) == json_reference(header, columns)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_block_edges_change_no_corpus_byte(self, monkeypatch, block):
        monkeypatch.setattr(cli, "FIGURE_BLOCK", block)
        for header, columns in render_corpus():
            assert rendered(cli._render_csv, header, columns) == csv_reference(header, columns)
            assert rendered(cli._render_json, header, columns) == json_reference(header, columns)

    @pytest.mark.parametrize("render, reference", [(cli._render_csv, csv_reference),
                                                   (cli._render_json, json_reference)])
    def test_a_list_passed_twice_fills_both_columns(self, render, reference):
        # the renderers format such a list once and reuse its text
        _, columns = render_corpus()[0]
        shared = columns[5]  # 300 random floats
        twice = [shared, "s", shared, None, shared[::-1]]
        text = "".join(render(["a", "b", "c", "d", "e"], [twice]))
        assert text == reference(["a", "b", "c", "d", "e"], twice)

    @pytest.mark.parametrize("block", [1, 7, 1024])
    def test_figure_columns_hold_one_kind(self, monkeypatch, block):
        # _render_csv formats a list column as numbers and a one-value column by
        # its kind; the renderers take the row count from the list columns, so
        # a block needs one and they must agree
        monkeypatch.setattr(cli, "FIGURE_BLOCK", block)
        for _, blocks_of in cli.FIGURES.values():
            for n in (2, 7, 2000):
                for columns in blocks_of(n):
                    lists = [column for column in columns if isinstance(column, list)]
                    assert lists and len(set(map(len, lists))) == 1, (n, columns)
                    for column in columns:
                        kinds = set(map(type, column)) if isinstance(column, list) else {type(column)}
                        allowed = {float} if isinstance(column, list) else {type(None), str, float}
                        assert len(kinds) == 1 and kinds <= allowed, (n, kinds)

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_block_edges_change_no_figure_byte(self, monkeypatch, tmp_path, block, fmt):
        # 84 rows span 28 to 84 blocks
        monkeypatch.setattr(cli, "FIGURE_BLOCK", block)
        out = tmp_path / "fig1.out"
        assert main(["figure", "fig1", "--grid-points", "7", "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FIGURES[f"fig1 {fmt} 7"]


class TestImports:
    def test_point_commands_do_not_load_numpy(self):
        script = """
import contextlib, io, sys
import expsum, expsum.cli
loaded = [("numpy" in sys.modules, "dataclasses" in sys.modules, "ctypes" in sys.modules)]
for argv in (
    ["entropy", "--lambda-w", "2", "--lambda-x", "1", "--method", "closed"],
    ["mi", "--signal-rate", "1", "--noise-rate", "2"],
    ["cond-entropy", "--lambda-x", "1", "--lambda-w-on", "2",
     "--lambda-w-off", "0.5", "--p-on", "0.5"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert expsum.cli.main(argv) == 0
    loaded.append(("numpy" in sys.modules, "dataclasses" in sys.modules, "ctypes" in sys.modules))
print(loaded)
"""
        src = str(pathlib.Path(expsum.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([(False, False, False)] * 4)

    def test_one_chunk_monte_carlo_does_not_load_concurrent_futures(self):
        # only the two-stripe path imports it, which one chunk never takes
        script = """
import contextlib, io, sys
import expsum.cli
argv = ["entropy", "--lambda-w", "2", "--lambda-x", "1", "--method", "mc", "--n", "1000", "--seed", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    assert expsum.cli.main(argv) == 0
print("numpy" in sys.modules, "concurrent.futures" in sys.modules)
"""
        src = str(pathlib.Path(expsum.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]

    @pytest.mark.parametrize("workload", ["point", "figures", "oracle", "mc"])
    def test_benchmark_setup_probe_runs(self, tmp_path, workload):
        # the benchmark changes only on its own and still calls dist.HypoexpTwo;
        # this pins that the package keeps serving it until it calls RatePair
        root = pathlib.Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "setup_probe.py"), workload,
             str(tmp_path / "scratch")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) > 0.0

    def test_star_import_binds_all_names_eagerly(self):
        namespace = {}
        exec("from expsum import *", namespace)
        assert set(expsum.__all__) <= namespace.keys()
        assert set(expsum.__all__) <= vars(expsum).keys()
        # the public surface: a new or removed name is a deliberate change here
        assert sorted(expsum.__all__) == [
            "ConvergenceError", "EULER_GAMMA", "EstimateWithError", "RatePair", "__version__",
            "cond_entropy_light", "digamma", "digamma_minus_log", "entropy_monte_carlo",
            "entropy_quadrature", "erlang2_entropy", "exp_entropy", "gr_log_integral",
            "hypoexp_cdf", "hypoexp_entropy", "hypoexp_pdf", "mean_constrained_rates",
            "mutual_info_aen", "normalization_quadrature",
        ]

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

The closed-form lines, the figure hashes, one Monte-Carlo line and the
oracle corpus were re-recorded when the closed form moved to T(w) with the
series from w <= 1/10 and the density to the single E(gap, y) form.
``PREVIOUS`` keeps the values those lines had before, and the tests below
show that each new closed-form value is at least as close to mpmath as
the old one, that the Monte-Carlo line moved by less than 1e-12
relative, and that every corpus value is within its tolerance of mpmath.
The ``--method mc`` lines that moved again when Monte Carlo moved to the
unit scale t = lambda_lo y were re-recorded once more; for those,
``PREVIOUS`` keeps the values from just before that re-recording.

Two ``mi`` lines, at signal/noise ratios 30 and 1e12, were re-recorded
again when the mutual information of a much faster signal moved to its
series in noise/(signal - noise); ``BEFORE_NEAR_ONE_SERIES`` keeps the
values they had before, and the test below shows that each new value is
closer to mpmath and within 1e-15 of it, relative.

The 32 ``gr_log_integral`` corpus values and the ``verify`` log-integral
line were re-recorded when the log integral left the substitution
xi = e^(-vx) for the [0, T] tail-bound domain of the entropy quadratures,
after the cap on the corpus's worst error below passed on the old values.

The whole oracle corpus, the four ``--method quad`` lines and the ``verify``
report were re-recorded when every quadrature moved from [0, T] onto u in
(0, 1] by x = (1 - u)/u, from dyadic start panels at u -> 1, with panel sums
that no longer go through BLAS; both caps below passed on the new values.
``BEFORE_MAPPED_QUADRATURE`` keeps the quadrature lines' values from before,
and the test below shows that each new one is at least as close to mpmath.

The 18 oracle corpus cases whose values moved were re-recorded when the
quadrature driver moved from worst-panel-first bisection to breadth-first
rounds, which close and bisect a different set of panels: six entropy
values moved by at most 4.5e-16 and sixteen normalization values by one
ulp. No CLI line and no log-integral value moved, and both caps below
passed on the new values.
"""

import hashlib
import json
import math
import pathlib

import pytest

from conftest import mp_entropy, mp_log_integral
from expsum import oracle
from expsum.cli import FIGURES, main
from expsum.dist import RatePair
from expsum.specfun import _ASYMPTOTIC, EULER_GAMMA

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
    d = RatePair(*case["rates"])
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


#: The numbers each re-recorded golden line printed before the re-recording,
#: in the order the command prints them.
PREVIOUS = {
    "entropy --lambda-w 2 --lambda-x 1": [1.3068528194399220],
    "entropy --lambda-w 1e-6 --lambda-x 1e6": [14.815510557964787],
    "entropy --lambda-w 10 --lambda-x 3": [0.089443008332996732],
    "entropy --lambda-w 20 --lambda-x 6": [-0.6037041722269485],
    "mi --signal-rate 1 --noise-rate 2": [0.99999999999986733],
    "mi --signal-rate 2 --noise-rate 2": [0.57721566490153275],
    "mi --signal-rate 1e-6 --noise-rate 1e6": [27.631021115929059],
    "mi --signal-rate 1e6 --noise-rate 1e-6": [0.00000000000051336712658667238],
    "mi --signal-rate 3 --noise-rate 10": [1.3920281013270426],
    "mi --signal-rate 3 --noise-rate 0.1": [0.02143395354550659],
    "mi --signal-rate 6 --noise-rate 3": [0.3068528194399221],
    "cond-entropy --lambda-x 1 --lambda-w-on 2 --lambda-w-off 0.5 --p-on 0.5":
        [1.6534264097198947, 1.3068528194399220, 1.9999999999998674],
    "cond-entropy --lambda-x 1e-6 --lambda-w-on 1e6 --lambda-w-off 1e-6 --p-on 0.25":
        [15.248422306640553, 14.815510557964787, 15.392726222865807],
    "cond-entropy --lambda-x 3 --lambda-w-on 10 --lambda-w-off 3 --p-on 1":
        [0.089443008332996732, 0.089443008332996732, 0.47860337623342297],
    "entropy --lambda-w 10 --lambda-x 3 --method mc --n 3000 --seed 5":
        [0.080751551751052808, 0.015963945973309124],
}


def printed_values(stdout):
    """The float on each line of a command's output, n_samples excluded."""
    return [float(line.split()[1]) for line in stdout.splitlines() if "n_samples" not in line]


def exact_values(mp, command):
    """mpmath values of the lines a closed-form command prints."""
    name, *argv = command.split()
    opt = {flag[2:]: float(value) for flag, value in zip(argv[::2], argv[1::2])}
    if name == "entropy":
        return [mp_entropy(mp, opt["lambda-w"], opt["lambda-x"])]
    if name == "mi":
        h_noise = 1 - mp.log(mp.mpf(opt["noise-rate"]))
        return [mp_entropy(mp, opt["signal-rate"], opt["noise-rate"]) - h_noise]
    on = mp_entropy(mp, opt["lambda-x"], opt["lambda-w-on"])
    off = mp_entropy(mp, opt["lambda-x"], opt["lambda-w-off"])
    p = mp.mpf(opt["p-on"])
    return [(1 - p) * off + p * on, on, off]


@pytest.mark.parametrize("command", sorted(c for c in PREVIOUS if "--method" not in c))
def test_rerecorded_closed_form_is_at_least_as_close_to_mpmath(mp, command):
    new = printed_values(GOLDEN["commands"][command]["stdout"])
    for old, value, exact in zip(PREVIOUS[command], new, exact_values(mp, command), strict=True):
        assert abs(value - exact) <= abs(old - exact)


def test_rerecorded_monte_carlo_line_moved_by_less_than_1e12():
    for command in (c for c in PREVIOUS if "--method mc" in c):
        new = printed_values(GOLDEN["commands"][command]["stdout"])
        for old, value in zip(PREVIOUS[command], new, strict=True):
            assert abs(value - old) <= 1e-12 * abs(old), command


BEFORE_NEAR_ONE_SERIES = {
    "mi --signal-rate 3 --noise-rate 0.1": 0.021433953545627493,
    "mi --signal-rate 1e6 --noise-rate 1e-6": 0.00000000000064515059960967847,
}


@pytest.mark.parametrize("command", sorted(BEFORE_NEAR_ONE_SERIES))
def test_rerecorded_mutual_information_is_closer_to_mpmath(mp, command):
    (value,) = printed_values(GOLDEN["commands"][command]["stdout"])
    (exact,) = exact_values(mp, command)
    old = BEFORE_NEAR_ONE_SERIES[command]
    assert abs(value - exact) < abs(old - exact)
    assert abs(value - exact) <= 1e-15 * exact


BEFORE_MAPPED_QUADRATURE = {
    "entropy --lambda-w 2 --lambda-x 1 --method quad": 1.3068528194403262,
    "entropy --lambda-w 1 --lambda-x 1 --method quad": 1.5772156649020703,
    "entropy --lambda-w 10 --lambda-x 0.3 --method quad": 2.2232691396934543,
    "entropy --lambda-w 1.7e308 --lambda-x 1.6e308 --method quad": -708.11869662223853,
}


@pytest.mark.parametrize("command", sorted(BEFORE_MAPPED_QUADRATURE))
def test_rerecorded_quadrature_lines_are_at_least_as_close_to_mpmath(mp, command):
    (value,) = printed_values(GOLDEN["commands"][command]["stdout"])
    (exact,) = exact_values(mp, command.removesuffix(" --method quad"))
    assert abs(value - exact) <= abs(BEFORE_MAPPED_QUADRATURE[command] - exact)


def previous_closed_form(rate_a, rate_b):
    """The closed form as evaluated before the re-recording: the Erlang-2
    value at the mean rate below a relative gap of 1e-12, else
    psi(r) - ln r with the asymptotic series in 1/r from r >= 6."""
    hi, lo = max(rate_a, rate_b), min(rate_a, rate_b)
    if hi - lo <= 1e-12 * hi:
        return 1.0 + EULER_GAMMA - math.log(0.5 * (hi + lo))

    def series(x):
        z = 1.0 / (x * x)
        s = 0.0
        for coeff in reversed(_ASYMPTOTIC):
            s = (s + coeff) * z
        return -0.5 / x - s

    r = hi / (hi - lo)
    acc, y = 0.0, r
    while y < 6.0:
        acc -= 1.0 / y
        y += 1.0
    tail = series(r) if r >= 6.0 else acc + math.log(y / r) + series(y)
    return 1.0 + EULER_GAMMA - math.log(lo) + tail


@pytest.mark.parametrize(
    "command", sorted(c for c in PREVIOUS if c.startswith("entropy") and "--method" not in c)
)
def test_previous_closed_form_reproduces_the_previous_lines(command):
    argv = command.split()
    assert previous_closed_form(float(argv[2]), float(argv[4])) == PREVIOUS[command][0]


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_rerecorded_figures_are_as_close_to_mpmath(mp, figure):
    """Each changed figure entropy is at least as close to mpmath as the
    value it replaced, or within one ulp of the exact value; the largest
    error over the figure does not grow."""
    header, blocks_of = FIGURES[figure]
    entropy = header.index("entropy_nats")  # a list column: one-value columns repeat to its length
    full = ([column if isinstance(column, list) else [column] * len(columns[entropy])
             for column in columns] for columns in blocks_of(2000))
    col = dict(zip(header, ([v for block in column for v in block] for column in zip(*full))))
    worst_old = worst_new = 0.0
    for a, b, value in zip(col["lambda_w"], col["lambda_x"], col["entropy_nats"]):
        if a is None:  # the single-exponential curve is not a two-rate closed form
            continue
        old = previous_closed_form(a, b)
        if old == value:
            continue
        exact = mp_entropy(mp, a, b)
        err_old, err_new = float(abs(old - exact)), float(abs(value - exact))
        assert err_new <= max(err_old, math.ulp(value))
        worst_old, worst_new = max(worst_old, err_old), max(worst_new, err_new)
    assert worst_new <= worst_old


@pytest.mark.parametrize(
    "case",
    GOLDEN["oracle"]["quadrature"],
    ids=lambda c: "{!r} {!r} tol {!r}".format(*c["rates"], c["abs_tol"]),
)
def test_quadrature_values_are_within_tolerance_of_mpmath(mp, case):
    # float.fromhex raises on a recorded error text: every corpus pair converges
    tol = case["abs_tol"]
    assert abs(float.fromhex(case["entropy"]) - mp_entropy(mp, *case["rates"])) <= tol
    assert abs(float.fromhex(case["normalization"]) - 1.0) <= tol


#: The largest |entropy - mpmath| / abs_tol over the oracle corpus as recorded
#: before the quadratures moved to the unit scale t = lambda_lo y. The corpus
#: was re-recorded only after this test passed on the new values; no later
#: re-recording may exceed it.
CORPUS_WORST_ENTROPY_ERROR = 0.017838888394643183


def test_quadrature_corpus_worst_error_does_not_grow(mp):
    worst = max(
        abs(float.fromhex(case["entropy"]) - mp_entropy(mp, *case["rates"])) / case["abs_tol"]
        for case in GOLDEN["oracle"]["quadrature"]
    )
    assert worst <= CORPUS_WORST_ENTROPY_ERROR


#: The largest |value - mpmath| / abs_tol over the ``gr_log_integral`` corpus
#: as recorded from the substitution xi = e^(-vx) with its two slivers,
#: before the log integral moved onto the [0, T] tail-bound domain. The
#: corpus was re-recorded only after this test passed on the old values; no
#: later re-recording may exceed it.
CORPUS_WORST_LOG_INTEGRAL_ERROR = 0.4374669820112361


def test_gr_log_integral_corpus_worst_error_does_not_grow(mp):
    worst = max(
        float(abs(float.fromhex(case["value"]) - mp_log_integral(mp, case["u"], case["v"])))
        / case["abs_tol"]
        for case in GOLDEN["oracle"]["gr_log_integral"]
    )
    assert worst <= CORPUS_WORST_LOG_INTEGRAL_ERROR

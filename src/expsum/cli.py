"""Command-line interface: point evaluations, verification, figure data.

Exit codes: 0 success, 1 verification failure, 2 argument error,
3 quadrature convergence failure, 4 output I/O failure, 5 internal error
or resource limit, 130 interrupted (Ctrl-C). Only argument checks exit 2:
every error raised after them, a ValueError included, maps to 3, 4 or 5.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys

from . import entropy as entropy_mod
from . import oracle
from .dist import RatePair
from .specfun import EULER_GAMMA, digamma

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4
EXIT_INTERNAL = 5
EXIT_INTERRUPTED = 130  # the shell's code for SIGINT

#: Figure rows computed, rendered and written per block. Peak memory is one
#: block plus one curve's grid, whatever the number of grid points; on fig1
#: no size from 256 to 32768 rendered measurably faster.
FIGURE_BLOCK = 1024


def _fmt17_list(numbers) -> list:
    """Render each number in positional notation with 17 significant digits.

    The digits are those of the exact binary value, correctly rounded, so
    the text round-trips. Below 1 in magnitude, trailing zeros that come
    from an exact remainder or a round-up carry are dropped, down to 16
    decimals (0.5 -> 0.5000000000000000, 0.1 -> 0.10000000000000001).
    From 1e16 up, every integer digit is printed, then ".". nan, inf and
    -inf print as such. The output is byte-identical to numpy's
    ``format_float_positional(x, precision=17, unique=False,
    fractional=False, trim="k")``.

    One bulk ``"%#.17g"`` formats them all; only the cells with an exponent
    (outside [1e-4, 1e17)) or a trailing "0" after "0." or "-0." are then
    rewritten. No number's text holds a newline, so splitting is exact.
    """
    text = ("%#.17g\n" * len(numbers) % tuple(numbers)).split("\n")[:-1]
    for i, s in enumerate(text):
        if "e" in s:
            mantissa, _, exp = s.partition("e")
            sign = "-" if s[0] == "-" else ""
            digits = mantissa.lstrip("-").replace(".", "")
            e = int(exp)
            if e > 0:
                text[i] = sign + digits + "0" * (e - 16) + "."
                continue
            s = text[i] = sign + "0." + "0" * (-1 - e) + digits
        if s[-1] == "0" and s.startswith(("0.", "-0.")):
            # the zeros are dropped when the exact value is at most the
            # rounded one: |x| = num/den against fraction/10**decimals
            point = s.index(".")
            num, den = abs(numbers[i]).as_integer_ratio()
            if num * 10 ** (len(s) - point - 1) <= int(s[point + 1 :]) * den:
                text[i] = s.rstrip("0").ljust(point + 17, "0")
    return text


def _fmt17(x: float) -> str:
    """One float's ``_fmt17_list`` text."""
    return _fmt17_list([float(x)])[0]


def _checked(parse, ok, requirement: str):
    """An argparse type: ``parse`` (float or int) reads the text, and a value
    that fails ``ok`` is rejected with "must <requirement>"."""
    noun = "a number" if parse is float else "an integer"

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {requirement}, got {text!r}")
        return value

    return convert


_rate_arg = _checked(float, lambda x: math.isfinite(x) and x > 0.0, "be a positive finite rate")
_probability_arg = _checked(float, lambda p: 0.0 <= p <= 1.0, "lie in [0, 1]")
_tol_arg = _checked(float, lambda x: math.isfinite(x) and x > 0.0, "be a positive tolerance")
_count_arg = _checked(int, lambda n: n >= 2, "be at least 2")
_seed_arg = _checked(int, lambda n: n >= 0, "be nonnegative")


def cmd_entropy(args) -> int:
    rates = RatePair(args.lambda_w, args.lambda_x)
    if args.method == "mc":
        if args.n is None or args.seed is None:
            print("error: --method mc requires both --n and --seed", file=sys.stderr)
            return EXIT_USAGE
        est = oracle.entropy_monte_carlo(rates, args.n, args.seed)
        print(f"entropy_nats {_fmt17(est.estimate)}")
        print(f"std_error {_fmt17(est.std_error)}")
        print(f"n_samples {est.n_samples}")
        return EXIT_OK
    if args.method == "quad":
        value = oracle.entropy_quadrature(rates, abs_tol=args.tol)
    else:
        value = entropy_mod.hypoexp_entropy(rates)
    print(f"entropy_nats {_fmt17(value)}")
    return EXIT_OK


def cmd_mi(args) -> int:
    value = entropy_mod.mutual_info_aen(args.signal_rate, args.noise_rate)
    print(f"mutual_information {_fmt17(value)} nats per server request")
    return EXIT_OK


def cmd_cond_entropy(args) -> int:
    value = entropy_mod.cond_entropy_light(
        args.lambda_x, args.lambda_w_on, args.lambda_w_off, args.p_on
    )
    branch_on = entropy_mod.hypoexp_entropy(RatePair(args.lambda_x, args.lambda_w_on))
    branch_off = entropy_mod.hypoexp_entropy(RatePair(args.lambda_x, args.lambda_w_off))
    print(f"cond_entropy_nats {_fmt17(value)}")
    print(f"branch_on_nats {_fmt17(branch_on)}")
    print(f"branch_off_nats {_fmt17(branch_off)}")
    return EXIT_OK


def _slices(grid):
    """``grid`` in consecutive slices of ``FIGURE_BLOCK`` elements."""
    return (grid[start : start + FIGURE_BLOCK] for start in range(0, grid.size, FIGURE_BLOCK))


def _fig1_blocks(grid_points: int):
    """fig1's long-format rows as blocks of columns (``_block_rows``), each
    computed when it is reached.

    Ten fixed-noise curves with lambda_w stepping 0.2 .. 2.0 in increments
    of 0.2 and lambda_x sweeping up to just below lambda_w, plus the
    equal-rate Erlang-2 curve and the single-exponential curve over a
    shared grid. A curve's grid is built when the curve is reached and cut
    into blocks of at most ``FIGURE_BLOCK`` rows; ``hypoexp_entropy_array``
    equals the scalar form on each element, so no value depends on the blocks.
    """
    import numpy as np

    for lam_w in (round(0.2 * k, 1) for k in range(1, 11)):
        # lambda_w > lambda_x on each fixed-noise curve, as the array form needs
        for x in _slices(np.geomspace(0.01, lam_w * (1.0 - 1e-3), grid_points)):
            h = entropy_mod.hypoexp_entropy_array(np.full(x.size, lam_w), x)
            yield ["hypoexp", lam_w, x.tolist(), h.tolist()]
    shared = np.geomspace(0.01, 2.0, grid_points)
    for x in _slices(shared):  # equal rates give the Erlang-2 entropy
        xs = x.tolist()
        yield ["erlang2", xs, xs, entropy_mod.hypoexp_entropy_array(x, x).tolist()]
    for x in _slices(shared):
        xs = x.tolist()
        yield ["single", None, xs, list(map(entropy_mod.exp_entropy, xs))]


def _fig2_blocks(grid_points: int):
    """fig2's rows as blocks of columns, as ``_fig1_blocks``.

    lambda runs log-spaced over [1.01, 100]; 2.0, the equal-rate point
    where the curve touches the Erlang-2 line, is added so the contact
    appears exactly in the data. The rates are the pair {lambda,
    lambda/(lambda - 1)} of ``mean_constrained_rates``: lambda is the
    smaller one below 2.0 and the larger one from 2.0 up, so the blocks
    split there and each passes its lambda list again as lambda_x or
    lambda_w. Each reference is one float.
    """
    import numpy as np

    lam = np.geomspace(1.01, 100.0, grid_points)
    at = int(np.searchsorted(lam, 2.0))
    if lam[at] != 2.0:  # lam ends at 100, so 2.0 is never past the end
        lam = np.insert(lam, at, 2.0)
    references = entropy_mod.exp_entropy(1.0), entropy_mod.erlang2_entropy(2.0)
    for side in (lam[:at], lam[at:]):
        for x in _slices(side):
            xs, others = x.tolist(), (x / (x - 1.0)).tolist()
            # x < 2 < other below 2.0 and other <= 2 <= x from it up, also once rounded
            lo, hi = (xs, others) if xs[0] < 2.0 else (others, xs)
            h = entropy_mod.hypoexp_entropy_array(hi, lo).tolist()
            yield [xs, lo, hi, h, *references]


def _block_rows(columns, texts_of, text_of):
    """The rows of one figure block, as an iterator of tuples of cell texts.

    The column contract of every figure block: a column is either a list of
    numbers or one value that fills every row of the block. A block holds at
    least one list column, and its list columns have equal length. Each list is
    formatted by one ``texts_of`` call however often the block passes it. Each
    one-value column is formatted by one ``text_of`` call, and every row repeats
    that text.
    """
    lists = {id(col): col for col in columns if isinstance(col, list)}
    texts = {key: texts_of(col) for key, col in lists.items()}
    return zip(*(texts[id(col)] if isinstance(col, list) else itertools.repeat(text_of(col))
                 for col in columns))


def _render_csv(header, blocks):
    """Yield the CSV text of the rows in pieces: the header line, then one piece
    per block, one line per row: a list's numbers as ``_fmt17_list`` texts, a
    one-value column as "" for None, a str as itself, a number as its ``_fmt17`` text.
    """
    def text_of(col):
        return "" if col is None else col if isinstance(col, str) else _fmt17(col)

    yield ",".join(header) + "\n"
    for columns in blocks:
        yield "\n".join(map(",".join, _block_rows(columns, _fmt17_list, text_of))) + "\n"


def _render_json(header, blocks):
    """Yield, in pieces, the bytes of ``json.dumps(records, indent=2) + "\n"``
    for the records ``dict(zip(header, row))`` of the rows of ``blocks``: "[\n",
    then one piece per block with ",\n" between blocks, then "\n]\n"; "[]\n" alone
    when there are no blocks. Every value is its ``json.dumps`` text.

    json's own encoder writes each list in one call, with a newline between items;
    json escapes newlines in strings, so splitting there gives each value's text.
    """
    import json

    def item_texts(col):
        return json.dumps(col, separators=("\n", ": "))[1:-1].split("\n")

    labels = (f"    {json.dumps(key)}: ".replace("%", "%%") + "%s" for key in header)
    record = "  {\n" + ",\n".join(labels) + "\n  }"

    opening = "[\n"
    for columns in blocks:
        yield opening
        yield ",\n".join(map(record.__mod__, _block_rows(columns, item_texts, json.dumps)))
        opening = ",\n"
    yield "[]\n" if opening == "[\n" else "\n]\n"


#: Each figure's header and its block builder.
FIGURES = {
    "fig1": (["curve", "lambda_w", "lambda_x", "entropy_nats"], _fig1_blocks),
    "fig2": (["lambda", "lambda_x", "lambda_w", "entropy_nats", "reference_exp",
              "reference_erlang2"], _fig2_blocks),
}
RENDERERS = {"csv": _render_csv, "json": _render_json}


@functools.cache  # on first use: no ctypes at import
def _renameat2():
    """libc's ``renameat2``, or None where libc has none (macOS, musl, Windows)."""
    import ctypes

    try:
        fn = ctypes.CDLL(None).renameat2
    except (AttributeError, OSError, TypeError):  # TypeError: Windows loads no library None
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
    fn.restype = ctypes.c_int
    return fn


def _exchange(a: str, b: str) -> bool:
    """Swap the files named ``a`` and ``b`` in one atomic step, as Linux's
    ``renameat2(AT_FDCWD, a, AT_FDCWD, b, RENAME_EXCHANGE)`` does; False, with
    nothing moved, where libc has no ``renameat2`` or the call fails (EINVAL,
    ENOSYS, EPERM from the filesystem or a seccomp filter)."""
    renameat2 = _renameat2()
    at_fdcwd, rename_exchange = -100, 2  # Linux's values
    return renameat2 is not None and renameat2(
        at_fdcwd, os.fsencode(a), at_fdcwd, os.fsencode(b), rename_exchange) == 0


def _write_out(path: str, pieces) -> None:
    """Write the text ``pieces`` to ``path``. A regular file, or the one a symlink names, is
    replaced all or nothing by a new file in its directory with its mode (0o666 less the umask
    where there was none): ``.<name>.<pid>``, or the first free one of ``.<name>.<pid>.1``,
    ``.2``, ... past files a killed run left, which stay untouched. An old file is swapped
    with the new one by ``_exchange`` and then unlinked; where the swap fails, and where there
    was no old file, the new file is renamed over the path. A rename over a file makes ext4
    write the new file's blocks to disk first and the swap does not, so a power loss may leave
    the new file incomplete. Anything else, such as /dev/null, is written in place."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            return fh.writelines(pieces)
    stem = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}")
    for tmp in itertools.chain([stem], (f"{stem}.{n}" for n in itertools.count(1))):
        try:
            fh = open(tmp, "x", encoding="utf-8", newline="")  # mode 0o666 less the umask
            break
        except FileExistsError:
            pass
    try:
        with fh:
            fh.writelines(pieces)
        if os.path.exists(target):
            os.chmod(tmp, os.stat(target).st_mode & 0o7777)
            if _exchange(tmp, target):
                return os.unlink(tmp)  # the old file, under the new file's name since the swap
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_figure(args) -> int:
    header, blocks_of = FIGURES[args.figure_id]
    pieces = RENDERERS[args.format](header, blocks_of(args.grid_points))
    if args.out is None:
        sys.stdout.writelines(pieces)
    else:
        _write_out(args.out, pieces)
    return EXIT_OK


def _verify_checks(seed: int, samples: int):
    """The oracle agreement suite: yields (name, limit, deviations) rows, where
    ``deviations`` iterates over the check's cases and is evaluated when read."""
    import numpy as np

    grid = [float(g) for g in np.geomspace(0.1, 10.0, 7)]
    # RatePair(a, b) == RatePair(b, a): the 42 ordered pairs are the 21 with a < b
    pairs = [RatePair(a, b) for i, a in enumerate(grid) for b in grid[i:]]
    yield "closed form vs quadrature (42 pairs)", 1e-8, (
        abs(oracle.entropy_quadrature(rates) - entropy_mod.hypoexp_entropy(rates))
        for rates in pairs if rates.lambda_hi != rates.lambda_lo)
    yield "density normalization (28 pairs)", 1e-10, (
        abs(oracle.normalization_quadrature(rates) - 1.0) for rates in pairs)

    def log_integral_deviations():
        for u in (0.5, 1.0, 2.0, 5.0):
            for v in (0.5, 1.0, 2.0, 5.0):
                closed = -(EULER_GAMMA + digamma(u / v + 1.0)) / u
                yield abs(oracle.gr_log_integral(u, v) - closed)

    yield "log-integral identity (16 pairs)", 1e-8, log_integral_deviations()

    def z_scores():
        for a, b in ((2.0, 1.0), (10.0, 0.3), (1.01, 1.0)):
            rates = RatePair(a, b)
            closed = entropy_mod.hypoexp_entropy(rates)
            for i in range(5):
                est = oracle.entropy_monte_carlo(rates, samples, seed + i)
                yield abs(est.estimate - closed) / est.std_error

    yield "Monte-Carlo |z| (3 pairs x 5 seeds)", 5.0, z_scores()


def cmd_verify(args) -> int:
    print(f"verification report (seed {args.seed}, samples {args.samples})")
    all_ok = True
    for name, limit, deviations in _verify_checks(args.seed, args.samples):
        measured = max(deviations)  # no deviation is nan: the oracles raise on non-finite values
        ok = measured <= limit
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        print(f"  {name:42s} max {measured:.3e}  limit {limit:.1e}  {status}")
    print(f"overall {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsum",
        description=(
            "Differential entropy of sums of two independent exponentials: "
            "closed forms, numerical oracles, and figure data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="entropy of the sum at two rates")
    p.add_argument("--lambda-w", type=_rate_arg, required=True)
    p.add_argument("--lambda-x", type=_rate_arg, required=True)
    p.add_argument("--method", choices=("closed", "quad", "mc"), default="closed")
    p.add_argument("--n", type=_count_arg, help="sample count (mc only)")
    p.add_argument("--seed", type=_seed_arg, help="generator seed (mc only)")
    p.add_argument("--tol", type=_tol_arg, default=1e-10, help="quadrature tolerance")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("mi", help="additive exponential noise mutual information")
    p.add_argument("--signal-rate", type=_rate_arg, required=True)
    p.add_argument("--noise-rate", type=_rate_arg, required=True)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("cond-entropy", help="gate-conditioned dwell-time entropy")
    p.add_argument("--lambda-x", type=_rate_arg, required=True)
    p.add_argument("--lambda-w-on", type=_rate_arg, required=True)
    p.add_argument("--lambda-w-off", type=_rate_arg, required=True)
    p.add_argument("--p-on", type=_probability_arg, required=True)
    p.set_defaults(func=cmd_cond_entropy)

    p = sub.add_parser("figure", help="emit the data behind the two figures")
    p.add_argument("figure_id", choices=FIGURES)
    p.add_argument("--grid-points", type=_count_arg, default=200)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=RENDERERS, default="csv")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="closed forms vs independent oracles")
    p.add_argument("--seed", type=_seed_arg, default=42)
    p.add_argument("--samples", type=_count_arg, default=100000)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code  # argparse exits with an int: 0 after --help, 2 on an argument error
    except oracle.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # keep 1 for a failed verification only
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

    python -m pytest benchmarks/test_benchmarks.py
"""

from __future__ import annotations

import itertools
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _take(gen, n):
    return list(itertools.islice(gen, n))


def test_same_seed_same_inputs():
    for name, (inputs, _) in workloads.WORKLOADS.items():
        first, again, other = (_take(inputs(seed), 30) for seed in (7, 7, 8))
        assert first == again, name
        assert first != other, name


def test_rate_pairs_cover_the_classes_in_thirds():
    pairs = _take(workloads.rate_pairs(3), 300)
    for cls, (a, b) in workloads.PAIR_CLASSES.items():
        picked = [(hi, lo) for c, hi, lo in pairs if c == cls]
        assert len(picked) == 100
        for hi, lo in picked:
            assert 1e-6 <= lo <= hi <= 1e6
            x = hi / lo - 1.0 if cls == "near_equal" else hi / lo
            assert a - 1e-3 <= math.log10(x) <= b + 1e-3


def test_mc_pairs_leave_out_near_equal_pairs():
    classes = [c for c, _, _, _ in _take(workloads.mc_pairs(3), 100)]
    assert classes.count("moderate") == classes.count("separated") == 50
    full = [c for c, _, _, _ in _take(workloads.mc_full_pairs(3), 99)]
    assert full.count("near_equal") == 33


def test_oracle_pairs_stay_in_the_gated_domain():
    for cls, hi, lo in _take(workloads.oracle_pairs(3), 100):
        assert cls == "moderate"
        assert 0.1 <= lo <= hi <= 10.0
        assert 1.1 * (1 - 1e-9) <= hi / lo <= 100.0 * (1 + 1e-9)


def test_checker_flags_a_perturbed_value():
    ref = check.entropy_ref(2.0, 1.0)
    checker = check.Checker()
    assert checker.value("closed", float(ref), ref, check.CLOSED_TOL)
    assert not checker.value("closed", float(ref) + 1e-9, ref, check.CLOSED_TOL)
    assert not checker.value("closed", float("nan"), ref, check.CLOSED_TOL)
    assert checker.attempted == 3
    assert checker.failures == {("closed", "wrong_value"): 2}


def test_checker_flags_a_nonzero_exit(tmp_path):
    run = workloads.Run(os.path.dirname(HERE), seed=0)
    argv = ["entropy", "--lambda-w", "-1", "--lambda-x", "1", "--method", "closed"]
    workloads.point_op(run, argv, spans.NullTracer)
    assert run.checker.failures == {("cli.entropy", "nonzero_exit"): 1}


def test_checker_flags_a_convergence_error():
    run = workloads.Run(os.path.dirname(HERE), seed=0)
    workloads.oracle_op(run, ("near_equal", 1.0 + 1e-10, 1.0), spans.NullTracer)
    assert run.checker.attempted == 3
    assert run.checker.failures[
        ("oracle.entropy_quadrature/near_equal", "ConvergenceError")
    ] == 1


def test_self_time_on_a_synthetic_tree():
    tree = [
        ["root", 0, 100, -1, 0, 0],
        ["a", 10, 30, 0, 0, 0],
        ["a.child", 12, 15, 1, 0, 0],
        ["b", 20, 50, 0, 0, 0],  # overlaps a: the union is counted once
        ["c", 90, 120, 0, 0, 0],  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == [50, 17, 3, 30, 30]


def test_missing_wrapped_name_is_unmeasured(monkeypatch):
    monkeypatch.setattr(
        spans, "WRAPS", spans.WRAPS + (("entropy", "no_such_function", "entropy.gone", None),)
    )
    tracer = spans.Tracer()
    assert tracer.unmeasured == ["entropy.no_such_function"]
    tracer.install()
    tracer.uninstall()

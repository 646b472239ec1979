"""Spans at the package's layer boundaries, recorded from outside.

The traced run replaces module attributes that one layer calls in
another with thin wrappers that open a span around the call; nothing in
``src/`` changes. A span is ``[name, start_ns, end_ns, parent, op, work]``,
where ``parent`` indexes the enclosing span of the same operation (-1 for
none) and ``work`` counts what the call processed (points, samples, or 1
for a ``digamma_minus_log`` call on the recurrence path). Spans of each
operation are kept in memory until it ends; self times are derived then,
and a bounded sample is written out when the run ends.
"""

from __future__ import annotations

import collections
import importlib
import json
import time

import numpy as np

#: Most spans written out at the end of a run; aggregates cover them all.
KEEP_SPANS = 50_000


def _points(args, kwargs, pos, key):
    y = args[pos] if len(args) > pos else kwargs.get(key)
    return int(np.size(y))


def _samples(args, kwargs):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(size)


#: (module under ``expsum``, attribute, span name, work counter). Each entry
#: is a call from one layer into another: cli -> entropy, entropy -> dist
#: and specfun, oracle -> dist, and HypoexpTwo.pdf -> dist.hypoexp_pdf.
WRAPS = (
    ("entropy", "hypoexp_entropy", "entropy.hypoexp_entropy", None),
    ("entropy", "exp_entropy", "entropy.exp_entropy", None),
    ("entropy", "erlang2_entropy", "entropy.erlang2_entropy", None),
    ("entropy", "mean_constrained_rates", "entropy.mean_constrained_rates", None),
    ("cli", "RatePair", "dist.RatePair", None),
    ("entropy", "RatePair", "dist.RatePair", None),
    (
        "entropy",
        "digamma_minus_log",
        "specfun.digamma_minus_log",
        lambda a, k: int(a[0] < 6.0),
    ),
    ("oracle", "entropy_quadrature", "oracle.entropy_quadrature", None),
    ("oracle", "normalization_quadrature", "oracle.normalization_quadrature", None),
    ("oracle", "gr_log_integral", "oracle.gr_log_integral", None),
    ("oracle", "entropy_monte_carlo", "oracle.entropy_monte_carlo", None),
    ("oracle", "sample_hypoexp", "dist.sample_hypoexp", _samples),
    ("oracle", "hypoexp_log_pdf", "dist.hypoexp_log_pdf", lambda a, k: _points(a, k, 1, "y")),
    ("dist", "hypoexp_pdf", "dist.pdf", lambda a, k: _points(a, k, 1, "y")),
)


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    that the union of its children's intervals covers."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0, start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


class NullTracer:
    """Stands in for the tracer on untraced operations."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans and folds them into per-name aggregates after each op."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        # name -> [calls, total_ns, self_ns, work]
        self.agg = collections.defaultdict(lambda: [0, 0, 0, 0])
        self.kept = []
        self.unmeasured = []
        self._wrappers = []
        for module_name, attr, name, work in WRAPS:
            module = importlib.import_module(f"expsum.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.unmeasured.append(f"{module_name}.{attr}")
                continue
            self._wrappers.append((module, attr, fn, self._wrap(name, fn, work)))

    def _wrap(self, name, fn, work):
        def wrapped(*args, **kwargs):
            idx = self.enter(name, work(args, kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(idx)

        return wrapped

    def install(self):
        for module, attr, _, wrapped in self._wrappers:
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, fn, _ in self._wrappers:
            setattr(module, attr, fn)

    def enter(self, name, work=0) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, work])
        self.stack.append(idx)
        return idx

    def exit(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(idx)

    def end_op(self):
        """Fold the finished operation's spans into the aggregates."""
        for span, own in zip(self.spans, self_times(self.spans)):
            a = self.agg[span[0]]
            a[0] += 1
            a[1] += span[2] - span[1]
            a[2] += own
            a[3] += span[5]
        room = KEEP_SPANS - len(self.kept)
        self.kept.extend(self.spans[:room])
        self.spans = []
        self.op += 1

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, work in self.kept:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op, "work": work}
                    )
                    + "\n"
                )

    def calls(self, name) -> int:
        return self.agg[name][0] if name in self.agg else 0

    def mean_ns(self, name, self_time=False) -> float:
        a = self.agg.get(name)
        return (a[2] if self_time else a[1]) / a[0] if a and a[0] else 0.0

    def per_work_ns(self, name) -> float:
        a = self.agg.get(name)
        return a[1] / a[3] if a and a[3] else 0.0

    def work(self, name) -> int:
        return self.agg[name][3] if name in self.agg else 0

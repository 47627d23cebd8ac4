"""Spans around calls into slicealg's public functions, from outside.

:func:`install` replaces public functions and methods with timing
wrappers in every slicealg namespace that binds them, which is where the
library looks them up; :meth:`Tracer.restore` puts the originals back.
No library file changes.  Spans are kept in memory as
(name, site, start, end, parent, request, n), where ``site`` is the
module whose namespace the call went through and ``n`` an optional work
count (points, bytes, nodes).  :func:`layer_metrics` turns the spans of
one round into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

NAME, SITE, START, END, PARENT, REQUEST, N = range(7)

# (defining module, public function); every namespace binding the same
# object gets a wrapper that records the span under "module.function".
FUNCTIONS = [
    ("pde", "helmholtz_solution"),
    ("pde", "klein_gordon_solution"),
    ("pde", "general_quadratic_kernel"),
    ("pde", "yukawa_solve"),
    ("pde", "verify_pde"),
    ("fmtio", "write_csv"),
    ("fmtio", "dumps_json"),
    ("fmtio", "load_json"),
    ("monogenic", "fd_crf"),
    ("monogenic", "fueter_laplacian"),
    ("eigensolve", "S_lambda"),
    ("eigensolve", "gen_exp"),
    ("eigensolve", "f_mu_lambda"),
    ("eigensolve", "solve_with_initial"),
    ("series", "slice_product"),
    ("series", "normal"),
    ("series", "exp_series"),
    ("series", "load_coeffs"),
    ("quaternion", "parse_quaternion"),
    ("verify", "run_suites"),
]

METHODS = [
    ("pde", "SolutionEvaluator", "eval_components"),
    ("pde", "SolutionEvaluator", "__call__"),
    ("monogenic", "MonogenicSeries", "__call__"),
    ("series", "PowerSeries", "__call__"),
]

MODULES = ("cli", "eigensolve", "errors", "fmtio", "monogenic", "pde",
           "quaternion", "series", "sliceexpr", "verify")

CONSTRUCTORS = ("pde.helmholtz_solution", "pde.klein_gordon_solution",
                "pde.general_quadratic_kernel", "pde.yukawa_solve")
SUITE_NAMES = ("quaternion", "series", "sliceexpr", "eigensolve",
               "monogenic", "pde")

# Reported values never fall below these floors, so that every metric
# stays positive on every workload.  A layer that does not run on a
# workload reads exactly at its floor: a time of 1e-6 s, or a count of
# 0.5, which no real count can be.
TIME_FLOOR_S = 1e-6
COUNT_FLOOR = 0.5


def _work_count(name, args, result):
    """The ``n`` recorded for a span, where the call has a work size."""
    if name == "pde.SolutionEvaluator.eval_components":
        return int(getattr(args[1], "size", 1))
    if name == "fmtio.write_csv":
        return os.path.getsize(args[0])
    if name == "fmtio.dumps_json":
        return len(result.encode("utf-8"))
    if name == "pde.verify_pde":
        return int(result.n_points)
    return None


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.mul_calls = 0
        self._undo = []

    def call(self, name, site, fn, *args, **kwargs):
        """Run fn inside a span; the wrappers and the benchmark use this."""
        spans = self.spans
        idx = len(spans)
        parent = self.stack[-1] if self.stack else -1
        rec = [name, site, time.perf_counter(), 0.0, parent, self.request, None]
        spans.append(rec)
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            rec[END] = time.perf_counter()
        rec[N] = _work_count(name, args, result)
        return result

    def _wrap(self, fn, name, site):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, site, fn, *args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> None:
    """Wrap the traced names in every slicealg namespace that binds them."""
    mods = {m: importlib.import_module(f"slicealg.{m}") for m in MODULES}
    namespaces = dict(mods, slicealg=importlib.import_module("slicealg"))
    for home, fname in FUNCTIONS:
        orig = getattr(mods[home], fname)
        for site, ns in namespaces.items():
            if getattr(ns, fname, None) is orig:
                tracer._patch(ns, fname,
                              tracer._wrap(orig, f"{home}.{fname}", site))
    for home, cls_name, meth in METHODS:
        cls = getattr(mods[home], cls_name)
        name = f"{home}.{cls_name}.{meth}"
        tracer._patch(cls, meth, tracer._wrap(cls.__dict__[meth], name, home))

    quat = mods["quaternion"].Quaternion
    mul = quat.__dict__["__mul__"]

    def counted_mul(a, b):
        tracer.mul_calls += 1
        return mul(a, b)
    tracer._patch(quat, "__mul__", counted_mul)

    verify = mods["verify"]
    tracer._patch(verify, "SUITES", tuple(
        (sname, tracer._wrap(fn, f"verify.{sname}", "verify"))
        for sname, fn in verify.SUITES))


def _under(spans, idx, pred):
    p = spans[idx][PARENT]
    while p >= 0:
        if pred(spans[p]):
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, mul_calls: int) -> dict:
    """Per-layer totals for one round's spans (seconds, counts, bytes).

    Times are inclusive except the ``*_self_s`` ones, which subtract the
    time covered by child spans.  A span nested in a span of the same
    group is not counted twice; grid evaluations nested in a CRF probe
    count towards the probe, not towards ``pde.grid_eval_*``.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def pick(pred):
        return [i for i, s in enumerate(spans)
                if pred(s) and not _under(spans, i, pred)]

    def total(pred):
        return sum(dur[i] for i in pick(pred))

    def count(pred):
        return len(pick(pred))

    def self_time(name):
        return sum(dur[i] - child[i] for i, s in enumerate(spans)
                   if s[NAME] == name)

    def named(*names):
        return lambda s: s[NAME] in names

    def crf(s):
        return s[NAME] == "monogenic.fd_crf"

    def pde_crf(s):
        return crf(s) and s[SITE] == "pde"

    grid = [i for i, s in enumerate(spans)
            if s[NAME] == "pde.SolutionEvaluator.eval_components"
            and not _under(spans, i, crf)]
    m = {
        "pde.construct_s": total(named(*CONSTRUCTORS)),
        "pde.verify_pde_s": total(named("pde.verify_pde")),
        "pde.verify_pde_self_s": self_time("pde.verify_pde"),
        "pde.grid_eval_s": sum(dur[i] for i in grid),
        "pde.grid_eval_calls": len(grid),
        "pde.grid_points": sum(spans[i][N] for i in grid),
        "pde.crf_probe_s": total(pde_crf),
        "pde.crf_probes": count(pde_crf),
        "pde.nodes_kept": sum(spans[i][N] for i in pick(named("pde.verify_pde"))),
        "fmtio.write_csv_s": total(named("fmtio.write_csv")),
        "fmtio.csv_bytes": sum(spans[i][N] for i in pick(named("fmtio.write_csv"))),
        "fmtio.dumps_json_s": total(named("fmtio.dumps_json")),
        "fmtio.json_bytes": sum(spans[i][N] for i in pick(named("fmtio.dumps_json"))),
        "fmtio.load_json_s": total(named("fmtio.load_json")),
        "monogenic.fd_crf_s": total(crf),
        "monogenic.fd_crf_calls": count(crf),
        "monogenic.call_s": total(named("monogenic.MonogenicSeries.__call__")),
        "monogenic.call_calls": count(named("monogenic.MonogenicSeries.__call__")),
        "monogenic.fueter_laplacian_s": total(named("monogenic.fueter_laplacian")),
        "eigensolve.S_lambda_s": total(named("eigensolve.S_lambda")),
        "eigensolve.gen_exp_s": total(named("eigensolve.gen_exp")),
        "eigensolve.f_mu_lambda_s": total(named("eigensolve.f_mu_lambda")),
        "eigensolve.solve_with_initial_s": total(named("eigensolve.solve_with_initial")),
        "series.slice_product_s": total(named("series.slice_product")),
        "series.slice_product_calls": count(named("series.slice_product")),
        "series.normal_s": total(named("series.normal")),
        "series.call_s": total(named("series.PowerSeries.__call__")),
        "series.call_calls": count(named("series.PowerSeries.__call__")),
        "series.exp_series_s": total(named("series.exp_series")),
        "series.load_coeffs_s": total(named("series.load_coeffs")),
        "quaternion.mul_calls": mul_calls,
        "quaternion.parse_calls": count(named("quaternion.parse_quaternion")),
        "quaternion.parse_s": total(named("quaternion.parse_quaternion")),
        "cli.main_self_s": self_time("cli.main"),
        "verify.run_suites_s": total(named("verify.run_suites")),
    }
    for sname in SUITE_NAMES:
        m[f"verify.{sname}_s"] = total(named(f"verify.{sname}"))
    m["trace.spans"] = len(spans)
    return m


COUNT_METRICS = ("pde.grid_eval_calls", "pde.grid_points", "pde.crf_probes",
                 "pde.nodes_kept", "fmtio.csv_bytes", "fmtio.json_bytes",
                 "monogenic.fd_crf_calls", "monogenic.call_calls",
                 "series.slice_product_calls", "series.call_calls",
                 "quaternion.mul_calls", "quaternion.parse_calls",
                 "trace.spans")

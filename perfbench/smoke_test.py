"""Smoke test of the benchmark itself, at tiny sizes (7^3 grids, low
degrees, a few points).  From the root of a checkout:

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)

It checks that every metric BENCHMARK.json names is printed with its
unit and a positive value, that count metrics repeat exactly between two
traced runs, and that a deliberately corrupted output of every request
kind counts as failed, while a ``verify`` report that shows only the
known defect lowers ``ok_ratio`` and is not counted as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOADS = ("pde-stem", "pde-pbasis", "cli-short")
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload, trace, corrupt=None):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            rc = run.main(argv, corrupt=corrupt)
    finally:
        os.chdir(cwd)
    assert rc == 0, out.getvalue()
    return json.loads(out.getvalue().strip().splitlines()[-1])


def scale_largest(text):
    """Text with its largest-magnitude number scaled by 1.01."""
    spans = [(abs(float(m.group())), m.span()) for m in NUMBER.finditer(text)]
    _, (a, b) = max(spans)
    return text[:a] + repr(float(text[a:b]) * 1.01) + text[b:]


def corrupt(req, result):
    """Damage one number of every output, the way a wrong result would."""
    from workloads import CliResult
    if "--out-prefix" in req.argv:
        path = req.argv[req.argv.index("--out-prefix") + 1] + ".csv"
        with open(path, encoding="utf-8") as fh:
            head, body = fh.read().split("\n", 1)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head + "\n" + scale_largest(body))
        return result
    return CliResult(result.rc, scale_largest(result.stdout), result.stderr)


def check_metrics(res, wanted):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}, got
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert m["value"] > 0, (name, m)


def test_end_to_end_metrics():
    for w in WORKLOADS:
        res = bench(w, 0)
        check_metrics(res, spec()["end_to_end"])
        assert res["attempted"] >= 1


def test_per_layer_metrics_and_repeatable_counts():
    import tracing
    for w in WORKLOADS:
        first = bench(w, 1)
        second = bench(w, 1)
        check_metrics(first, spec()["per_layer"])
        for name in tracing.COUNT_METRICS:
            assert (first["metrics"][name]["value"]
                    == second["metrics"][name]["value"]), (w, name)


def test_corrupted_outputs_count_as_failed():
    for w in WORKLOADS:
        res = bench(w, 0, corrupt=corrupt)
        assert res["failed"] == res["attempted"], (w, res)
        assert res["correct"] is False


def show_known_defect(req, result):
    """Turn every verify report into the known eigensolve round-trip one."""
    from workloads import (EIGENSOLVE_ROUNDTRIP_FAIL, VERIFY_SUITES,
                           CliResult)
    if req.kind != "verify":
        return result
    seed = req.argv[req.argv.index("--seed") + 1]
    lines = [EIGENSOLVE_ROUNDTRIP_FAIL if name == "eigensolve"
             else f"ok {name}: checks" for name in VERIFY_SUITES]
    lines.append(f"1 suite(s) failed (seed {seed})")
    return CliResult(1, "\n".join(lines) + "\n", "")


def test_known_defect_lowers_ok_ratio_only():
    res = bench("cli-short", 0, corrupt=show_known_defect)
    assert res["failed"] == 0 and res["correct"] is True, res
    assert res["metrics"]["ok_ratio"]["value"] < 1.0, res


if __name__ == "__main__":
    for test in (test_end_to_end_metrics,
                 test_per_layer_metrics_and_repeatable_counts,
                 test_corrupted_outputs_count_as_failed,
                 test_known_defect_lowers_ok_ratio_only):
        test()
        print(f"ok {test.__name__}")

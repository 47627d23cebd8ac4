"""slicealg benchmark: one closed-loop client, one request in flight.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pde-stem --seed 1 --seconds 35 --trace 0

The workload's inputs are made from ``--seed`` and written under
``perfbench/.work``.  Rounds of the workload's fixed request list run
while the next round still fits in ``--seconds`` (at least one round);
every output is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with every request run as a
``python -m slicealg.cli`` subprocess.  A calibration program that shares
no code with slicealg runs before the first request and after every
request and set-up; each time is scaled by the calibration times on
either side of it (see ``CALIBRATION``).
``--trace 1`` runs the same requests in-process, each one untraced and
then traced by spans around slicealg's public functions (see
``tracing.py``), and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy as np

import tracing
from workloads import (KNOWN_DEFECTS, RESOLUTION, SIZES, WORKLOADS,
                       CliResult, fail, round_requests)

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REQUEST_TIMEOUT_S = 150
SETUP_REPEATS = 7
IMPORT_REPEATS = 5

# The speed of the machine drifts by 20-30% over tens of seconds, and
# process start, pure Python and numpy slow down together.  So every
# timed piece of work sits between two runs of this fixed program, and
# its time is reported at the speed at which the program takes
# CALIBRATION_NOMINAL_S: t * CALIBRATION_NOMINAL_S / (mean of the two).
# CALIBRATION_NOMINAL_S is the program's median time on the machine the
# benchmark was written on (2-core VM, Python 3.11.7, numpy 2.4.6), so
# there the scaled times read as wall seconds.
# The program does what the requests do: it starts an interpreter,
# imports numpy, and runs a pure-Python loop and numpy array passes.
CALIBRATION = ("import numpy as np\n"
               "x = 0.0\n"
               "for i in range(100000):\n"
               "    x += i * 0.5\n"
               "a = np.linspace(0.0, 1.0, 200000)\n"
               "for _ in range(20):\n"
               "    a = np.sin(a) * 1.0001\n")
CALIBRATION_NOMINAL_S = 0.23


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest(pkg):
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def stamp(args, root, pkg, env):
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "size": args.size,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": nproc(),
        "threads": {v: env.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(root), "source_sha256": source_digest(pkg),
    }


def run_child(argv, root, env, work):
    """Run argv to completion with its output in files under ``work``.

    Returns (result, wall seconds, peak RSS in KiB of this child alone).
    """
    out_path = os.path.join(work, "child.out")
    err_path = os.path.join(work, "child.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=err)
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    if proc.returncode < 0 and seconds >= REQUEST_TIMEOUT_S:
        return (CliResult(None, stdout, f"timed out after {REQUEST_TIMEOUT_S} s"),
                seconds, usage.ru_maxrss)
    return CliResult(proc.returncode, stdout, stderr), seconds, usage.ru_maxrss


class Bench:
    """Runs requests, checks them, and keeps the tallies of one run."""

    def __init__(self, root, env, work, corrupt=None):
        self.root = root
        self.env = env
        self.work = work
        self.attempted = 0
        self.failed = 0           # failures not listed in KNOWN_DEFECTS
        self.known_defects = 0    # requests that showed a listed defect
        self.errs = []
        self.residuals = []
        self.failures = {}
        self.peak_rss_kb = 0
        self.calibrations = []
        self.corrupt = corrupt  # test hook: applied to outputs before checks

    def subprocess_cli(self, argv):
        return run_child([sys.executable, "-m", "slicealg.cli", *argv],
                         self.root, self.env, self.work)

    def calibrate(self):
        """Run the calibration program once and keep its time."""
        res, seconds, _ = run_child([sys.executable, "-c", CALIBRATION],
                                    self.root, self.env, self.work)
        if res.rc != 0:
            raise RuntimeError(f"calibration failed: {res.stderr.strip()}")
        self.calibrations.append(seconds)

    def scaled(self, seconds):
        """``seconds`` at nominal speed, from the last two calibrations."""
        before, after = self.calibrations[-2:]
        return seconds * CALIBRATION_NOMINAL_S / ((before + after) / 2.0)

    def inprocess_cli(self, argv, tracer=None):
        import slicealg.cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = slicealg.cli.main(argv)
                else:
                    rc = tracer.call("cli.main", "cli", slicealg.cli.main, argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:                       # counted as a failure
                traceback.print_exc()
                rc = 1
        return CliResult(rc, out.getvalue(), err.getvalue())

    def run_request(self, req, inprocess=False, tracer=None):
        """Time one request, then check its output; returns the latency."""
        if inprocess:
            t0 = time.perf_counter()
            result = self.inprocess_cli(req.argv, tracer)
            latency = time.perf_counter() - t0
        else:
            result, latency, rss = self.subprocess_cli(req.argv)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
        if self.corrupt is not None:
            result = self.corrupt(req, result)
        self.record(req, result)
        return latency

    def record(self, req, result):
        self.attempted += 1
        try:
            with np.errstate(all="ignore"):
                outcome = req.check(result)
        except Exception as exc:                   # unreadable output
            outcome = fail(f"output check raised {type(exc).__name__}: {exc}")
        if math.isfinite(outcome.err):
            self.errs.append(max(outcome.err, RESOLUTION))
        if math.isfinite(outcome.residual):
            self.residuals.append(max(outcome.residual, RESOLUTION))
        if not outcome.ok:
            if outcome.defect in KNOWN_DEFECTS:
                self.known_defects += 1
            else:
                self.failed += 1
            key = (req.kind, outcome.defect or "NEW")
            self.failures.setdefault(key, [0, outcome.note])[0] += 1


def setup(bench, setup_fn, seed, size):
    """Make the inputs and warm up; returns (requests, seconds)."""
    t0 = time.perf_counter()
    reqs = setup_fn(bench.work, random.Random(seed), size)
    res, _, _ = bench.subprocess_cli(["--version"])
    if res.rc != 0:
        raise RuntimeError(f"slicealg does not start: {res.stderr.strip()}")
    return reqs, time.perf_counter() - t0


def import_seconds(env, root):
    """Median fresh ``import slicealg.cli`` minus a bare interpreter."""
    def once(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       check=True, capture_output=True, timeout=60)
        return time.perf_counter() - t0
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(once("pass"))
        full.append(once("import slicealg.cli"))
    return statistics.median(full) - statistics.median(bare)


def end_to_end(bench, reqs, seconds, setup_times):
    """Rounds of subprocess requests, each followed by a calibration."""
    t_start = time.perf_counter()
    rounds = []
    while True:
        r = []
        for req in round_requests(reqs):
            wall = bench.run_request(req)
            bench.calibrate()
            r.append((req.kind, wall, bench.scaled(wall)))
        rounds.append(r)
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break                     # the next round would end past --seconds

    def summary(col):
        kinds = {}
        for r in rounds:
            for req in r:
                kinds.setdefault(req[0], []).append(req[col])
        run_s = statistics.median(sum(req[col] for req in r) for r in rounds)
        # every round holds one request of each kind; the geometric mean
        # over kinds of each kind's median weighs every kind alike, where
        # one median over all requests would jump between two kinds
        p50 = statistics.geometric_mean(
            statistics.median(v) for v in kinds.values())
        return kinds, run_s, p50

    walls, wall_run, wall_p50 = summary(1)
    kinds, run_s, p50 = summary(2)
    for kind, dts in kinds.items():
        print(f"  {kind:22s} p50 {statistics.median(dts):9.4f} s  (wall p50 "
              f"{statistics.median(walls[kind]):9.4f} s, max "
              f"{max(walls[kind]):9.4f} s; {len(dts)} requests)")
    print(f"  {len(rounds)} rounds of {len(kinds)} requests; wall run_s "
          f"{wall_run:.4f} s, wall request_p50_s {wall_p50:.4f} s")
    print(f"  calibration median {statistics.median(bench.calibrations):.4f} s "
          f"over {len(bench.calibrations)} runs")
    return {
        "run_s": (run_s, "s"),
        "request_p50_s": (p50, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (bench.peak_rss_kb / 1024.0, "MB"),
        "ok_ratio": ((bench.attempted - bench.failed - bench.known_defects)
                     / bench.attempted, "ratio"),
        "worst_rel_err": (max(bench.errs, default=RESOLUTION), "ratio"),
        "max_rel_residual": (max(bench.residuals, default=RESOLUTION), "ratio"),
    }


def traced(bench, reqs, seconds, root, trace_path, run_stamp):
    """Per-layer metrics from rounds of in-process requests, each request
    run untraced and then traced so that machine drift cancels in the
    tracing slowdown."""
    imp = import_seconds(bench.env, root)
    # every round of a traced run repeats the same inputs, so counts must
    # repeat exactly and traced and untraced runs do the same work
    reqs = round_requests(reqs)
    t_start = time.perf_counter()
    slowdowns, layers, all_spans = [], [], []
    while True:
        tracer = tracing.Tracer()
        plain_total = traced_total = 0.0
        for i, req in enumerate(reqs):
            plain_total += bench.run_request(req, inprocess=True)
            tracer.request = i
            tracing.install(tracer)
            try:
                traced_total += bench.run_request(req, True, tracer)
            finally:
                tracer.restore()
        slowdowns.append(traced_total / plain_total)
        layers.append(tracing.layer_metrics(tracer.spans, tracer.mul_calls))
        all_spans.append(tracer.spans)
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(layers) + 1) / len(layers) > seconds:
            break                     # the next round would end past --seconds
    counts_repeat = all(
        all(m[k] == layers[0][k] for k in tracing.COUNT_METRICS)
        for m in layers)
    if not counts_repeat:
        print("  count metrics differ between traced rounds")
    print(f"  {len(layers)} rounds, each request untraced then traced")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"stamp": run_stamp,
                   "fields": ["name", "site", "start", "end", "parent",
                              "request", "n"],
                   "rounds": all_spans}, fh)
    out = {}
    for key in layers[0]:
        if key in tracing.COUNT_METRICS:
            unit = "bytes" if "bytes" in key else "count"
            out[key] = (max(layers[0][key], tracing.COUNT_FLOOR), unit)
        else:
            value = statistics.median(m[key] for m in layers)
            out[key] = (max(value, tracing.TIME_FLOOR_S), "s")
    out["cli.import_s"] = (max(imp, tracing.TIME_FLOOR_S), "s")
    out["trace.slowdown"] = (statistics.median(slowdowns), "ratio")
    return out, counts_repeat


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    return ap.parse_args(argv)


def main(argv=None, corrupt=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    pkg = os.path.join(src, "slicealg")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        print(f"perfbench: no slicealg sources under {pkg}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in THREAD_VARS:       # the program may use at most nproc threads
        env.setdefault(var, str(nproc()))
    import slicealg
    if os.path.dirname(os.path.abspath(slicealg.__file__)) != pkg:
        print(f"perfbench: imported slicealg from {slicealg.__file__}, "
              f"not from {pkg}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    setup_fn = WORKLOADS[args.workload]
    size = SIZES[args.size]
    run_stamp = stamp(args, root, pkg, env)
    print("stamp " + json.dumps(run_stamp, sort_keys=True))

    base = os.path.join(HERE, ".work")
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    bench = Bench(root, env, work, corrupt)
    try:
        if args.trace:
            reqs, _ = setup(bench, setup_fn, args.seed, size)
            trace_path = os.path.join(
                base, f"trace-{args.workload}-seed{args.seed}.json")
            metrics, counts_repeat = traced(bench, reqs, args.seconds,
                                            root, trace_path, run_stamp)
            print(f"  spans written to {os.path.relpath(trace_path, root)}")
        else:
            bench.calibrate()
            setup_times = []
            for _ in range(SETUP_REPEATS):
                reqs, dt = setup(bench, setup_fn, args.seed, size)
                bench.calibrate()
                setup_times.append(bench.scaled(dt))
            metrics = end_to_end(bench, reqs, args.seconds, setup_times)
            counts_repeat = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for (kind, defect), (n, note) in sorted(bench.failures.items()):
        label = "KNOWN DEFECT" if defect in KNOWN_DEFECTS else "FAILED"
        print(f"  {label} {kind} x{n} [{defect}]: {note}")
    print(f"  {bench.attempted} requests: {bench.failed} failed, "
          f"{bench.known_defects} showed a known defect")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    correct = bench.failed == 0 and counts_repeat
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

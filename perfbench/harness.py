"""Child process of perfbench/run.py: set up one workload and measure it.

It prints "ready" once set-up (imports and input generation) is done, then,
unless --setup-only, one JSON line with the run's counts, check violations
and metrics.  Anything else written to stdout goes to stderr instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy
import scipy

import checks
import spans
from workloads import WORKLOADS, Outcome


def measured_run(wl, seconds):
    """Rounds until the next one would pass `seconds` of timed work."""
    total, times, blobs = Outcome(), [], []
    while True:
        i = len(times)
        t0 = time.perf_counter()
        raw = wl.run(i)
        times.append(time.perf_counter() - t0)
        out = wl.check(raw)
        if i >= wl.period and out.failed == 0 and blobs[i - wl.period] is not None:
            out.violations += checks.same_bytes(blobs[i - wl.period], out.blob, f"round {i}")
        blobs.append(out.blob if out.failed == 0 else None)
        total.add(out)
        if sum(times) + times[-1] > seconds:
            break
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "round_s": (statistics.median(times), "s"),
        # the process plus its largest child (a pool worker or the CLI)
        "peak_rss_mb": ((self_kb + child_kb) / 1024.0, "MB"),
    }
    return total, metrics, {"rounds_s": times}


def _cold_s(code, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_probes(reps=3, calls=20):
    """Cold interpreter floor, cold CLI import and an in-process price."""
    from mgpert import cli  # here, so that set-up does not pay for it

    args = ["price", "--variance", "0.09"]
    times = []
    for _ in range(calls):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            cli.main(args)
            times.append(time.perf_counter() - t0)
    return {
        "cli.python_numpy_s": _cold_s("import numpy", reps),
        "cli.import_s": _cold_s("import mgpert.cli", reps),
        "cli.main_price_ms": 1e3 * statistics.median(times),
    }


def traced_run(wl, spans_path):
    """Untraced, traced and again untraced rounds on the same inputs, in one
    process.  All must give the same output bytes; the tracing overhead is
    the traced wall time minus that of the second, equally warm, untraced
    round.
    """
    total = Outcome()
    base = wl.check(wl.run(0, single_process=True))
    total.add(base)

    rec = spans.Recorder()
    with rec.installed():
        t0 = time.perf_counter()
        raw = wl.run(0, single_process=True)
        traced_s = time.perf_counter() - t0
    traced = wl.check(raw)
    traced.violations += checks.same_bytes(base.blob, traced.blob, "traced round")
    total.add(traced)

    t0 = time.perf_counter()
    raw = wl.run(0, single_process=True)
    plain_s = time.perf_counter() - t0
    plain = wl.check(raw)
    plain.violations += checks.same_bytes(base.blob, plain.blob, "repeated round")
    total.add(plain)
    if getattr(wl, "WORKERS", 1) > 1:
        # the pooled run must match the single-process runs above
        total.add(wl.check(wl.run(1)))

    rec.write(spans_path)
    values = spans.layer_metrics(rec)
    values.update(cli_probes())
    values["trace.overhead_s"] = traced_s - plain_s
    metrics = {name: (values[name], unit) for name, unit in spans.LAYER_UNITS.items()}
    return total, metrics, {"plain_s": plain_s, "traced_s": traced_s, "spans": len(rec.spans)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    proto, sys.stdout = sys.stdout, sys.stderr
    wl = WORKLOADS[args.workload](args.seed, args.work_dir)
    proto.write("ready\n")
    proto.flush()
    if args.setup_only:
        return 0

    if args.trace:
        spans_path = os.path.join(args.work_dir, "spans.csv.gz")
        total, metrics, detail = traced_run(wl, spans_path)
    else:
        total, metrics, detail = measured_run(wl, args.seconds)
    detail["versions"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    proto.write(json.dumps({
        "attempted": total.attempted,
        "failed": total.failed,
        "violations": total.violations,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

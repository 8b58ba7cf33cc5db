"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root:

    python3 perfbench/run.py --workload static-smile --seed 1 --seconds 20 --trace 0

With --trace 0 the line holds the end-to-end metrics (setup_s, peak_rss_mb,
round_s); with --trace 1 it holds the per-layer metrics of a traced run.
The workload runs in a child process (perfbench/harness.py) with the
checkout's src/ on PYTHONPATH.  A copy of the line, with the seed, nproc,
versions, git sha and per-round times, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("static-smile", "timeseries-panel", "calibrate-fit", "single-contract")
#: set-ups timed per run: SETUP_SAMPLES - 1 set-up-only children plus the
#: child that goes on to measure
SETUP_SAMPLES = 5
#: a run must end within 180 s; the children get this much in total
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def run_child(cmd, env, deadline):
    """Start cmd; return (seconds until it printed "ready", rest of stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else ""
        ready_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise ChildFailed("the workload did not finish set-up")
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"the workload ran past {DEADLINE_S:g} s") from None
    finally:
        if proc.poll() is None:
            # the child's session holds its pool workers and CLI runs too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise ChildFailed(f"the workload exited with {proc.returncode}")
    return ready_s, rest


def git_sha(root):
    try:
        got = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = got.stdout.split()
    if got.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], root):
        return lines[1]
    return "unknown"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mgpert", "__init__.py")):
        print(f"perfbench: {src}/mgpert not found; run from the repository root",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(root, ".perfbench_out", tag)
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, os.path.join(HERE, "harness.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]

    try:
        setup = [run_child(cmd + ["--setup-only"], env, deadline)[0]
                 for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        ready_s, rest = run_child(cmd, env, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup.append(ready_s)
    child = json.loads(rest.strip().splitlines()[-1])

    metrics = dict(child["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    correct = not child["violations"]
    line = {"correct": correct, "attempted": child["attempted"], "failed": child["failed"],
            "metrics": metrics}
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, nproc=len(os.sched_getaffinity(0)), git_sha=git_sha(root),
                  setup_samples_s=setup, violations=child["violations"], **child["detail"])
    with open(os.path.join(root, ".perfbench_out", f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for v in child["violations"]:
        print(f"perfbench: check failed: {v}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

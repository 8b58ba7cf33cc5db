"""Collate perfbench result files of a parent and a change into one BENCH file.

    python3 tools/bench_collate.py --pr N --parent PARENT_DIR --change CHANGE_DIR > BENCH_N.json

Each directory holds the result-<workload>-seed<n>-trace0.json files that
perfbench/run.py wrote for one side (its .perfbench_out/).  For every
workload and end-to-end metric the output gives each side's median and
quartiles over its seeds, and over the seeds both sides ran, the pairs in
which the change read better (lower; ties count for neither).  Runs whose
checks failed are listed and left out of the figures; a workload with no
run left on a side, or no pair of good runs, gets no figures there.
Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

METRICS = ("round_s", "setup_s", "peak_rss_mb")


def load(directory):
    """workload -> seed -> result record, for the trace-0 runs in directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def spread(values):
    # one run is its own median and quartiles
    q1, q2, q3 = statistics.quantiles(values * (2 if len(values) == 1 else 1), n=4,
                                      method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def side(runs):
    records = [r for by_seed in runs.values() for r in by_seed.values()]
    out = {
        "git_sha": sorted({r["git_sha"] for r in records}),
        "nproc": sorted({r["nproc"] for r in records}),
        "versions": sorted({json.dumps(r["versions"], sort_keys=True) for r in records}),
        "failed_checks": sorted(f"{r['workload']} seed {r['seed']}" for r in records
                                if not r["correct"] or r["failed"]),
        "workloads": {},
    }
    out["versions"] = [json.loads(v) for v in out["versions"]]
    for workload, by_seed in sorted(runs.items()):
        good = {s: r for s, r in by_seed.items() if r["correct"] and not r["failed"]}
        if not good:
            continue
        out["workloads"][workload] = dict(
            seeds=sorted(good), seconds=sorted({r["seconds"] for r in good.values()}),
            **{m: spread([r["metrics"][m]["value"] for r in good.values()]) for m in METRICS},
        )
    return out


def pairs(parent, change):
    out = {}
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(s for s in set(parent[workload]) & set(change[workload])
                       if all(r["correct"] and not r["failed"]
                              for r in (parent[workload][s], change[workload][s])))
        if not seeds:
            continue
        row = {"seeds": seeds}
        for m in METRICS:
            p = [parent[workload][s]["metrics"][m]["value"] for s in seeds]
            c = [change[workload][s]["metrics"][m]["value"] for s in seeds]
            row[m] = {
                "change_better": sum(b < a for a, b in zip(p, c)),
                "parent_better": sum(a < b for a, b in zip(p, c)),
                "delta_median": statistics.median(c) / statistics.median(p) - 1.0,
            }
        out[workload] = row
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", required=True, help="directory of the parent's result files")
    ap.add_argument("--change", required=True, help="directory of the change's result files")
    args = ap.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    json.dump({"pr": args.pr, "parent": side(parent), "change": side(change),
               "pairs": pairs(parent, change)}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run cnvbench in sets of seeded runs and report each metric's spread.

Each set runs the command in BENCHMARK.json once per workload per seed
(``--runs`` seeds, starting at ``--first-seed``), interleaving workloads
round-robin, and keeps the end-to-end metrics of every run. For every
(workload, metric) it reports the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median``; with ``--sets 2`` it also reports how far the
second set's median moved from the first's, in the metric's bad direction.

Run from the repository root:

    python3 cnvbench/sets.py --runs 10 --sets 2 --out cnvbench/baseline.json

``--checkout DIR`` runs the command in another checkout instead (a second
commit's tree, for comparisons; see README.md). ``--recheck REPORT``
re-evaluates a recorded report against the bounds now in BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(root, command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t = time.monotonic()
    proc = subprocess.run(args, cwd=root, capture_output=True, text=True)
    wall = time.monotonic() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def host():
    """The measuring machine, as far as this process can see it."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def summarize(values):
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def run_set(root, bench, args, first_seed):
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            r = run_once(root, bench["command"], w, first_seed + i,
                         bench["run_seconds"])
            if not r["correct"] or r["failed"]:
                raise SystemExit(f"{w} seed {first_seed + i}: oracle failures")
            runs[w].append(r)
            print(f"  {w} seed {first_seed + i}: {r['wall_s']:.1f} s", flush=True)
    out = {}
    for w in names:
        out[w] = {}
        for m in runs[w][0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in runs[w]]
            out[w][m] = summarize(vals)
            out[w][m]["unit"] = runs[w][0]["metrics"][m]["unit"]
        out[w]["run_wall_s"] = summarize([r["wall_s"] for r in runs[w]])
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--checkout", default=".")
    p.add_argument("--out")
    p.add_argument("--recheck", metavar="REPORT",
                   help="re-evaluate a recorded report against the current bounds")
    args = p.parse_args()
    root = Path(args.checkout)
    bench = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    if args.recheck:
        report = json.loads(Path(args.recheck).read_text())
        sets = report["sets"]
    else:
        sets = []
        for s in range(args.sets):
            print(f"set {s + 1} of {args.sets}", flush=True)
            sets.append(run_set(root, bench, args, args.first_seed))
        report = {"host": host(), "runs": args.runs, "first_seed": args.first_seed,
                  "run_seconds": bench["run_seconds"], "sets": sets}
    report["checks"] = []
    ok = True
    for w in sets[0]:
        for m, spec in metrics.items():
            if m not in sets[0][w]:
                continue
            bound = spec.get("bound", 0.0)
            row = {"workload": w, "metric": m, "bound": bound,
                   "spreads": [st[w][m]["spread"] for st in sets]}
            # setup_s is held to its bound by the drift check only.
            if m != "setup_s":
                row["spread_within_bound"] = all(x <= bound for x in row["spreads"])
                row["spread_within_third"] = all(x <= bound / 3 for x in row["spreads"])
            if len(sets) > 1:
                a, b = sets[0][w][m]["median"], sets[1][w][m]["median"]
                worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
                row["second_set_worse_by"] = worse
                row["drift_within_bound"] = worse <= bound
            ok &= row.get("spread_within_bound", True) and row.get("drift_within_bound", True)
            report["checks"].append(row)
            drift = row.get("second_set_worse_by")
            third = {True: "", False: "  above a third of the bound"}
            print(f"{w:<14} {m:<12} spreads "
                  + " ".join(f"{x:.4f}" for x in row["spreads"])
                  + f"  bound {bound}"
                  + ("" if drift is None else f"  drift {drift:+.4f}")
                  + third[row.get("spread_within_third", True)])
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print("every spread and drift within its bound" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

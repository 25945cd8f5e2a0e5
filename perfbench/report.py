"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/report.py                      # all workloads, 10 seeds
    python3 perfbench/report.py --runs 2 --traced 0  # quick look
    python3 perfbench/report.py --out perfbench/baseline.json

For each workload, ``--runs`` untraced runs (seeds 0, 1, ...) give the
end-to-end metrics: median, quartiles, spread (quartile distance over the
median) and sample count, plus ``error_rate`` = failed / attempted commands.
Then ``--traced`` traced runs at the default seed give the per-layer metrics,
including the tracing overhead (traced minus untraced pass).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def one_run(workload, seed, trace, seconds):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median, "q1": q1, "q3": q3, "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description="summarize benchmark runs")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--traced", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {
        "python": platform.python_version(),
        "machine": "%s, %d CPUs" % (platform.machine(), os.cpu_count() or 0),
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            runs.append(one_run(workload, args.first_seed + i, 0, args.seconds))
            print("  %s seed %d: %s" % (
                workload, args.first_seed + i,
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in runs[-1]["metrics"].items()),
            ), file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"end_to_end": {}, "per_layer": {}}
        if runs:
            entry["error_rate"] = {"value": failed / attempted, "unit": "ratio",
                                   "failed": failed, "attempted": attempted}
        print("%s  (%d runs, seeds %d..%d)" % (
            workload, len(runs), args.first_seed, args.first_seed + len(runs) - 1))
        for name in bounds if runs else ():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            print("  %-12s median %10.4f %-5s q1 %10.4f  q3 %10.4f  spread %5.1f%%"
                  "  (bound %.0f%%, n=%d)" % (
                      name, s["median"], s["unit"], s["q1"], s["q3"],
                      100 * s["spread"], 100 * bounds[name], s["n"]))
        if runs:
            print("  %-12s value  %10.4f %-5s (%d of %d commands failed)" % (
                "error_rate", failed / attempted, "ratio", failed, attempted))
        traced = [one_run(workload, workloads.DEFAULT_SEED, 1, args.seconds)
                  for _ in range(args.traced)]
        for name in traced[0]["metrics"] if traced else ():
            values = [t["metrics"][name]["value"] for t in traced]
            entry["per_layer"][name] = {
                "value": statistics.median(values),
                "unit": traced[0]["metrics"][name]["unit"],
                "n": len(values),
            }
            if statistics.median(values):
                print("    %-32s %12.6g %s" % (
                    name, statistics.median(values), traced[0]["metrics"][name]["unit"]))
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()

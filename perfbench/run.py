"""magtop benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
Each run times set-up in fresh interpreters (median of several), then starts
one fresh worker process that runs the workload's command list for S
seconds: a warm-up pass, then timed passes (worker.py).  This process checks
every output (checks.py) and prints one JSON line as the last line of
stdout: ``correct``, ``attempted`` and ``failed`` count command executions
over all passes, and ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer ones (``--trace 1``).  Without the
program's sources, or when a traced entry point is gone or never called, it
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(HERE, "_work")
TRACES = os.path.join(HERE, "_trace")
CHILD_TIMEOUT = 170


def _worker(*args):
    return [sys.executable, WORKER] + [str(a) for a in args]


def setup_seconds(name, seed, workdir):
    """Median wall time of fresh interpreters that import magtop and write
    the workload's documents, each started on the least contended CPU."""
    samples = []
    try:
        for _ in range(SETUP_SAMPLES):
            hostspeed.pin_fastest_cpu()
            start = time.perf_counter()
            proc = subprocess.run(
                _worker("--workload", name, "--seed", seed, "--workdir", workdir,
                        "--setup-only"),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT,
            )
            samples.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(proc.stderr.strip() or "set-up failed")
    finally:
        hostspeed.unpin()  # the worker chooses its CPUs itself
    return statistics.median(samples)


def count_failures(workload, seed, result):
    """(attempted, failed, first problems) over every pass of the run."""
    goldens = checks.load_goldens().get(workload.name, [])
    first = result["outputs"]
    ok = []
    problems = []
    for i, out in enumerate(first):
        golden = goldens[i] if i < len(goldens) else None
        found = checks.check_command(
            workload, i, seed, workloads.DEFAULT_SEED, golden,
            out["rc"], out["stdout"], out["stderr"],
        )
        ok.append(not found)
        problems += ["%s: %s" % (checks.argv_text(workload.commands[i].argv), p)
                     for p in found]
    reference = result["digests"][0]
    attempted = failed = 0
    for digest in result["digests"]:
        for i, entry in enumerate(digest):
            attempted += 1
            if not ok[i] or entry != reference[i]:
                failed += 1
    if any(d != reference for d in result["digests"]):
        problems.append("a later pass printed different output than the first")
    return attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="magtop benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills and waits for its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "magtop", "cli.py")):
        print("error: no magtop sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    workdir = os.path.join(WORK, tag)
    out_path = os.path.join(WORK, tag + ".json")
    try:
        setup_s = setup_seconds(args.workload, args.seed, workdir)
        proc = subprocess.run(
            _worker("--workload", args.workload, "--seed", args.seed,
                    "--workdir", workdir, "--seconds", args.seconds,
                    "--trace", args.trace, "--out", out_path,
                    "--spans", os.path.join(TRACES, "%s-%d.json" % (args.workload, args.seed))),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.strip() or "worker failed")
        with open(out_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(out_path):
            os.remove(out_path)

    workload = workloads.build(args.workload, args.seed, ROOT)
    attempted, failed, problems = count_failures(workload, args.seed, result)
    for line in problems[:20]:
        print("check failed: %s" % line, file=sys.stderr)
    if args.trace:
        if result["missing"]:
            print("error: traced entry points never called: %s"
                  % ", ".join(result["missing"]), file=sys.stderr)
            return 2
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") else
                   "ratio" if name.endswith("_ratio") else "count"}
            for name, value in sorted(result["per_layer"].items())
        }
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

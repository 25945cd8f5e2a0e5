"""The measured process: set up one workload, run timed passes, write JSON.

Started fresh by run.py for every run, so its peak resident set covers this
workload only.  Set-up is interpreter start, ``import magtop`` and writing
the input documents (including the Hasse graph the program derives); with
``--setup-only`` the process stops there, which is what run.py times.

A pass runs the workload's commands one after another through
``magtop.cli.main(argv)`` in this process, with stdout and stderr captured,
each on the CPU that is least contended when it starts (hostspeed.py).
The first pass is a warm-up; timed passes follow while another one still
fits in ``--seconds``, counted from the warm-up's start.  With ``--trace 1``
untraced and traced passes alternate, and the traced ones also yield
per-layer metrics.  Correctness is judged by run.py from the outputs
written here; every pass's outputs are hashed so a pass that differs from
the first is caught.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import hostspeed  # noqa: E402  (sibling modules of this script)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# timed rounds that run even past --seconds; a traced round is two passes
MIN_ROUNDS = {0: 3, 1: 1}


class SourceMissing(RuntimeError):
    pass


def import_program():
    """The magtop.cli module from this checkout's src/, never an installed
    copy.  Callers look up ``main`` on it per call, so tracing sees it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "magtop", "cli.py")):
        raise SourceMissing("no magtop sources under %s" % src)
    sys.path.insert(0, src)
    import magtop.cli

    if not os.path.abspath(magtop.cli.__file__).startswith(src + os.sep):
        raise SourceMissing("magtop was imported from %s" % magtop.cli.__file__)
    return magtop.cli


def run_command(cli, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call.

    SystemExit and crashes become exit codes "exit:<code>" and "crash", which
    never match a golden, so they count as failures without ending the run.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = "exit:%s" % (exc.code,)
    except Exception:  # a crash is a failed command, not a failed run
        rc = "crash"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


def set_up(name, seed, workdir):
    cli = import_program()
    workload = workloads.build(name, seed, ROOT)
    workloads.write_docs(workload, workdir)
    for doc_name, argv in workload.derived.items():
        rc, out, err, _ = run_command(cli, workloads.resolve(argv, workdir))
        if rc != 0:
            raise RuntimeError("deriving %s failed: %s" % (doc_name, err.strip()))
        with open(os.path.join(workdir, doc_name), "w", encoding="utf-8") as fh:
            fh.write(out)
    commands = [workloads.resolve(c.argv, workdir) for c in workload.commands]
    return cli, commands


def run_pass(cli, commands):
    """Each command's wall seconds and (rc, stdout, stderr), for one pass.
    Before each command the process moves to the least contended CPU."""
    gc.collect()
    times = []
    outputs = []
    for argv in commands:
        hostspeed.pin_fastest_cpu()
        rc, out, err, seconds = run_command(cli, argv)
        times.append(seconds)
        outputs.append((rc, out, err))
    return times, outputs


def pass_seconds(passes):
    """One pass's wall time: the sum over commands of each command's fastest
    time over the passes.  The host's contention only ever adds time, so the
    fastest of several samples repeats from run to run better than their
    median does."""
    return sum(min(column) for column in zip(*passes))


def _digest(outputs):
    return [[rc, hashlib.sha256(out.encode("utf-8")).hexdigest(), bool(err)]
            for rc, out, err in outputs]


def write_spans(tracer, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"fields": ["name", "start", "end", "parent", "command"],
             "spans": tracer.spans},
            fh,
        )


def measure(name, seed, seconds, trace, workdir, span_path=None):
    """Everything run.py needs from one run, as a JSON-ready dict."""
    cli, commands = set_up(name, seed, workdir)
    deadline = time.perf_counter() + seconds
    _, first = run_pass(cli, commands)
    digests = [_digest(first)]
    untraced, traced, layers = [], [], []
    last_tracer = None
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        times, outputs = run_pass(cli, commands)
        untraced.append(times)
        digests.append(_digest(outputs))
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                times, outputs = run_pass(cli, commands)
            finally:
                tracer.uninstall()
            traced.append(times)
            digests.append(_digest(outputs))
            layers.append(tracer.metrics())
            last_tracer = tracer
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        # stop before a round that could end past the deadline
        if len(untraced) >= MIN_ROUNDS[trace] and now + longest > deadline:
            break
    result = {
        "wall_s": pass_seconds(untraced),
        "outputs": [{"rc": rc, "stdout": out, "stderr": err} for rc, out, err in first],
        "digests": digests,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        result["missing"] = last_tracer.missing(name)
        per_layer = {
            key: statistics.median(m[key] for m in layers) for key in layers[0]
        }
        per_layer["trace.wall_s"] = pass_seconds(traced)
        per_layer["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(untraced)
        result["per_layer"] = per_layer
        if span_path:
            write_spans(last_tracer, span_path)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, args.workdir)
            return 0
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         args.workdir, args.spans)
    except (SourceMissing, LookupError, RuntimeError) as exc:
        print(exc, file=sys.stderr)  # run.py adds the "error:" prefix
        return 2
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

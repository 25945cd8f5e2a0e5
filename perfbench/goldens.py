"""Record goldens.json: each command's exit code and stdout hash.

    python3 perfbench/goldens.py

Records at the default seed from the checkout's program.  It refuses to
write if any invariant check fails, or if a command marked seed-free (or a
canonical table) prints differently at a second seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def record(name, seed, workdir):
    cli, commands = worker.set_up(name, seed, workdir)
    workload = workloads.build(name, seed, worker.ROOT)
    entries = []
    for command, argv in zip(workload.commands, commands):
        rc, out, err, _ = worker.run_command(cli, argv)
        entry = checks.golden_entry(command, rc, out, workload.canon)
        problems = checks.check_command(
            workload, len(entries), seed, seed, entry, rc, out, err
        )
        if problems:
            raise SystemExit("%s: %s" % (entry["argv"], "; ".join(problems)))
        entries.append(entry)
    return workload, entries


def main():
    workdir = os.path.join(HERE, "_work", "goldens")
    goldens = {}
    try:
        for name in sorted(workloads.BUILDERS):
            workload, entries = record(name, workloads.DEFAULT_SEED, workdir)
            _, other = record(name, workloads.DEFAULT_SEED + 1, workdir)
            for command, a, b in zip(workload.commands, entries, other):
                if command.seed_free and a["sha256"] != b["sha256"]:
                    raise SystemExit("%s is not seed-free" % a["argv"])
                if a.get("canonical_sha256") != b.get("canonical_sha256"):
                    raise SystemExit("%s: canonical table depends on the seed" % a["argv"])
            goldens[name] = entries
            print("%s: %d commands" % (name, len(entries)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Exact per-layer counts at the default seed, as recorded for the baseline.

    python3 -m pytest -q perfbench/test_counts.py

Counts repeat exactly from pass to pass, so they can back a later claim that
a change removed work.  A change that legitimately alters one of them
updates the expected value here together with baseline.json.
"""

from __future__ import annotations

import importlib
import os
import shutil

import pytest

import tracer as tracing
import worker
import workloads

WORK = os.path.join(worker.HERE, "_work", "test-counts")
COUNTS = ("_calls", "_ratio", ".sequences", ".chains", ".spaces", "_cells",
          "_nonzeros", "_factors", ".generators", "_pairs", ".spans")


def traced_passes(name, passes, prefix):
    """Per-layer metrics of traced passes over the workload's commands whose
    argv starts with ``prefix``."""
    cli, argvs = worker.set_up(name, workloads.DEFAULT_SEED, WORK)
    workload = workloads.build(name, workloads.DEFAULT_SEED, worker.ROOT)
    commands = [argv for command, argv in zip(workload.commands, argvs)
                if command.argv[:len(prefix)] == prefix]
    assert commands
    try:
        out = []
        for _ in range(passes):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _, outputs = worker.run_pass(cli, commands)
            finally:
                tracer.uninstall()
            assert all(rc == 0 for rc, _, _ in outputs)
            out.append(tracer.metrics())
        return out
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


@pytest.fixture(scope="module")
def sycamore():
    return traced_passes("verify-mix", 2, ("verify", "sycamore"))


def test_sycamore_enumeration_counts(sycamore):
    m = sycamore[0]
    assert m["causal.enum_calls"] == 4000
    assert m["causal.enum_distinct_ratio"] == 0.25
    assert m["morse.matching_calls"] == 20


def test_counts_repeat_between_passes(sycamore):
    first, second = sycamore
    counts = [k for k in first if k.endswith(COUNTS)]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_magnitude_inverts_twice_per_command():
    (m,) = traced_passes("verify-mix", 1, ("magnitude",))
    assert m["series.inverse_calls"] == 2
    assert m["series.inverse_distinct_ratio"] == 0.5


def test_tracer_restores_every_binding():
    worker.import_program()
    import magtop

    # "import magtop.homology as m" would bind the re-exported function
    homology_module = importlib.import_module("magtop.homology")

    before = (magtop.homology, homology_module.smith_normal_form,
              homology_module.ChainComplex.validate)
    tracer = tracing.Tracer()
    tracer.install()
    assert homology_module.smith_normal_form is not before[1]
    tracer.uninstall()
    after = (magtop.homology, homology_module.smith_normal_form,
             homology_module.ChainComplex.validate)
    assert before == after

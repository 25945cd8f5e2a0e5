"""Command-line front end.

Subcommands parse space documents and run the exact computations.  Each
returns (exit code, JSON document, table lines) and prints nothing;
main prints the one form --format asks for once the command has
returned, so a run that fails prints no partial result.  Exit codes are
part of the contract: 0 pass, 1 check mismatch, 2 parse problem,
3 metric-axiom violation, 4 unresolvable label, 5 hypothesis unmet,
70 internal fault (a check on the program's own work failed, so no
verdict is printed), 141 output closed early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

from .causal import (
    InvalidLength,
    _stamps,
    achievable_lengths,
    pair_achievable_lengths,
    seq_time_stamps,
)
from .docs import (
    DocumentError,
    facets_from_doc,
    format_rational,
    gluing_from_doc,
    load_doc,
    load_fixture,
    parse_rational,
    space_from_doc,
    twist_from_doc,
)
from .frames import (
    EmptyComplex,
    FourCutObstruction,
    framed_betti_prediction,
    hasse_graph,
    singular_sequences,
    thin_frames,
)
from .homology import (
    HomologySummary,
    homology,
    magnitude_chain_complex,
    verify_chain_iso,
    verify_kunneth,
    verify_suspension_shift,
)
from .metric import LabelError, MetricError, random_metric_space
from .morse import NotASycamoreTwist, critical_cells, verify_sycamore
from .mv import NotGated, verify_mv, verify_union
from .series import euler_check, format_series, magnitude, weighting

CHECKS = (
    "chain-iso",
    "suspension",
    "kunneth",
    "euler",
    "union",
    "mv",
    "sycamore",
    "frames",
)

PASS_CODE = 0
MISMATCH_CODE = 1
PARSE_CODE = 2
METRIC_CODE = 3
LABEL_CODE = 4
REFUSED_CODE = 5
FAULT_CODE = 70  # EX_SOFTWARE in sysexits.h
PIPE_CODE = 141  # what a shell reports for a process ended by SIGPIPE


def _load_document(ref):
    """JSON document from a file path or a fixture:<name> reference."""
    if ref.startswith("fixture:"):
        name = ref.split(":", 1)[1]
        try:
            return load_fixture(name)
        except (OSError, json.JSONDecodeError) as exc:
            raise DocumentError("unknown fixture %r" % (name,)) from exc
    return load_doc(ref)


def _load_space(ref, seed):
    """Metric space from a path, fixture:<name>, or random:<n>."""
    if ref.startswith("random:"):
        tail = ref.split(":", 1)[1]
        if not tail.isdigit() or int(tail) == 0:
            raise DocumentError(
                "random space wants a positive point count: %r" % (ref,)
            )
        return random_metric_space(int(tail), seed)
    return space_from_doc(_load_document(ref))


def _length_arg(text):
    value = parse_rational(text)
    if value < 0:
        raise DocumentError("lengths must be nonnegative: %s" % (text,))
    return value


def _torsion_text(factors):
    return ",".join(str(f) for f in factors) if factors else "-"


def _stamped_text(space, stamped):
    return " ".join(
        "%s:%s" % (space.labels[p], format_rational(t)) for t, p in stamped
    )


def _selected_pairs(space, from_label, to_label):
    sources = range(space.n) if from_label is None else [space.index(from_label)]
    targets = range(space.n) if to_label is None else [space.index(to_label)]
    return [(a, b) for a in sources for b in targets]


def _verdict(args, ok, fields, header, lines=(), detail=""):
    """Result of a verify check.

    The document is one object: check, ok and the check's own fields.  The
    table is the header, the body lines and a PASS or FAIL line ending in
    detail.
    """
    verdict = "PASS" if ok else "FAIL"
    table = [header, *lines, verdict + ": " + detail if detail else verdict]
    code = PASS_CODE if ok else MISMATCH_CODE
    return code, dict(fields, check=args.check, ok=ok), table


def _rows_verdict(args, report, header, degree, left, right):
    """Verdict of a report whose rows compare two counts per length and
    degree: degree labels the table column, left and right the JSON keys."""
    rows = [
        {"l": format_rational(l), "k": k, left: cl, right: cr, "ok": same}
        for l, k, cl, cr, same in report.rows
    ]
    lines = [
        "l=%s %s=%d: %d vs %d %s"
        % (format_rational(l), degree, k, cl, cr, "ok" if same else "MISMATCH")
        for l, k, cl, cr, same in report.rows
    ]
    fields = {"rows": rows, "detail": report.detail}
    return _verdict(args, report.ok, fields, header, lines, report.detail)


def _run_tasks(worker, tasks, jobs):
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, tasks))
    return [worker(task) for task in tasks]


def _pair_homology(task):
    space, a, b, l = task
    return a, b, homology(magnitude_chain_complex(space, a, b, l))


def _pair_check(task):
    kind, space, a, b, l = task
    if kind == "chain-iso":
        rep = verify_chain_iso(space, a, b, l)
        return a, b, l, rep.ok, rep.detail
    if kind == "suspension":
        rep = verify_suspension_shift(space, a, b, l)
        return a, b, l, rep.ok, rep.detail
    prediction = framed_betti_prediction(space, a, b, l)
    got = homology(magnitude_chain_complex(space, a, b, l)).betti_map()
    ok = prediction == got
    detail = "" if ok else "predicted %s, homology gives %s" % (prediction, got)
    return a, b, l, ok, detail


def cmd_magnitude(args):
    space = _load_space(args.input, args.seed)
    lmax = _length_arg(args.lmax)
    series = format_series(magnitude(space, lmax))
    weights = [format_series(w) for w in weighting(space, lmax)]
    doc = {
        "lmax": format_rational(lmax),
        "magnitude": series,
        "weighting": dict(zip(space.labels, weights)),
    }
    lines = ["Mag = %s" % series]
    lines += ["w(%s) = %s" % pair for pair in zip(space.labels, weights)]
    return PASS_CODE, doc, lines


def cmd_homology(args):
    space = _load_space(args.input, args.seed)
    l = _length_arg(args.l)
    pairs = _selected_pairs(space, args.from_label, args.to_label)
    reachable = set()
    for a, b in pairs:
        reachable.update(pair_achievable_lengths(space, a, b, l))
    if l not in reachable:
        doc = {"l": format_rational(l), "rows": [], "total": []}
        line = (
            "# no rows: length %s is not achievable for the selected pairs"
            " (try: magtop lengths)" % format_rational(l)
        )
        return PASS_CODE, doc, [line]
    tasks = [(space, a, b, l) for a, b in pairs]
    results = _run_tasks(_pair_homology, tasks, args.jobs)
    results.sort(key=lambda r: (r[0], r[1]))
    rows = [
        (space.labels[a], space.labels[b], k, s.betti_at(k), s.torsion_at(k))
        for a, b, s in results
        for k in sorted(set(s.betti_map()) | set(s.torsion_map()))
    ]
    total = HomologySummary()
    for _, _, summary in results:
        total = total.plus(summary)
    total_rows = [
        (k, total.betti_at(k), total.torsion_at(k))
        for k in sorted(set(total.betti_map()) | set(total.torsion_map()))
    ]
    doc = {
        "l": format_rational(l),
        "rows": [
            {
                "from": a,
                "to": b,
                "k": k,
                "betti": r,
                "torsion": [str(f) for f in f_list],
            }
            for a, b, k, r, f_list in rows
        ],
        "total": [
            {"k": k, "betti": r, "torsion": [str(f) for f in f_list]}
            for k, r, f_list in total_rows
        ],
    }
    lines = ["# homology at length %s" % format_rational(l)]
    if not rows:
        lines.append("# all groups vanish for the selected pairs")
        return PASS_CODE, doc, lines
    lines.append("# from to k betti torsion")
    for a, b, k, r, f_list in rows:
        lines.append("%s %s %d %d %s" % (a, b, k, r, _torsion_text(f_list)))
    for k, r, f_list in total_rows:
        lines.append("* * %d %d %s" % (k, r, _torsion_text(f_list)))
    return PASS_CODE, doc, lines


def cmd_lengths(args):
    space = _load_space(args.input, args.seed)
    lmax = _length_arg(args.lmax)
    values = [format_rational(v) for v in achievable_lengths(space, lmax)]
    return PASS_CODE, {"lengths": values}, values


def cmd_critical_cells(args):
    gspec = gluing_from_doc(_load_document(args.input))
    l = _length_arg(args.l)
    space = gspec.space
    found = sorted(critical_cells(gspec, l), key=lambda s: _stamps(space, s))
    cells = [seq_time_stamps(space, s) for s in found]
    by_dim = {}
    for stamped in cells:
        by_dim.setdefault(len(stamped) - 1, []).append(
            _stamped_text(space, stamped)
        )
    by_dim = dict(sorted(by_dim.items()))
    doc = {
        "l": format_rational(l),
        "total": len(cells),
        "cells": {str(k): texts for k, texts in by_dim.items()},
    }
    lines = [
        "# critical cells at length %s: %d" % (format_rational(l), len(cells))
    ]
    for k, texts in by_dim.items():
        lines.append("dim %d: %d" % (k, len(texts)))
        lines += ["  " + text for text in texts]
    return PASS_CODE, doc, lines


def cmd_frames(args):
    space = _load_space(args.input, args.seed)
    l = _length_arg(args.l)
    if (args.from_label is None) != (args.to_label is None):
        raise DocumentError("give both --from and --to, or neither")
    if args.from_label is not None:
        a = space.index(args.from_label)
        b = space.index(args.to_label)
        found = sorted(singular_sequences(space, a, b, l))
        frames = [[space.labels[p] for p in pts] for pts in found]
        prediction = framed_betti_prediction(space, a, b, l)
        doc = {
            "l": format_rational(l),
            "frames": frames,
            "prediction": {str(k): r for k, r in prediction.items()},
        }
        lines = [
            "# %d frames from %s to %s at length %s"
            % (len(found), args.from_label, args.to_label, format_rational(l))
        ]
        lines += [" ".join(labels) for labels in frames]
        lines.append("# predicted betti")
        lines += ["k=%d: %d" % kr for kr in prediction.items()] or ["none"]
        return PASS_CODE, doc, lines
    found = sorted(thin_frames(space, l))
    thin = [[space.labels[p] for p in pts] for pts in found]
    by_degree = sorted(Counter(len(pts) - 1 for pts in found).items())
    doc = {
        "l": format_rational(l),
        "thin": thin,
        "degrees": {str(k): c for k, c in by_degree},
    }
    lines = ["# %d thin frames at length %s" % (len(found), format_rational(l))]
    lines += ["degree %d: %d" % kc for kc in by_degree]
    lines += [" ".join(labels) for labels in thin]
    return PASS_CODE, doc, lines


def _encode_weight(value):
    if value.denominator == 1:
        return value.numerator
    return format_rational(value)


def cmd_hasse(args):
    facets = facets_from_doc(_load_document(args.input))
    try:
        hg = hasse_graph(facets)
    except (MetricError, EmptyComplex) as exc:
        raise DocumentError("bad facet list: %s" % (exc,)) from exc
    doc = {
        "type": "graph",
        "vertices": list(hg.space.labels),
        "edges": [[u, v, _encode_weight(w)] for u, v, w in hg.edges],
        "suggested": {
            "from": hg.zero,
            "to": hg.one,
            "l": _encode_weight(hg.l),
        },
    }
    # the table form is the graph document too, ready to read back in
    return PASS_CODE, doc, [json.dumps(doc, indent=2, sort_keys=True)]


def _verify_pairwise(args, space, lmax):
    kind = args.check
    tasks = []
    for a in range(space.n):
        for b in range(space.n):
            for l in pair_achievable_lengths(space, a, b, lmax):
                if kind == "suspension" and l == 0:
                    continue  # the stripped model needs distinct cone points
                tasks.append((kind, space, a, b, l))
    results = _run_tasks(_pair_check, tasks, args.jobs)
    by_length = {}
    failures = []
    for a, b, l, ok, detail in results:
        by_length[l] = by_length.get(l, 0) + 1
        if not ok:
            failures.append(
                "(%s,%s) length %s: %s"
                % (space.labels[a], space.labels[b], format_rational(l), detail)
            )
    lines = [
        "length %s: %d cases" % (format_rational(l), by_length[l])
        for l in sorted(by_length)
    ]
    lines += ["FAIL at %s" % line for line in failures]
    return _verdict(
        args,
        not failures,
        {"cases": len(results), "failures": failures},
        "# %s up to length %s" % (kind, format_rational(lmax)),
        lines,
        "" if failures else "%d cases" % len(results),
    )


def cmd_verify(args):
    lmax = _length_arg(args.lmax)
    wanted = 2 if args.check == "kunneth" else 1
    if len(args.inputs) != wanted:
        raise DocumentError(
            "%s wants %d input document(s), got %d"
            % (args.check, wanted, len(args.inputs))
        )
    if args.check in ("chain-iso", "suspension", "frames"):
        space = _load_space(args.inputs[0], args.seed)
        return _verify_pairwise(args, space, lmax)
    if args.check == "kunneth":
        x = _load_space(args.inputs[0], args.seed)
        y = _load_space(args.inputs[1], args.seed + 1)
        report = verify_kunneth(x, y, lmax)
        header = "# kunneth up to length %s" % format_rational(lmax)
        fields = {"detail": report.detail}
        return _verdict(args, report.ok, fields, header, detail=report.detail)
    if args.check == "euler":
        space = _load_space(args.inputs[0], args.seed)
        report = euler_check(space, lmax)
        fields = {
            "checked": report.checked,
            "mismatches": [
                [format_rational(l), a, b, str(coeff), chi]
                for l, a, b, coeff, chi in report.mismatches
            ],
        }
        lines = [
            "FAIL at (%s,%s) length %s: coefficient %s vs euler %d"
            % (a, b, format_rational(l), coeff, chi)
            for l, a, b, coeff, chi in report.mismatches
        ]
        header = "# euler: %d coefficients checked" % report.checked
        return _verdict(args, report.ok, fields, header, lines)
    if args.check in ("union", "mv"):
        gspec = gluing_from_doc(_load_document(args.inputs[0]))
        verifier = verify_union if args.check == "union" else verify_mv
        report = verifier(gspec, lmax)
        if isinstance(report, NotGated):
            doc = {
                "check": args.check,
                "refused": True,
                "witness": report.witness,
                "detail": report.detail,
            }
            line = "refused: gluing is not gated (%s)" % (
                report.detail or report.witness
            )
            return REFUSED_CODE, doc, [line]
        header = "# %s additivity" % args.check
        return _rows_verdict(args, report, header, "k", "left", "right")
    twist = twist_from_doc(_load_document(args.inputs[0]))
    report = verify_sycamore(twist, lmax)
    header = "# sycamore up to length %s" % format_rational(lmax)
    return _rows_verdict(args, report, header, "dim", "x", "y")


def _add_common(sub, jobs=False):
    sub.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output style",
    )
    sub.add_argument(
        "--seed", type=int, default=0,
        help="seed for random:<n> inputs",
    )
    if jobs:
        sub.add_argument(
            "--jobs", type=_jobs_arg, default=1,
            help="worker processes for per-pair work",
        )


def _jobs_arg(text):
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % (text,)
        )
    return jobs


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magtop",
        description=(
            "Exact magnitude, sequence homology, and combinatorial models "
            "for finite metric spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("magnitude", help="magnitude and weighting series")
    p.add_argument("input")
    p.add_argument("--lmax", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_magnitude)

    p = sub.add_parser("homology", help="Betti and torsion table at one length")
    p.add_argument("input")
    p.add_argument("--l", required=True)
    p.add_argument("--from", dest="from_label")
    p.add_argument("--to", dest="to_label")
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("lengths", help="achievable sequence lengths")
    p.add_argument("input")
    p.add_argument("--lmax", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_lengths)

    p = sub.add_parser(
        "critical-cells", help="unmatched cells of a gluing's matching"
    )
    p.add_argument("input")
    p.add_argument("--l", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_critical_cells)

    p = sub.add_parser("frames", help="singular subsequences and predictions")
    p.add_argument("input")
    p.add_argument("--l", required=True)
    p.add_argument("--from", dest="from_label")
    p.add_argument("--to", dest="to_label")
    _add_common(p)
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("hasse", help="weighted graph of an extended face poset")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("verify", help="machine-check a structural identity")
    p.add_argument("check", choices=CHECKS)
    p.add_argument("inputs", nargs="+")
    p.add_argument("--lmax", required=True)
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code, doc, lines = args.func(args)
    except DocumentError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return PARSE_CODE
    except LabelError as exc:
        label = exc.args[0] if exc.args else exc
        print("error: unknown label %r" % (label,), file=sys.stderr)
        return LABEL_CODE
    except (FourCutObstruction, NotASycamoreTwist, InvalidLength) as exc:
        print("refused: %s" % (exc,), file=sys.stderr)
        return REFUSED_CODE
    except MetricError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return METRIC_CODE
    except AssertionError as exc:
        # every failed check on the program's own work, InternalFault or a
        # plain assert, is a defect and never a verdict
        print("internal fault: %s" % (exc,), file=sys.stderr)
        return FAULT_CODE
    if args.format == "json":
        lines = [json.dumps(doc, indent=2, sort_keys=True)]
    for line in lines:
        print(line)
    return code


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (e.g. "| head"); send the rest of stdout to
        # devnull so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = PIPE_CODE
    sys.exit(code)


if __name__ == "__main__":
    entry()

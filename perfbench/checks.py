"""Correctness gate: goldens plus invariants in the benchmark's own arithmetic.

Each command's exit code must match the golden recorded at the default seed,
its stderr must be empty, and its stdout must hash to the golden wherever the
golden applies: at the default seed, for commands whose output does not
depend on the seed, and, for label-shuffled homology tables, after mapping
labels back to canonical names.  On top of that, for any seed:

* ``magnitude``: Z w = 1 and Mag = sum of w, up to q^lmax;
* ``homology-euler``: the alternating sum of a pair's total Betti row equals
  the q^l coefficient of the pair's entry of Z^-1 (these entries sum to Mag);
* ``rp2-torsion``: the RP^2 pair has torsion 2 in degree 3 and no Betti
  numbers;
* ``lengths``: the printed lengths are the achievable ones;
* ``verify``: exit code 0 and a final ``PASS`` line.

Series are dicts {exponent: coefficient} of Fractions; nothing here imports
``magtop``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def argv_text(argv):
    return " ".join(argv)


# -- series arithmetic ----------------------------------------------------------

def _series_mul_mono(series, exponent, lmax):
    return {e + exponent: c for e, c in series.items() if e + exponent <= lmax}


def _series_add(acc, series):
    for e, c in series.items():
        acc[e] = acc.get(e, 0) + c
    return acc


def _clean(series):
    return {e: c for e, c in series.items() if c}


def parse_series(text):
    """Inverse of magtop's series format, e.g. "1 - 2 q^3/2 + 1/3 q^5"."""
    if text.strip() == "0":
        return {}
    tokens = text.split()
    out = {}
    sign = 1
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            i += 1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        if tok.startswith("q^"):
            coeff, exponent = Fraction(1), Fraction(tok[2:])
        elif i + 1 < len(tokens) and tokens[i + 1].startswith("q^"):
            coeff, exponent = Fraction(tok), Fraction(tokens[i + 1][2:])
            i += 1
        else:
            coeff, exponent = Fraction(tok), Fraction(0)
        if exponent in out:
            raise ValueError("repeated exponent %s" % exponent)
        out[exponent] = sign * coeff
        sign = 1
        i += 1
    return out


def distance_matrix(doc):
    """Labels and exact distances of a matrix or unit/weighted graph doc."""
    if doc["type"] == "matrix":
        return list(doc["labels"]), [[Fraction(v) for v in row] for row in doc["dist"]]
    labels = list(doc["vertices"])
    index = {v: i for i, v in enumerate(labels)}
    n = len(labels)
    inf = None
    d = [[Fraction(0) if i == j else inf for j in range(n)] for i in range(n)]
    for u, v, w in doc["edges"]:
        w = Fraction(w)
        i, j = index[u], index[v]
        if d[i][j] is None or w < d[i][j]:
            d[i][j] = d[j][i] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] is not None and d[k][j] is not None:
                    via = d[i][k] + d[k][j]
                    if d[i][j] is None or via < d[i][j]:
                        d[i][j] = via
    return labels, d


def inverse_entry(d, a, b, lmax):
    """Entry (a, b) of Z^-1 up to q^lmax, Z_ij = q^d(i,j).

    Uses v_0 = e_b, v_{k+1} = -(Z - I) v_k; Z^-1 e_b is the sum of the v_k,
    and k stops once the minimal positive distance times k passes lmax.
    """
    n = len(d)
    r0 = min(d[i][j] for i in range(n) for j in range(n) if i != j)
    v = [{Fraction(0): Fraction(1)} if i == b else {} for i in range(n)]
    total = {}
    for _ in range(int(math.floor(lmax / r0)) + 1):
        _series_add(total, v[a])
        nxt = []
        for i in range(n):
            acc = {}
            for j in range(n):
                if i != j:
                    _series_add(acc, _series_mul_mono(v[j], d[i][j], lmax))
            nxt.append({e: -c for e, c in acc.items()})
        v = nxt
    return _clean(total)


def achievable_lengths(d, lmax):
    """Lengths <= lmax of point sequences with distinct consecutive points."""
    n = len(d)
    seen = {(p, Fraction(0)) for p in range(n)}
    frontier = list(seen)
    while frontier:
        x, used = frontier.pop()
        for y in range(n):
            if y != x and used + d[x][y] <= lmax and (y, used + d[x][y]) not in seen:
                seen.add((y, used + d[x][y]))
                frontier.append((y, used + d[x][y]))
    return sorted({length for _, length in seen})


# -- output parsing -------------------------------------------------------------

def homology_rows(stdout):
    """Rows (from, to, k, betti, torsion tuple) of a homology table."""
    rows = []
    for line in stdout.splitlines():
        if not line or line.startswith("#"):
            continue
        a, b, k, betti, torsion = line.split()
        factors = () if torsion == "-" else tuple(int(f) for f in torsion.split(","))
        rows.append((a, b, int(k), int(betti), factors))
    return rows


def canonical_table(stdout, canon):
    """Homology table with labels mapped to canonical names, rows sorted."""
    head = [line for line in stdout.splitlines() if line.startswith("#")]
    rows = sorted(
        (canon.get(a, a), canon.get(b, b), k, betti, torsion)
        for a, b, k, betti, torsion in homology_rows(stdout)
    )
    body = ["%s %s %d %d %s" % (a, b, k, r, ",".join(map(str, t)) or "-")
            for a, b, k, r, t in rows]
    return "\n".join(head + body) + "\n"


# -- invariants -------------------------------------------------------------------

def _arg(argv, flag):
    return Fraction(argv[argv.index(flag) + 1])


def _doc(workload, argv):
    name = next(a[1:] for a in argv if a.startswith("@"))
    return workload.docs[name]


def check_magnitude(workload, argv, rc, stdout):
    lmax = _arg(argv, "--lmax")
    labels, d = distance_matrix(_doc(workload, argv))
    lines = stdout.splitlines()
    if len(lines) != len(labels) + 1 or not lines[0].startswith("Mag = "):
        return ["magnitude output has %d lines for %d points" % (len(lines), len(labels))]
    mag = parse_series(lines[0][len("Mag = "):])
    weights = []
    for label, line in zip(labels, lines[1:]):
        prefix = "w(%s) = " % label
        if not line.startswith(prefix):
            return ["weighting line out of order: %r" % line[:40]]
        weights.append(parse_series(line[len(prefix):]))
    problems = []
    one = {Fraction(0): Fraction(1)}
    for i, label in enumerate(labels):
        row = {}
        for j, w in enumerate(weights):
            _series_add(row, _series_mul_mono(w, d[i][j], lmax))
        if _clean(row) != one:
            problems.append("(Z w)(%s) != 1 up to q^%s" % (label, lmax))
    total = {}
    for w in weights:
        _series_add(total, w)
    if _clean(total) != mag:
        problems.append("Mag != sum of weights")
    return problems


def check_homology_euler(workload, argv, rc, stdout):
    l = _arg(argv, "--l")
    labels, d = distance_matrix(_doc(workload, argv))
    a = labels.index(argv[argv.index("--from") + 1])
    b = labels.index(argv[argv.index("--to") + 1])
    want = inverse_entry(d, a, b, l).get(l, 0)
    totals = [r for r in homology_rows(stdout) if r[0] == "*"]
    got = sum((-1) ** k * betti for _, _, k, betti, _ in totals)
    if got != want:
        return ["euler of the total row is %s, Z^-1 has %s at q^%s" % (got, want, l)]
    return []


def check_rp2_torsion(workload, argv, rc, stdout):
    pair = [r[2:] for r in homology_rows(stdout) if r[:2] == ("0hat", "1hat")]
    if pair != [(3, 0, (2,))]:
        return ["RP^2 pair rows are %r, want torsion 2 in degree 3 only" % (pair,)]
    return []


def check_lengths(workload, argv, rc, stdout):
    _, d = distance_matrix(_doc(workload, argv))
    want = achievable_lengths(d, _arg(argv, "--lmax"))
    got = [Fraction(x) for x in stdout.split()]
    return [] if got == want else ["lengths differ from the achievable ones"]


def check_verify(workload, argv, rc, stdout):
    lines = stdout.splitlines()
    if rc != 0 or not lines or not lines[-1].startswith("PASS"):
        return ["verify did not PASS (exit %r)" % (rc,)]
    return []


INVARIANTS = {
    "magnitude": check_magnitude,
    "homology-euler": check_homology_euler,
    "rp2-torsion": check_rp2_torsion,
    "lengths": check_lengths,
    "verify": check_verify,
}


def load_goldens():
    try:
        with open(GOLDENS, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def canonical_argv(argv, canon):
    """argv as text with seeded labels mapped to canonical names."""
    return argv_text([canon.get(a, a) for a in argv])


def golden_entry(command, rc, stdout, canon):
    entry = {"argv": canonical_argv(command.argv, canon), "rc": rc,
             "sha256": sha256(stdout)}
    if canon and command.argv[0] == "homology":
        entry["canonical_sha256"] = sha256(canonical_table(stdout, canon))
    return entry


def check_command(workload, index, seed, default_seed, golden, rc, stdout, stderr):
    """Problems with one command's output; empty when it is correct."""
    command = workload.commands[index]
    problems = []
    argv = canonical_argv(command.argv, workload.canon)
    if golden is None or golden.get("argv") != argv:
        return ["no golden for %r; record goldens again" % argv_text(command.argv)]
    if rc != golden["rc"]:
        problems.append("exit code %r, golden %r" % (rc, golden["rc"]))
    if stderr:
        problems.append("stderr: %s" % stderr.strip().splitlines()[-1][:200])
    if (seed == default_seed or command.seed_free) and sha256(stdout) != golden["sha256"]:
        problems.append("stdout differs from the golden")
    if "canonical_sha256" in golden:
        try:
            canonical = sha256(canonical_table(stdout, workload.canon))
        except ValueError:
            canonical = None
        if canonical != golden["canonical_sha256"]:
            problems.append("canonical table differs from the golden")
    if command.check is not None and rc == 0:
        try:
            problems += INVARIANTS[command.check](workload, command.argv, rc, stdout)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            problems.append("unparsable output for %s: %r" % (command.check, exc))
    return problems

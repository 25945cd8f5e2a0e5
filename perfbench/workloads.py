"""The two benchmark workloads: seeded input documents and CLI command lists.

Every workload is a fixed list of ``magtop`` commands run one after another
(a closed loop with one client).  The seed only changes the generated input
documents; the program never sees the seed itself.  Inputs are generated so
that every seed asks for (nearly) the same work, since runs with different
seeds are compared with each other: the random matrix permutes a fixed multiset
of distances, and graphs, complexes and small metrics are renamed, with
their edge and facet lists reordered, in a way that keeps the index order
the program computes in.

This module needs only the standard library, so the checking side of the
benchmark can rebuild the same documents without importing ``magtop``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 0

# Label pool for renamed vertices; no name contains "|" or is "0hat"/"1hat",
# which hasse_graph reserves.
_NAMES = tuple(
    "%s%s" % (a, b) for a in "bcdfghjklmnprstvwz" for b in "aeiou"
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation.

    ``argv`` refers to generated documents as ``@name``; the runner swaps in
    their paths.  ``check`` names the invariant the benchmark verifies with
    its own arithmetic (see checks.py); ``seed_free`` marks commands whose
    stdout is the same for every seed, so their golden hash applies to all.
    """

    argv: tuple
    check: str | None = None
    seed_free: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    docs: dict  # document name -> JSON object, written before the first pass
    commands: tuple
    # documents the program itself produces during set-up: name -> argv
    derived: dict = field(default_factory=dict)
    # label -> canonical label, to compare label-shuffled tables across seeds
    canon: dict = field(default_factory=dict)


def _frac_text(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def _fixed_distances(count, den_max, base_seed):
    """A fixed multiset of rationals in [1, 2]; any such matrix is a metric."""
    rng = random.Random(base_seed)
    out = []
    for _ in range(count):
        den = rng.randint(1, den_max)
        out.append(Fraction(rng.randint(den, 2 * den), den))
    return out


def matrix_doc(labels, values):
    """Matrix document with the upper triangle filled row by row."""
    n = len(labels)
    dist = [["0"] * n for _ in range(n)]
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = _frac_text(next(it))
    return {"type": "matrix", "labels": list(labels), "dist": dist}


def cycle_doc(labels, rng):
    """Unit-weight cycle through ``labels`` with seeded edge order.

    The vertex list walks the cycle from a seeded start in a seeded
    direction, so every seed gives the same distance matrix by index and
    hence the same boundary matrices.  Returns the document and the map
    label -> index.
    """
    n = len(labels)
    edges = [[labels[i], labels[(i + 1) % n], 1] for i in range(n)]
    for e in edges:
        if rng.random() < 0.5:
            e[0], e[1] = e[1], e[0]
    rng.shuffle(edges)
    start, step = rng.randrange(n), rng.choice((1, -1))
    vertices = [labels[(start + step * i) % n] for i in range(n)]
    doc = {"type": "graph", "vertices": vertices, "edges": edges}
    return doc, {lab: "c%d" % i for i, lab in enumerate(vertices)}


def _rename_graph(doc, rename, rng):
    edges = [[rename[u], rename[v], w] for u, v, w in doc["edges"]]
    rng.shuffle(edges)
    return {"type": "graph", "vertices": [rename[v] for v in doc["vertices"]],
            "edges": edges}


def renamed_twist_doc(doc, rng):
    """Rename every vertex of a twist document and reorder its edges.

    One injective renaming covers both sides, so the common part still
    matches by name and no interior label collides; ``alpha`` indexes the
    unchanged ``k_in_*`` order, so it stays a valid self-isometry.  Vertex
    order is kept, so every seed asks for the same work.
    """
    labels = sorted(set(doc["g"]["vertices"]) | set(doc["h"]["vertices"]))
    rename = dict(zip(labels, rng.sample(_NAMES, len(labels))))
    return {
        "type": "twist",
        "g": _rename_graph(doc["g"], rename, rng),
        "h": _rename_graph(doc["h"], rename, rng),
        "k_in_g": [rename[v] for v in doc["k_in_g"]],
        "k_in_h": [rename[v] for v in doc["k_in_h"]],
        "alpha": list(doc["alpha"]),
    }


# The 6-vertex triangulation of the real projective plane: every edge lies
# on exactly two of the ten triangles, and H_1 = Z/2.
RP2_FACETS = (
    (1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6),
)


def rp2_doc(rng):
    """Complex document of RP^2 with seeded vertex names and facet order.

    Returns the document and the map face name -> canonical face name for
    every simplex, since the Hasse graph names a face by joining its sorted
    vertex names with "|".
    """
    # sorted names keep the Hasse graph's vertex order, hence its work
    names = sorted(rng.sample(_NAMES, 6))
    facets = [[names[v - 1] for v in f] for f in RP2_FACETS]
    for f in facets:
        rng.shuffle(f)
    rng.shuffle(facets)
    back = {names[i]: "v%d" % (i + 1) for i in range(6)}
    canon = {}
    for f in RP2_FACETS:
        for mask in range(1, 8):
            face = [names[v - 1] for i, v in enumerate(f) if mask >> i & 1]
            canon["|".join(sorted(face))] = "|".join(sorted(back[x] for x in face))
    return {"type": "complex", "facets": facets}, canon


def _homology_cycles(seed, root):
    rng = random.Random(seed)
    names = rng.sample(_NAMES, 10)  # disjoint, so one canon map serves both
    c4, canon4 = cycle_doc(names[:4], rng)
    c6, canon6 = cycle_doc(names[4:], rng)
    # one command per ordered pair, in vertex order: the same boundary
    # matrices as one all-pairs command, in units short enough (a few ms to
    # half a second) that the fastest of a run's samples of each misses the
    # host's slow stretches far more often than a 2.5 s all-pairs command
    commands = tuple(
        Command(("homology", "@" + name, "--l", l, "--from", a, "--to", b,
                 "--jobs", "1"), check="homology-euler")
        for name, doc, l in (("cycle4.json", c4, "8"), ("cycle6.json", c6, "7"))
        for a in doc["vertices"] for b in doc["vertices"]
    )
    return Workload(
        "homology-cycles",
        {"cycle4.json": c4, "cycle6.json": c6},
        commands,
        canon={**canon4, **canon6},
    )


def _points18(seed):
    # a seeded permutation of a fixed multiset: the series work varies by
    # about 2% between seeds
    values = _fixed_distances(18 * 17 // 2, 6, 18)
    random.Random(seed).shuffle(values)
    return matrix_doc(["p%d" % i for i in range(18)], values)


def _verify_mix(seed, root):
    """The verifiers over fixtures, 6-point spaces and RP^2, then the
    sycamore twist, then one magnitude series.  One workload, so that each
    run is long enough to ride out the host's slow spells."""
    rng = random.Random(seed)
    # fixed 6-point metrics under seeded names: permuting their distances
    # changes the number of sequences by up to 9%
    six_a = matrix_doc(rng.sample(_NAMES, 6), _fixed_distances(15, 2, 6))
    six_b = matrix_doc(rng.sample(_NAMES, 6), _fixed_distances(15, 3, 7))
    rp2, canon = rp2_doc(rng)
    path = os.path.join(root, "src", "magtop", "fixtures", "sycamore_twist.json")
    with open(path, "r", encoding="utf-8") as fh:
        twist = renamed_twist_doc(json.load(fh), random.Random(seed))

    def verify(*args):
        return Command(("verify",) + args + ("--jobs", "1"), check="verify",
                       seed_free=True)

    commands = (
        verify("chain-iso", "fixture:k4", "--lmax", "4"),
        verify("chain-iso", "@six_a.json", "--lmax", "4"),
        verify("suspension", "fixture:c4", "--lmax", "6"),
        verify("suspension", "@six_a.json", "--lmax", "4"),
        verify("euler", "@six_b.json", "--lmax", "5"),
        verify("kunneth", "fixture:p2", "fixture:k3", "--lmax", "4"),
        verify("mv", "fixture:mv_triangles", "--lmax", "6"),
        verify("union", "fixture:mv_triangles", "--lmax", "6"),
        verify("frames", "fixture:c4", "--lmax", "2"),
        verify("frames", "fixture:k4", "--lmax", "3"),
        Command(("critical-cells", "fixture:sycamore_gluing", "--l", "4"),
                seed_free=True),
        Command(("frames", "fixture:c4", "--l", "2"), seed_free=True),
        Command(("frames", "fixture:k4", "--l", "3", "--from", "a", "--to", "b"),
                seed_free=True),
        Command(("lengths", "@six_a.json", "--lmax", "6"), check="lengths",
                seed_free=True),
        Command(("hasse", "@rp2.json")),
        Command(("homology", "@rp2_hasse.json", "--l", "4", "--from", "0hat",
                 "--jobs", "1"), check="rp2-torsion"),
        verify("sycamore", "@twist.json", "--lmax", "4"),
        Command(("magnitude", "@points18.json", "--lmax", "2"), check="magnitude"),
    )
    return Workload(
        "verify-mix",
        {"six_a.json": six_a, "six_b.json": six_b, "rp2.json": rp2,
         "twist.json": twist, "points18.json": _points18(seed)},
        commands,
        derived={"rp2_hasse.json": ("hasse", "@rp2.json")},
        canon=canon,
    )


BUILDERS = {
    "homology-cycles": _homology_cycles,
    "verify-mix": _verify_mix,
}


def build(name, seed, root):
    """The workload's documents and commands for one seed."""
    return BUILDERS[name](seed, root)


def resolve(argv, workdir):
    """argv with every ``@name`` replaced by the document's path."""
    return [
        os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in argv
    ]


def write_docs(workload, workdir):
    os.makedirs(workdir, exist_ok=True)
    for name, doc in workload.docs.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)

"""Tests for gated gluings and homology additivity."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import magtop
from magtop.docs import gluing_from_doc, load_fixture
from magtop.homology import homology_table, magnitude_homology_total
from magtop.metric import MetricSpace, glue, restriction
from magtop.mv import (
    FaceEscapedInterior,
    NotGated,
    check_gated,
    interior_part_betti,
    verify_mv,
    verify_union,
)


def space(labels, rows):
    rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
    return MetricSpace(tuple(labels), rows)


def triangles():
    return gluing_from_doc(load_fixture("mv_triangles"))


def class_set(gspec, c):
    """The glued points of class c: 0 interior g, 1 in K, 2 biased, 3 neutral."""
    return frozenset(p for p, k in enumerate(gspec.classes) if k == c)


def tree_gluing():
    path = space(("r", "g1", "g2"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    star = space(("r", "h1", "h2"), [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    return glue(path, star, (0,), (0,))


def test_check_gated_accepts_triangles():
    assert check_gated(triangles()) is None


def test_check_gated_refuses_neutral_points():
    gl = gluing_from_doc(load_fixture("sycamore_gluing"))
    refusal = check_gated(gl)
    assert isinstance(refusal, NotGated)
    assert not refusal
    assert refusal.witness == "h3"
    assert refusal.detail == "3 neutral interior points, e.g. h3"


def test_refusal_passes_through_every_verifier():
    gl = gluing_from_doc(load_fixture("sycamore_gluing"))
    for result in (verify_union(gl, 2), verify_mv(gl, 2)):
        assert isinstance(result, NotGated)
        assert result.witness == "h3"


def test_interior_part_betti_values():
    gl = triangles()
    parts = interior_part_betti(gl, 2)
    assert parts.keys() == homology_table(gl.h, 2).keys()
    assert sorted({l for row in parts.values() for l in row}) == [0, 1, 2]
    assert magnitude_homology_total(parts, 0).betti == ((0, 1),)
    assert magnitude_homology_total(parts, 1).betti == ((1, 2),)
    assert magnitude_homology_total(parts, 2).betti == ((2, 2),)
    assert interior_part_betti(gl, 1) == {
        pair: {l: v for l, v in row.items() if l <= 1} for pair, row in parts.items()
    }


def test_escaped_face_raises_even_under_optimize():
    # a gluing with neutral points, handed over without the gate test; at
    # length 2 dropping h3, the only interior point of (p, h3, q), keeps the
    # length
    ungated = gluing_from_doc(load_fixture("sycamore_gluing"))
    with pytest.raises(FaceEscapedInterior, match="escaped the interior"):
        interior_part_betti(ungated, 2)
    script = (
        "from magtop.docs import gluing_from_doc, load_fixture\n"
        "from magtop.mv import interior_part_betti\n"
        "gl = gluing_from_doc(load_fixture('sycamore_gluing'))\n"
        "interior_part_betti(gl, 2)\n"
    )
    src = os.path.dirname(os.path.dirname(magtop.__file__))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert run.returncode == 1
    assert "FaceEscapedInterior" in run.stderr


def test_union_additivity_on_triangles():
    rep = verify_union(triangles(), 3)
    assert rep
    assert rep.rows and all(row[4] for row in rep.rows)
    assert "matches" in rep.detail


def test_mv_additivity_on_triangles():
    rep = verify_mv(triangles(), 3)
    assert rep
    assert rep.rows and all(row[2] == row[3] for row in rep.rows)
    assert "additivity holds" in rep.detail



@pytest.mark.parametrize("verify", [verify_mv, verify_union])
def test_additivity_builds_no_complex_of_an_unreachable_pair(monkeypatch, verify):
    # each space's table, and the interior part of h, builds a pair's
    # complex only at the lengths that pair achieves, so no enumeration is
    # empty ("magtop.homology" as an attribute is the re-exported function)
    calls, empty = [], []
    for name in ("magtop.homology", "magtop.mv"):
        module = importlib.import_module(name)

        def counted(space, a, b, l, real=module.lightlike_sequences, name=name):
            seqs = real(space, a, b, l)
            calls.append(name)
            if not seqs:
                empty.append((name, a, b, l))
            return seqs

        monkeypatch.setattr(module, "lightlike_sequences", counted)
    assert verify(triangles(), 6)
    assert calls.count("magtop.homology")
    assert calls.count("magtop.mv") == (30 if verify is verify_union else 0)
    assert empty == []


@pytest.mark.parametrize("verify", [verify_mv, verify_union])
def test_additivity_searches_lengths_once_per_table_row(monkeypatch, verify):
    # each table, the interior part of h included, searches one pair's
    # lengths per row, and the comparison reads its lengths from the tables
    real, calls = magtop.causal._reachable_lengths, []

    def counted(space, start, budget):
        calls.append(space)
        return real(space, start, budget)

    monkeypatch.setattr(magtop.causal, "_reachable_lengths", counted)
    gl = triangles()
    assert verify(gl, 6)
    if verify is verify_mv:
        spaces = (gl.space, restriction(gl.g, gl.k_in_g), gl.g, gl.h)
    else:
        spaces = (gl.space, gl.g, gl.h)
    assert len(calls) == sum(s.n ** 2 for s in spaces)


def test_one_point_tree_gluing():
    gl = tree_gluing()
    assert class_set(gl, 3) == frozenset()
    assert sorted(gl.space.labels) == ["g1", "g2", "h1", "h2", "r"]
    idx = gl.space.index
    assert gl.space.dist[idx("g2")][idx("h1")] == 3
    assert verify_union(gl, 3)
    assert verify_mv(gl, 3)

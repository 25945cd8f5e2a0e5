"""Tests for the discrete vector field over glued spaces."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

import magtop
from magtop import morse
from magtop.docs import gluing_from_doc, load_fixture, twist_from_doc
from magtop.homology import magnitude_homology_total
from magtop.metric import MetricSpace, seq_length
from magtop.morse import (
    CriticalCellsMismatch,
    Matching,
    NotAMatching,
    NotASycamoreTwist,
    SycamoreTwist,
    classify_sequence,
    critical_cells,
    lightlike_simplices,
    projecting_matching,
    sycamore_tau,
    verify_acyclic,
    verify_bounded,
    verify_sycamore,
)
from magtop.causal import achievable_lengths, seq_time_stamps


def space(labels, rows):
    rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
    return MetricSpace(tuple(labels), rows)


def mv_gluing():
    return gluing_from_doc(load_fixture("mv_triangles"))


def sycamore_gluing():
    return gluing_from_doc(load_fixture("sycamore_gluing"))


def test_matching_accessors():
    m = Matching([(("a",), ("a", "b")), (("c",), ("b", "c"))])
    assert len(m) == 2
    assert m.pairs == ((("a",), ("a", "b")), (("c",), ("b", "c")))
    assert m.is_matched(("c",)) and m.is_matched(("b", "c"))
    assert not m.is_matched(("b",))
    assert m == Matching(reversed(list(m)))


def test_matching_rejects_bad_pairs():
    with pytest.raises(NotAMatching):
        Matching([(("a",), ("a", "b", "c"))])
    with pytest.raises(NotAMatching):
        Matching([(("a",), ("b", "c"))])
    with pytest.raises(NotAMatching):
        Matching([(("a",), ("a", "b")), (("a",), ("a", "c"))])
    with pytest.raises(NotAMatching):
        Matching([(("a",), ("a", "b")), (("b",), ("a", "b"))])
    # same points, but no single deletion turns the coface into the face
    with pytest.raises(NotAMatching):
        Matching([((2, 1, 0), (0, 1, 0, 2))])


def test_matching_accepts_face_of_repeating_coface():
    # the coface repeats a point, so its point set is not larger
    m = Matching([((0, 1, 2), (0, 1, 0, 2))])
    assert m.pairs == (((0, 1, 2), (0, 1, 0, 2)),)


def test_matching_outside_complex_rejected():
    m = Matching([(("a",), ("a", "b"))])
    with pytest.raises(NotAMatching):
        verify_acyclic([("a",), ("b",)], m)


def test_acyclic_segment():
    cells = [("a",), ("b",), ("a", "b")]
    rep = verify_acyclic(cells, Matching([(("a",), ("a", "b"))]))
    assert rep.ok and rep.cycle == ()


def test_cycle_witness_on_triangle_boundary():
    cells = [
        ("v0",),
        ("v1",),
        ("v2",),
        ("v0", "v1"),
        ("v1", "v2"),
        ("v0", "v2"),
    ]
    m = Matching(
        [
            (("v0",), ("v0", "v1")),
            (("v1",), ("v1", "v2")),
            (("v2",), ("v0", "v2")),
        ]
    )
    rep = verify_acyclic(cells, m)
    assert not rep
    assert len(rep.cycle) == 6 and len(set(rep.cycle)) == 6
    # each step is a matched up-arrow or an unmatched down-arrow
    for s, t in zip(rep.cycle, rep.cycle[1:] + rep.cycle[:1]):
        if len(t) == len(s) + 1:
            assert (s, t) in m.pairs
        else:
            assert len(t) == len(s) - 1 and set(t) < set(s)
            assert (t, s) not in m.pairs
    bounded = verify_bounded(cells, m)
    assert not bounded and bounded.bounds == {}


def test_bounded_counts_on_path_complex():
    cells = [("a",), ("b",), ("c",), ("a", "b"), ("b", "c")]
    m = Matching([(("a",), ("a", "b")), (("b",), ("b", "c"))])
    rep = verify_bounded(cells, m)
    assert rep.ok
    assert rep.bounds[("a", "b")] == 2
    assert rep.bounds[("b", "c")] == 1
    assert all(rep.bounds[v] == 1 for v in [("a",), ("b",), ("c",)])


def test_bounded_empty_matching():
    cells = [("a",), ("b",), ("a", "b")]
    rep = verify_bounded(cells, Matching([]))
    assert rep.ok and set(rep.bounds.values()) == {1}


def dfs_bounds(simplices, matching):
    """N(a) by depth-first search over the alternating steps from a (down to
    a matched face, up its partner); the matching must be acyclic."""
    cells = set(simplices)
    up = dict(matching.pairs)
    steps = {}
    for s in cells:
        outs = []
        if len(s) >= 2:
            for i in range(len(s)):
                partner = up.get(s[:i] + s[i + 1 :])
                if partner is not None and partner != s:
                    outs.append(partner)
        steps[s] = outs
    bounds = {}
    for root in cells:
        stack = [root]
        while stack:
            s = stack[-1]
            if s in bounds:
                stack.pop()
                continue
            todo = [t for t in steps[s] if t not in bounds]
            if todo:
                stack.extend(todo)
                continue
            bounds[s] = 1 + max((bounds[t] for t in steps[s]), default=0)
            stack.pop()
    return bounds


def test_bounds_match_dfs_oracle_on_fixtures():
    for gl in (mv_gluing(), sycamore_gluing()):
        for l in (1, 2, 3, 4):
            cells = lightlike_simplices(gl.space, l)
            m = projecting_matching(gl, l)
            rep = verify_bounded(cells, m)
            assert rep.ok
            assert rep.bounds == dfs_bounds(cells, m)


def modified_arrows(cells, matching):
    """Arrows of the modified Hasse digraph, by testing every pair of cells
    one apart in size for the face relation (drop one entry)."""
    up = dict(matching.pairs)
    by_size = {}
    for s in cells:
        by_size.setdefault(len(s), []).append(s)
    arrows = set()
    for s in cells:
        faces = {s[:i] + s[i + 1 :] for i in range(len(s))}
        for f in by_size.get(len(s) - 1, ()):
            if f in faces:
                arrows.add((f, s) if up.get(f) == s else (s, f))
    return arrows


def has_cycle(cells, arrows):
    """True when some cell reaches itself along one or more arrows."""
    succ = {s: [t for u, t in arrows if u == s] for s in cells}
    for s in cells:
        seen = set()
        todo = list(succ[s])
        while todo:
            t = todo.pop()
            if t not in seen:
                seen.add(t)
                todo.extend(succ[t])
        if s in seen:
            return True
    return False


def random_matched_complex(rng):
    """Face closure of a few random simplices on five vertices, with a
    random partial matching of codimension-one pairs."""
    facets = [
        tuple(sorted(rng.sample(range(5), rng.randint(2, 4))))
        for _ in range(rng.randint(1, 3))
    ]
    cells = sorted(
        {c for f in facets for k in range(1, len(f) + 1) for c in combinations(f, k)}
    )
    pairs = [
        (s[:i] + s[i + 1 :], s) for s in cells if len(s) > 1 for i in range(len(s))
    ]
    rng.shuffle(pairs)
    used = set()
    chosen = []
    for face, coface in pairs:
        if face not in used and coface not in used and rng.random() < 0.7:
            used.update((face, coface))
            chosen.append((face, coface))
    return cells, Matching(chosen)


def test_verifiers_match_brute_force_on_random_matchings():
    rng = random.Random(5)
    cyclic = acyclic = 0
    for _ in range(80):
        cells, m = random_matched_complex(rng)
        arrows = modified_arrows(cells, m)
        cyclic_here = has_cycle(cells, arrows)
        rep = verify_acyclic(cells, m)
        bounded = verify_bounded(cells, m)
        assert rep.ok == (not cyclic_here) == bounded.ok
        if cyclic_here:
            cyclic += 1
            cycle = rep.cycle
            assert len(cycle) >= 2 and len(set(cycle)) == len(cycle)
            assert all(
                (s, t) in arrows for s, t in zip(cycle, cycle[1:] + cycle[:1])
            )
            assert bounded.bounds == {}
        else:
            acyclic += 1
            assert rep.cycle == ()
            assert bounded.bounds == dfs_bounds(cells, m)
    assert cyclic >= 10 and acyclic >= 10


def test_stamped_oracle_on_fixtures():
    """The time-stamped cells the paper's Morse argument runs on give the
    same digraph, verdicts, bounds and critical cells as plain sequences."""
    tw = twist_from_doc(load_fixture("sycamore_twist"))
    repeats = 0
    for gl in (mv_gluing(), sycamore_gluing(), tw.x, tw.y):
        sp = gl.space
        for l in achievable_lengths(sp, 4):
            cells = lightlike_simplices(sp, l)
            m = projecting_matching(gl, l)
            repeats += sum(len(set(c)) < len(c) for _, c in m)
            stamp = {c: seq_time_stamps(sp, c) for c in cells}
            stamped = [stamp[c] for c in cells]
            sm = Matching((stamp[f], stamp[c]) for f, c in m)
            arrows = modified_arrows(cells, m)
            _, _, succ = morse._modified_hasse(cells, m)
            assert arrows == {
                (cells[s], cells[t]) for s, outs in enumerate(succ) for t in outs
            }
            _, _, ssucc = morse._modified_hasse(stamped, sm)
            assert {(stamp[a], stamp[b]) for a, b in arrows} == {
                (stamped[s], stamped[t]) for s, outs in enumerate(ssucc) for t in outs
            }
            assert verify_acyclic(cells, m).ok == verify_acyclic(stamped, sm).ok
            rep, srep = verify_bounded(cells, m), verify_bounded(stamped, sm)
            assert rep.ok == srep.ok
            assert {stamp[c]: n for c, n in rep.bounds.items()} == srep.bounds
            crit = sorted(stamp[c] for c in critical_cells(gl, l))
            sticky_free = sorted(
                stamp[c] for c in cells if classify_sequence(gl, c).kind != "sticky"
            )
            assert crit == sticky_free
    assert repeats


def test_lightlike_simplices_two_point():
    x = space("ab", [[0, 1], [1, 0]])
    at0 = lightlike_simplices(x, 0)
    assert sorted(len(s) for s in at0) == [1, 1]
    at1 = lightlike_simplices(x, 1)
    assert at1 == [(0, 1), (1, 0)]
    assert all(seq_length(x, s) == 1 for s in at1)


def brute_sticky(gspec, seq):
    """Quadratic scan for a crossing run between a strict-g point and a
    biased point with only common points between them."""
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if not all(seq[t] in gspec.kset for t in range(i + 1, j)):
                continue
            a, b = seq[i], seq[j]
            if a in gspec.interior_g and b in gspec.biased:
                return True
            if a in gspec.biased and b in gspec.interior_g:
                return True
    return False


def test_classification_matches_brute_force():
    gl = sycamore_gluing()
    side_g = gl.interior_g | gl.kset | gl.neutral
    side_h = gl.side_h()
    counts = {"sticky": 0, "flat": 0, "twistable": 0}
    for k in (1, 2, 3):
        for seq in product(range(gl.space.n), repeat=k):
            if any(seq[t] == seq[t + 1] for t in range(k - 1)):
                continue
            cls = classify_sequence(gl, seq)
            assert (cls.kind == "sticky") == brute_sticky(gl, seq)
            counts[cls.kind] += 1
            if cls.kind == "sticky":
                continue
            assert cls.pieces[0][0] == 0 and cls.pieces[-1][1] == k - 1
            for (_, e), (s2, _) in zip(cls.pieces, cls.pieces[1:]):
                assert e == s2
            for c in cls.cuts:
                assert seq[c] in gl.neutral
            for s, e in cls.pieces:
                piece = seq[s : e + 1]
                one_sided = all(p in side_g for p in piece) or all(
                    p in side_h for p in piece
                )
                assert one_sided
            assert (cls.kind == "flat") == (len(cls.pieces) == 1)
    assert counts == {"sticky": 148, "flat": 738, "twistable": 24}


def test_gate_insert_pair():
    gl = mv_gluing()
    # labels (p, q, u, v); v is biased with gate p
    assert gl.space.labels == ("p", "q", "u", "v")
    assert sorted(gl.biased) == [3] and gl.gates == {3: 0}
    assert classify_sequence(gl, (2, 3)).kind == "sticky"
    m = projecting_matching(gl, 2)
    face, coface = (2, 3), (2, 0, 3)
    assert (face, coface) in m.pairs
    assert m.is_matched(coface) and coface not in dict(m.pairs)


def test_matching_pairs_preserve_length_and_endpoints():
    gl = mv_gluing()
    for l in (1, 2, 3):
        for face, coface in projecting_matching(gl, l):
            assert len(coface) == len(face) + 1
            assert face[0] == coface[0] and face[-1] == coface[-1]
            assert seq_length(gl.space, face) == l == seq_length(gl.space, coface)


def test_critical_cell_counts_mv():
    gl = mv_gluing()
    assert len(critical_cells(gl, 1)) == 8
    assert len(critical_cells(gl, 2)) == 18
    assert len(critical_cells(gl, 3)) == 34


def test_critical_euler_equals_homology_euler():
    gl = mv_gluing()
    for l in (1, 2, 3):
        crit = critical_cells(gl, l)
        alt_crit = sum((-1) ** (len(s) - 1) for s in crit)
        total = magnitude_homology_total(gl.space, Fraction(l))
        alt_h = sum((-1) ** k * r for k, r in total.betti)
        assert alt_crit == alt_h


def test_matching_acyclic_and_bounded_mv():
    gl = mv_gluing()
    for l in (1, 2, 3):
        cells = lightlike_simplices(gl.space, l)
        m = projecting_matching(gl, l)
        assert verify_acyclic(cells, m)
        assert verify_bounded(cells, m)


def test_identity_twist_is_trivial():
    gl = sycamore_gluing()
    tw = SycamoreTwist(gl.g, gl.h, gl.k_in_g, gl.k_in_h, (0, 1))
    assert tw.x.space.dist == tw.y.space.dist
    rep = verify_sycamore(tw, 1)
    assert rep
    assert rep.rows == (
        (Fraction(0), 0, 10, 10, True),
        (Fraction(1), 1, 30, 30, True),
    )


def test_swap_twist_on_gluing_fixture():
    gl = sycamore_gluing()
    tw = SycamoreTwist(gl.g, gl.h, gl.k_in_g, gl.k_in_h, (1, 0))
    rep = verify_sycamore(tw, 2)
    assert rep
    assert rep.rows == (
        (Fraction(0), 0, 10, 10, True),
        (Fraction(1), 1, 30, 30, True),
        (Fraction(2), 1, 50, 50, True),
        (Fraction(2), 2, 126, 126, True),
    )


def test_tau_worked_examples():
    gl = sycamore_gluing()
    tw = SycamoreTwist(gl.g, gl.h, gl.k_in_g, gl.k_in_h, (1, 0))
    labels = tw.x.space.labels
    assert labels == ("p", "q", "g3", "g4", "g5", "g6", "h3", "h4", "h5", "h6")
    # strictly one-sided in g: fixed pointwise
    assert sycamore_tau(tw, (2, 0, 4)) == (2, 0, 4)
    # h-side piece through a common point: the common point swaps
    assert classify_sequence(tw.x, (6, 1, 9)).kind == "flat"
    assert sycamore_tau(tw, (6, 1, 9)) == (6, 0, 9)
    # twistable with a neutral cut and no common point: fixed
    cls = classify_sequence(tw.x, (2, 6, 9))
    assert cls.kind == "twistable" and cls.cuts == (1,)
    assert sycamore_tau(tw, (2, 6, 9)) == (2, 6, 9)
    with pytest.raises(ValueError):
        sycamore_tau(tw, (2, 9))


def test_all_biased_gluing_twist():
    g = space("pqu", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    h = space(("p", "q", "h3"), [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    tw = SycamoreTwist(g, h, (0, 1), (0, 1), (1, 0))
    assert sorted(tw.x.biased) == [3] and tw.x.gates == {3: 0}
    assert tw.x.neutral == frozenset()
    # the twist moves the pendant point to the other side of the edge
    assert tw.x.space.dist[0][3] == 1 and tw.y.space.dist[0][3] == 2
    rep = verify_sycamore(tw, 2)
    assert rep
    assert rep.rows == (
        (Fraction(0), 0, 4, 4, True),
        (Fraction(1), 1, 8, 8, True),
        (Fraction(2), 1, 2, 2, True),
        (Fraction(2), 2, 16, 16, True),
    )
    side_g = tw.x.interior_g | tw.x.kset
    side_h = tw.x.side_h()
    for l in (1, 2):
        for s in critical_cells(tw.x, l):
            one_sided = all(p in side_g for p in s) or all(p in side_h for p in s)
            assert one_sided


def test_reverse_twist_round_trip():
    g = space("pqr", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    h = space(
        ("p", "q", "r", "w"),
        [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
    )
    tw = SycamoreTwist(g, h, (0, 1, 2), (0, 1, 2), (1, 2, 0))
    assert sorted(tw.x.neutral) == [3]
    rev = tw.reverse()
    assert rev.alpha == (2, 0, 1)
    assert rev.x == tw.y and rev.y == tw.x
    back = rev.reverse()
    assert back.alpha == tw.alpha and back.k_in_h == tw.k_in_h
    assert verify_sycamore(tw, 1)


DROP_CRITICAL_EDGE = """
def dropped(space, l):
    cells = full(space, l)
    if l == 3:
        # a two-point sequence has no interior point, so it is critical
        cells.remove(next(c for c in cells if len(c) == 2))
    return cells
"""


def test_uncancelled_euler_count_fails_even_under_optimize(monkeypatch):
    scope = {"full": lightlike_simplices}
    exec(DROP_CRITICAL_EDGE, scope)
    monkeypatch.setattr(morse, "lightlike_simplices", scope["dropped"])
    rep = verify_sycamore(twist_from_doc(load_fixture("sycamore_twist")), 3)
    assert not rep
    assert rep.detail.startswith(
        "length 3 in x: matched pairs fail to cancel in the Euler count"
    )
    script = (
        "from magtop import morse\n"
        "from magtop.docs import load_fixture, twist_from_doc\n"
        "full = morse.lightlike_simplices\n"
        + DROP_CRITICAL_EDGE
        + "morse.lightlike_simplices = dropped\n"
        "tw = twist_from_doc(load_fixture('sycamore_twist'))\n"
        "rep = morse.verify_sycamore(tw, 3)\n"
        "print(rep.ok, rep.detail)\n"
    )
    src = os.path.dirname(os.path.dirname(magtop.__file__))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("False length 3 in x: matched pairs fail")


DROP_MATCHED_PAIR = """
def dropped(gspec, l):
    return morse.Matching(list(full(gspec, l))[1:])
"""


def test_critical_cell_mismatch_raises_even_under_optimize(monkeypatch):
    scope = {"full": projecting_matching, "morse": morse}
    exec(DROP_MATCHED_PAIR, scope)
    monkeypatch.setattr(morse, "projecting_matching", scope["dropped"])
    with pytest.raises(CriticalCellsMismatch, match="at length 2"):
        critical_cells(mv_gluing(), 2)
    script = (
        "from magtop import morse\n"
        "from magtop.docs import gluing_from_doc, load_fixture\n"
        "full = morse.projecting_matching\n"
        + DROP_MATCHED_PAIR
        + "morse.projecting_matching = dropped\n"
        "gl = gluing_from_doc(load_fixture('mv_triangles'))\n"
        "try:\n"
        "    print(len(morse.critical_cells(gl, 2)))\n"
        "except morse.CriticalCellsMismatch as exc:\n"
        "    print('raised', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(magtop.__file__))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("raised critical cells differ")


REPEAT_GATE = """
def tampered(gspec, seq):
    face, coface = full(gspec, seq)
    return face, coface + (coface[-1],)
"""

STRETCH_GATE = """
def tampered(gspec, seq):
    face, coface = full(gspec, seq)
    return face, coface + (coface[-2],)
"""


@pytest.mark.parametrize(
    "tamper, message",
    [
        (REPEAT_GATE, "gate move produced a repeated point"),
        (STRETCH_GATE, "gate move changed length"),
    ],
    ids=["repeat", "stretch"],
)
def test_gate_move_checks_raise_even_under_optimize(monkeypatch, tamper, message):
    scope = {"full": morse._partner_sequence}
    exec(tamper, scope)
    monkeypatch.setattr(morse, "_partner_sequence", scope["tampered"])
    with pytest.raises(NotAMatching, match=message):
        projecting_matching(mv_gluing(), 2)
    script = (
        "from magtop import morse\n"
        "from magtop.docs import gluing_from_doc, load_fixture\n"
        "full = morse._partner_sequence\n"
        + tamper
        + "morse._partner_sequence = tampered\n"
        "gl = gluing_from_doc(load_fixture('mv_triangles'))\n"
        "try:\n"
        "    print(len(morse.projecting_matching(gl, 2)))\n"
        "except morse.NotAMatching as exc:\n"
        "    print('raised', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(magtop.__file__))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "raised %s\n" % message


def test_twist_rejections():
    g = space("pqu", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    h = space(("p", "q", "h3"), [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    with pytest.raises(NotASycamoreTwist, match="not a permutation"):
        SycamoreTwist(g, h, (0, 1), (0, 1), (0, 0))
    gp = space("abc", [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    hp = space(("a2", "b2", "c2"), [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    with pytest.raises(NotASycamoreTwist, match="not a self-isometry"):
        SycamoreTwist(gp, hp, (0, 1, 2), (0, 1, 2), (2, 1, 0))
    gn = space("pmq", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    hn = space("pqw", [[0, 2, 1], [2, 0, 2], [1, 2, 0]])
    with pytest.raises(NotASycamoreTwist, match="neutral point w"):
        SycamoreTwist(gn, hn, (0, 2), (0, 1), (1, 0))

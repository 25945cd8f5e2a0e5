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
from magtop.metric import MetricSpace, from_weighted_graph, glue, restriction
from magtop.morse import (
    CriticalCellsMismatch,
    Matching,
    NotAMatching,
    NotASycamoreTwist,
    SycamoreTwist,
    classify_sequence,
    critical_cells,
    lightlike_simplices,
    modified_hasse,
    projecting_matching,
    sycamore_tau,
    verify_acyclic,
    verify_bounded,
    verify_sycamore,
)
from magtop.causal import achievable_lengths, lightlike_sequences, seq_time_stamps
from lengths import seq_length


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
    assert m.pairs == Matching(reversed(list(m))).pairs


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
        modified_hasse([("a",), ("b",)], m)


def test_acyclic_segment():
    cells = [("a",), ("b",), ("a", "b")]
    rep = verify_acyclic(modified_hasse(cells, Matching([(("a",), ("a", "b"))])))
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
    hasse = modified_hasse(cells, m)
    rep = verify_acyclic(hasse)
    assert not rep
    assert len(rep.cycle) == 6 and len(set(rep.cycle)) == 6
    # each step is a matched up-arrow or an unmatched down-arrow
    for s, t in zip(rep.cycle, rep.cycle[1:] + rep.cycle[:1]):
        if len(t) == len(s) + 1:
            assert (s, t) in m.pairs
        else:
            assert len(t) == len(s) - 1 and set(t) < set(s)
            assert (t, s) not in m.pairs
    bounded = verify_bounded(hasse)
    assert not bounded and bounded.bounds == ()


def test_cyclic_matching_fails_both_verdicts_from_one_pass():
    # a square's boundary matched around the cycle, with a pendant edge
    # matched off it; the cycle witness is pinned
    cells = [("a",), ("b",), ("c",), ("d",), ("e",), ("a", "b"), ("b", "c"),
             ("c", "d"), ("a", "d"), ("d", "e")]
    m = Matching([(("a",), ("a", "b")), (("b",), ("b", "c")), (("c",), ("c", "d")),
                  (("d",), ("a", "d")), (("e",), ("d", "e"))])
    hasse = modified_hasse(cells, m)
    assert hasse.cells == cells and len(hasse.order) < len(cells)
    rep = verify_acyclic(hasse)
    bounded = verify_bounded(hasse)
    assert not rep and not bounded and bounded.bounds == ()
    assert rep.cycle == (("b",), ("b", "c"), ("c",), ("c", "d"), ("d",),
                         ("a", "d"), ("a",), ("a", "b"))


def test_bounded_counts_on_path_complex():
    cells = [("a",), ("b",), ("c",), ("a", "b"), ("b", "c")]
    m = Matching([(("a",), ("a", "b")), (("b",), ("b", "c"))])
    hasse = modified_hasse(cells, m)
    rep = verify_bounded(hasse)
    assert rep.ok
    bounds = dict(zip(hasse.cells, rep.bounds))
    assert bounds[("a", "b")] == 2
    assert bounds[("b", "c")] == 1
    assert all(bounds[v] == 1 for v in [("a",), ("b",), ("c",)])


def test_bounded_empty_matching():
    cells = [("a",), ("b",), ("a", "b")]
    rep = verify_bounded(modified_hasse(cells, Matching([])))
    assert rep.ok and rep.bounds == (1, 1, 1)


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
            hasse = modified_hasse(cells, m)
            rep = verify_bounded(hasse)
            assert rep.ok
            assert dict(zip(hasse.cells, rep.bounds)) == dfs_bounds(cells, m)


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
        hasse = modified_hasse(cells, m)
        rep = verify_acyclic(hasse)
        bounded = verify_bounded(hasse)
        assert rep.ok == (not cyclic_here) == bounded.ok
        if cyclic_here:
            cyclic += 1
            cycle = rep.cycle
            assert len(cycle) >= 2 and len(set(cycle)) == len(cycle)
            assert all(
                (s, t) in arrows for s, t in zip(cycle, cycle[1:] + cycle[:1])
            )
            assert bounded.bounds == ()
        else:
            acyclic += 1
            assert rep.cycle == ()
            assert dict(zip(hasse.cells, bounded.bounds)) == dfs_bounds(cells, m)
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
            hasse = modified_hasse(cells, m)
            assert arrows == {
                (cells[s], cells[t]) for s, outs in enumerate(hasse.succ) for t in outs
            }
            shasse = modified_hasse(stamped, sm)
            assert {(stamp[a], stamp[b]) for a, b in arrows} == {
                (stamped[s], stamped[t])
                for s, outs in enumerate(shasse.succ)
                for t in outs
            }
            assert verify_acyclic(hasse).ok == verify_acyclic(shasse).ok
            rep, srep = verify_bounded(hasse), verify_bounded(shasse)
            assert rep.ok == srep.ok
            assert {stamp[c]: n for c, n in zip(hasse.cells, rep.bounds)} == dict(
                zip(shasse.cells, srep.bounds)
            )
            crit = sorted(stamp[c] for c in critical_cells(gl, l))
            sticky_free = sorted(
                stamp[c] for c in cells if classify_sequence(gl, c) is not None
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


def class_set(gspec, c):
    """The glued points of class c: 0 interior g, 1 in K, 2 biased, 3 neutral."""
    return frozenset(p for p, k in enumerate(gspec.classes) if k == c)


def brute_sticky(gspec, seq):
    """Quadratic scan for a crossing run between a strict-g point and a
    biased point with only common points between them."""
    interior_g, kset, biased = (class_set(gspec, c) for c in (0, 1, 2))
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if not all(seq[t] in kset for t in range(i + 1, j)):
                continue
            a, b = seq[i], seq[j]
            if a in interior_g and b in biased:
                return True
            if a in biased and b in interior_g:
                return True
    return False


def test_classification_matches_brute_force():
    gl = sycamore_gluing()
    side_g = class_set(gl, 0) | class_set(gl, 1) | class_set(gl, 3)
    side_h = class_set(gl, 1) | class_set(gl, 2) | class_set(gl, 3)
    counts = {"sticky": 0, "flat": 0, "twistable": 0}
    for k in (1, 2, 3):
        for seq in product(range(gl.space.n), repeat=k):
            if any(seq[t] == seq[t + 1] for t in range(k - 1)):
                continue
            pieces = classify_sequence(gl, seq)
            assert (pieces is None) == brute_sticky(gl, seq)
            if pieces is None:
                counts["sticky"] += 1
                continue
            counts["flat" if len(pieces) == 1 else "twistable"] += 1
            assert pieces[0][0] == 0 and pieces[-1][1] == k - 1
            for (_, e), (s2, _) in zip(pieces, pieces[1:]):
                # pieces meet at a cut, a neutral point
                assert e == s2 and seq[e] in class_set(gl, 3)
            for s, e in pieces:
                piece = seq[s : e + 1]
                one_sided = all(p in side_g for p in piece) or all(
                    p in side_h for p in piece
                )
                assert one_sided
    assert counts == {"sticky": 148, "flat": 738, "twistable": 24}


def oracle_first_sticky(gspec, seq):
    """The two-loop scan over frozensets: from each strict-g or biased
    point, skip K to the next point and test the pair."""
    interior_g, kset, biased = (class_set(gspec, c) for c in (0, 1, 2))
    k = len(seq)
    for i in range(k - 1):
        xi = seq[i]
        if xi not in interior_g and xi not in biased:
            continue
        j = i + 1
        while j < k and seq[j] in kset:
            j += 1
        if j == k:
            continue
        xj = seq[j]
        if xi in interior_g and xj in biased:
            return (i, j)
        if xi in biased and xj in interior_g:
            return (i, j)
    return None


def oracle_classify(gspec, seq):
    """Maximal one-sided prefixes over the frozenset sides, each cut at its
    last point outside K (g side) or in interior h (h side)."""
    if oracle_first_sticky(gspec, seq) is not None:
        return None
    kset, biased, neutral = (class_set(gspec, c) for c in (1, 2, 3))
    side_g = class_set(gspec, 0) | kset | neutral
    side_h = kset | biased | neutral
    interior_h = biased | neutral
    k = len(seq)
    pieces = []
    start = 0
    while True:
        ok_g = ok_h = True
        end = start
        for m in range(start, k):
            in_g = ok_g and seq[m] in side_g
            in_h = ok_h and seq[m] in side_h
            if not in_g and not in_h:
                break
            ok_g, ok_h = in_g, in_h
            end = m
        if end == k - 1:
            pieces.append((start, end))
            return tuple(pieces)
        if ok_g:
            j = max(m for m in range(start, end + 1) if seq[m] not in kset)
        else:
            j = max(m for m in range(start, end + 1) if seq[m] in interior_h)
        pieces.append((start, j))
        start = j


def random_gluing(seed):
    """A seeded random graph metric with weights 1 and 2, restricted to two
    pieces that share a random common part K."""
    rng = random.Random(seed)
    n = rng.randint(5, 7)
    labels = ["v%d" % i for i in range(n)]
    edges = [(labels[i], labels[rng.randrange(i)], rng.randint(1, 2)) for i in range(1, n)]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(n), 2)
        edges.append((labels[a], labels[b], rng.randint(1, 2)))
    whole = from_weighted_graph(labels, edges)
    common = rng.sample(range(n), rng.randint(1, 3))
    rest = [i for i in range(n) if i not in common]
    rng.shuffle(rest)
    cut = rng.randint(1, len(rest) - 1)
    in_g = sorted(common + rest[:cut])
    in_h = sorted(common + rest[cut:])
    return glue(
        restriction(whole, in_g),
        restriction(whole, in_h),
        [in_g.index(i) for i in common],
        [in_h.index(i) for i in common],
    )


def test_class_tuple_matches_frozenset_oracles():
    tw = twist_from_doc(load_fixture("sycamore_twist"))
    gluings = [mv_gluing(), sycamore_gluing(), tw.x, tw.y]
    gluings += [random_gluing(seed) for seed in range(24)]
    seen = {"sticky": 0, "flat": 0, "twistable": 0}
    classes = set()
    for gl in gluings:
        classes.update(gl.classes)
        sp = gl.space
        for l in achievable_lengths(sp, 4):
            for a, b in product(range(sp.n), repeat=2):
                for seq in lightlike_sequences(sp, a, b, l):
                    assert morse._first_sticky(gl, seq) == oracle_first_sticky(gl, seq)
                    pieces = classify_sequence(gl, seq)
                    assert pieces == oracle_classify(gl, seq)
                    if pieces is None:
                        seen["sticky"] += 1
                    else:
                        seen["flat" if len(pieces) == 1 else "twistable"] += 1
    assert classes == {0, 1, 2, 3}
    assert all(v >= 100 for v in seen.values()), seen


def test_gate_insert_pair():
    gl = mv_gluing()
    # labels (p, q, u, v); v is biased with gate p
    assert gl.space.labels == ("p", "q", "u", "v")
    assert sorted(class_set(gl, 2)) == [3] and gl.gates == {3: 0}
    assert classify_sequence(gl, (2, 3)) is None
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
        hasse = modified_hasse(lightlike_simplices(gl.space, l), projecting_matching(gl, l))
        assert verify_acyclic(hasse)
        assert verify_bounded(hasse)


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
    # only common and neutral points, so on both sides: fixed pointwise
    assert sycamore_tau(tw, (0, 6, 1)) == (0, 6, 1)
    # h-side piece through a common point: the common point swaps
    assert classify_sequence(tw.x, (6, 1, 9)) == ((0, 2),)
    assert sycamore_tau(tw, (6, 1, 9)) == (6, 0, 9)
    # twistable with a neutral cut and no common point: fixed
    assert classify_sequence(tw.x, (2, 6, 9)) == ((0, 1), (1, 2))
    assert sycamore_tau(tw, (2, 6, 9)) == (2, 6, 9)
    with pytest.raises(ValueError):
        sycamore_tau(tw, (2, 9))


def test_all_biased_gluing_twist():
    g = space("pqu", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    h = space(("p", "q", "h3"), [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    tw = SycamoreTwist(g, h, (0, 1), (0, 1), (1, 0))
    assert sorted(class_set(tw.x, 2)) == [3] and tw.x.gates == {3: 0}
    assert class_set(tw.x, 3) == frozenset()
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
    side_g = class_set(tw.x, 0) | class_set(tw.x, 1)
    side_h = class_set(tw.x, 1) | class_set(tw.x, 2)
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
    assert sorted(class_set(tw.x, 3)) == [3]
    rev = tw.reverse()
    assert rev.alpha == (2, 0, 1)
    assert rev.x == tw.y and rev.y == tw.x
    back = rev.reverse()
    assert back.alpha == tw.alpha and back.x.k_in_h == tw.x.k_in_h
    assert verify_sycamore(tw, 1)


def test_stretched_twist_images_fail(monkeypatch):
    # revisiting the last-but-one point lengthens every image of a step
    full = morse.sycamore_tau

    def stretched(twist, seq):
        img = full(twist, seq)
        return img + img[-2:-1]

    monkeypatch.setattr(morse, "sycamore_tau", stretched)
    rep = verify_sycamore(twist_from_doc(load_fixture("sycamore_twist")), 1)
    assert not rep
    assert rep.detail.startswith("length 1 dim 1: ")
    assert "twist images change length" in rep.detail


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


def test_problem_order_survives_per_side_checks(monkeypatch):
    # a duplicated first cell breaks every Euler count, the second and
    # third Hasse passes (y at length 0, x at length 1) report a cycle,
    # 3-point cells get stretched images, and side y loses a critical cell
    # at length 1, so only its Euler count there is off by two; the
    # problems are pinned in the order the single-loop verifier gave them
    tw = twist_from_doc(load_fixture("sycamore_twist"))
    full = lightlike_simplices
    monkeypatch.setattr(
        morse, "lightlike_simplices", lambda sp, l: full(sp, l) + full(sp, l)[:1]
    )
    passes = []

    def acyclic(hasse):
        passes.append(len(hasse.cells))
        return morse.AcyclicReport(len(passes) not in (2, 3))

    monkeypatch.setattr(morse, "verify_acyclic", acyclic)
    tau = morse.sycamore_tau
    monkeypatch.setattr(
        morse, "sycamore_tau",
        lambda twist, seq: tau(twist, seq) + tau(twist, seq)[-2:-1] if len(seq) == 3
        else tau(twist, seq),
    )
    crit = critical_cells
    monkeypatch.setattr(
        morse, "critical_cells",
        lambda gspec, l: crit(gspec, l)[:-1] if gspec is tw.y and l == 1
        else crit(gspec, l),
    )
    rep = verify_sycamore(tw, 3)
    assert not rep
    assert passes == [10, 10, 30, 30, 192, 188, 684, 676]
    euler = "matched pairs fail to cancel in the Euler count"
    assert rep.detail.split("; ") == [
        "length 0 in x: %s, 11 over all cells vs 10 over critical ones" % euler,
        "length 0 in y: %s, 11 over all cells vs 10 over critical ones" % euler,
        "length 0 in y: cyclic matching",
        "length 1 dim 1: 30 cells vs 29",
        "length 1 in x: %s, -31 over all cells vs -30 over critical ones" % euler,
        "length 1 in x: cyclic matching",
        "length 1 in y: %s, -31 over all cells vs -29 over critical ones" % euler,
        "length 2 dim 2: 126 twist images change length",
        "length 2 dim 2: 126 cells vs 126",
        "length 2 in x: %s, 77 over all cells vs 76 over critical ones" % euler,
        "length 2 in y: %s, 77 over all cells vs 76 over critical ones" % euler,
        "length 3 dim 2: 232 twist images change length",
        "length 3 dim 2: 232 cells vs 232",
        "length 3 in x: %s, -169 over all cells vs -168 over critical ones" % euler,
        "length 3 in y: %s, -169 over all cells vs -168 over critical ones" % euler,
    ]


def test_each_matched_pair_is_derived_once(monkeypatch):
    # the involution check ties a pair's two halves, so the second half
    # is skipped: two partner computations per pair, not four
    calls = []
    full = morse._partner_sequence

    def counted(gspec, seq, sticky):
        calls.append(seq)
        return full(gspec, seq, sticky)

    monkeypatch.setattr(morse, "_partner_sequence", counted)
    tw = twist_from_doc(load_fixture("sycamore_twist"))
    pairs = []
    for gspec in (tw.x, tw.y):
        for l in achievable_lengths(gspec.space, 4):
            pairs.extend(projecting_matching(gspec, l))
    assert len(pairs) == 540
    assert len(calls) == 2 * len(pairs)
    # one call from each pair's first half, one from its other half
    assert set(calls) == {s for pair in pairs for s in pair}


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
def tampered(gspec, seq, sticky):
    face, coface = full(gspec, seq, sticky)
    return face, coface + (coface[-1],)
"""

STRETCH_GATE = """
def tampered(gspec, seq, sticky):
    face, coface = full(gspec, seq, sticky)
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


def test_involution_check_recomputes_the_partners_sticky_run(monkeypatch):
    # the halves of a pair differ by one point, so hiding the sticky runs of
    # odd-sized sequences leaves the even-sized half without a way back
    full = morse._first_sticky
    monkeypatch.setattr(
        morse, "_first_sticky",
        lambda gspec, seq: full(gspec, seq) if len(seq) % 2 == 0 else None,
    )
    with pytest.raises(NotAMatching, match="gate pairing is not involutive"):
        projecting_matching(mv_gluing(), 2)


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

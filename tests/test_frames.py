"""Tests for frame decomposition and the weighted Hasse realization."""

import itertools
from fractions import Fraction

import pytest

from magtop.causal import InvalidLength, achievable_lengths
from magtop.docs import load_fixture, space_from_doc
from magtop.frames import (
    EmptyComplex,
    FourCutObstruction,
    framed_betti_prediction,
    hasse_graph,
    singular_sequences,
    thin_frames,
)
from magtop.homology import homology, magnitude_chain_complex
from magtop.metric import (
    INFINITE,
    MetricError,
    MetricSpace,
    four_cuts,
    is_smooth,
    open_interval,
    random_metric_space,
    seq_length,
)


def space(labels, rows):
    rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
    return MetricSpace(tuple(labels), rows)


def k3():
    return space("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def k4():
    return space(
        "abcd", [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    )


def c4():
    return space(
        "abcd", [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    )


def weighted_path():
    h = Fraction(1, 2)
    t = Fraction(3, 4)
    return space(
        "abc", [[0, h, h + t], [h, 0, t], [h + t, t, 0]]
    )


def degree_hist(space_, l):
    out = {}
    for f in thin_frames(space_, l):
        out[len(f) - 1] = out.get(len(f) - 1, 0) + 1
    return out


def frame_of(space_, seq):
    """Subsequence of singular points, endpoints always kept: the
    brute-force oracle for the frame enumerators."""
    return tuple(
        x
        for k, x in enumerate(seq)
        if k == 0 or k == len(seq) - 1 or not is_smooth(space_, seq, k)
    )


def test_frame_of_drops_smooth_interior():
    path = space("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert frame_of(path, (0, 1, 2)) == (0, 2)
    assert frame_of(k3(), (0, 1, 2)) == (0, 1, 2)
    assert frame_of(path, (0, 1)) == (0, 1)


def test_frames_are_point_tuples():
    # a frame is a plain point-index tuple, like every other sequence
    x = k3()
    frames = singular_sequences(x, 0, 1, 2) + thin_frames(x, 2)
    assert frames and all(type(f) is tuple and seq_length(x, f) == 2 for f in frames)


def test_singular_sequences_small_cases():
    two = space("ab", [[0, 1], [1, 0]])
    assert singular_sequences(two, 0, 1, 1) == [(0, 1)]
    assert singular_sequences(two, 0, 1, 2) == []
    assert singular_sequences(two, 0, 0, 2) == [(0, 1, 0)]
    assert singular_sequences(k3(), 0, 1, 2) == [(0, 2, 1)]
    assert singular_sequences(two, 0, 0, 0) == [(0,)]
    assert singular_sequences(two, 0, 1, 0) == []


def test_frames_are_idempotent():
    x = k4()
    for a in range(x.n):
        for b in range(x.n):
            for f in singular_sequences(x, a, b, 2):
                assert frame_of(x, f) == f


def brute_sequences(x, lmax):
    """Every sequence of length <= lmax, over all endpoints, by brute force,
    as a map from length to the sorted sequences of that length."""
    count = int(lmax / x.min_positive_distance()) + 1
    out = {}
    for k in range(1, count + 1):
        for seq in itertools.product(range(x.n), repeat=k):
            if all(p != q for p, q in zip(seq, seq[1:])):
                length = seq_length(x, seq)
                if length <= lmax:
                    out.setdefault(length, []).append(seq)
    return {l: sorted(seqs) for l, seqs in out.items()}


def test_frames_match_brute_force_on_random_spaces():
    # integer distances 1 and 2 make smooth points and nonempty intervals
    for den_max in (1, 6):
        for seed in range(5):
            x = random_metric_space(5, seed, den_max)
            m_x = four_cuts(x)[1]
            brute = brute_sequences(x, 3)
            assert sorted(brute) == achievable_lengths(x, 3)
            for l, seqs in brute.items():
                frames = [s for s in seqs if frame_of(x, s) == s]
                thin = [
                    s for s in frames
                    if all(not open_interval(x, p, q).carrier
                           for p, q in zip(s, s[1:]))
                ]
                got = sorted(thin_frames(x, l))
                assert got == thin, (den_max, seed, l)
                if l >= m_x:
                    continue
                for a in range(x.n):
                    for b in range(x.n):
                        want = [s for s in frames if (s[0], s[-1]) == (a, b)]
                        got = singular_sequences(x, a, b, l)
                        assert got == want, (den_max, seed, l, a, b)


def test_prediction_matches_homology_on_fixtures():
    corpus = [
        k3(),
        k4(),
        space_from_doc(load_fixture("p2")),
        space_from_doc(load_fixture("s3")),
        weighted_path(),
    ]
    for x in corpus:
        assert four_cuts(x)[1] is INFINITE
        for l in achievable_lengths(x, 3):
            for a in range(x.n):
                for b in range(x.n):
                    pred = framed_betti_prediction(x, a, b, l)
                    summary = homology(magnitude_chain_complex(x, a, b, l))
                    assert pred == {k: r for k, r in summary.betti if r}


def test_prediction_matches_homology_on_random_spaces():
    for seed in (0, 1, 2):
        x = random_metric_space(4, seed)
        assert four_cuts(x)[1] is INFINITE
        for l in achievable_lengths(x, 2):
            for a in range(x.n):
                for b in range(x.n):
                    pred = framed_betti_prediction(x, a, b, l)
                    summary = homology(magnitude_chain_complex(x, a, b, l))
                    assert pred == {k: r for k, r in summary.betti if r}


def test_thin_frame_counts_on_trees():
    p2 = space_from_doc(load_fixture("p2"))
    s3 = space_from_doc(load_fixture("s3"))
    for tree, edges in ((p2, 2), (s3, 3)):
        assert degree_hist(tree, 0) == {0: tree.n}
        for l in (1, 2, 3):
            assert degree_hist(tree, l) == {l: 2 * edges}


def test_thin_frame_counts_two_point():
    two = space("ab", [[0, 1], [1, 0]])
    assert degree_hist(two, 3) == {3: 2}
    assert degree_hist(two, 0) == {0: 2}


def test_thin_frames_on_weighted_path():
    x = weighted_path()
    assert degree_hist(x, 1) == {2: 2}
    assert degree_hist(x, Fraction(3, 2)) == {2: 2, 3: 2}
    assert degree_hist(x, Fraction(5, 4)) == {}


def test_four_cut_obstruction_on_cycle():
    x = c4()
    assert four_cuts(x)[1] == 3
    with pytest.raises(FourCutObstruction, match="threshold 3"):
        singular_sequences(x, 0, 1, 3)
    with pytest.raises(FourCutObstruction):
        framed_betti_prediction(x, 0, 1, 3)
    # below the threshold the guard stays quiet
    for l in (0, 1, 2):
        for a in range(x.n):
            for b in range(x.n):
                pred = framed_betti_prediction(x, a, b, l)
                summary = homology(magnitude_chain_complex(x, a, b, l))
                assert pred == {k: r for k, r in summary.betti if r}


def test_negative_length_rejected():
    x = k3()
    with pytest.raises(InvalidLength):
        singular_sequences(x, 0, 1, -1)
    with pytest.raises(InvalidLength):
        framed_betti_prediction(x, 0, 1, Fraction(-1, 2))
    with pytest.raises(InvalidLength):
        thin_frames(x, -2)


def test_hasse_triangle_boundary():
    hg = hasse_graph([("a", "b"), ("b", "c"), ("a", "c")])
    assert hg.space.labels == (
        "0hat",
        "a",
        "a|b",
        "a|c",
        "b",
        "b|c",
        "c",
        "1hat",
    )
    assert hg.l == 3 and hg.zero == "0hat" and hg.one == "1hat"
    assert all(w == 1 for _, _, w in hg.edges)
    assert hg.space.dist[hg.space.index("0hat")][hg.space.index("1hat")] == 3


def test_hasse_single_vertex():
    hg = hasse_graph([("a",)])
    assert hg.space.labels == ("0hat", "a", "1hat")
    assert hg.l == 2
    assert hg.edges == (
        ("0hat", "a", Fraction(1)),
        ("a", "1hat", Fraction(1)),
    )


def test_hasse_levels_non_top_maximal_simplices():
    hg = hasse_graph([("b", "c", "d"), ("a", "b")])
    assert hg.l == 4
    heavy = [e for e in hg.edges if e[2] != 1]
    assert heavy == [("a|b", "1hat", Fraction(2))]
    idx = hg.space.index
    assert hg.space.dist[idx("a|b")][idx("1hat")] == 2
    assert hg.space.dist[idx("0hat")][idx("1hat")] == 4


def test_hasse_input_validation():
    with pytest.raises(MetricError, match="repeats"):
        hasse_graph([("a", "a")])
    with pytest.raises(MetricError, match="reserved"):
        hasse_graph([("0hat", "b")])
    with pytest.raises(MetricError, match="reserved"):
        hasse_graph([("a|b",)])
    with pytest.raises(EmptyComplex):
        hasse_graph([])
    with pytest.raises(EmptyComplex):
        hasse_graph([()])


def test_hasse_realizes_reduced_homology():
    # the 6-vertex, 10-triangle RP^2, whose reduced homology is Z/2 in degree 1
    rp2 = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
        (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
    ]
    cases = [
        ([("a", "b"), ("b", "c"), ("a", "c")], ((3, 1),), ()),
        ([("a",)], (), ()),
        ([("a",), ("b",)], ((2, 1),), ()),
        (rp2, (), ((3, (2,)),)),
    ]
    for facets, betti, torsion in cases:
        hg = hasse_graph(facets)
        a = hg.space.index(hg.zero)
        b = hg.space.index(hg.one)
        summary = homology(magnitude_chain_complex(hg.space, a, b, hg.l))
        assert summary.betti == betti
        assert summary.torsion == torsion

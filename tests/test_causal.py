"""Light-like sequence enumeration, causal posets, and relative complexes."""

import importlib
import itertools
from fractions import Fraction

import pytest

from magtop.causal import (
    CausalPoint,
    CausalPoset,
    _stamps,
    achievable_lengths,
    essential_poset,
    inner_pair,
    lightlike_sequences,
    order_complex_pair,
    pair_achievable_lengths,
    seq_time_stamps,
)
from magtop.docs import load_fixture, space_from_doc
from magtop.homology import relative_chain_complex
from magtop.metric import (
    from_distance_matrix,
    from_weighted_graph,
    random_metric_space,
)
from magtop.series import perturbative_inverse
from lengths import min_positive_distance, seq_length
from simplicial import closed_under_faces, complex_of, poset_laws

F = Fraction


def unit_complete(n):
    labels = tuple("p%d" % i for i in range(n))
    return from_distance_matrix(
        labels,
        [[0 if i == j else 1 for j in range(n)] for i in range(n)],
    )


def path_space():
    return from_weighted_graph(
        ("a", "c", "b"), [("a", "c", 1), ("c", "b", 1)]
    )


def naive_lightlike(space, a, b, l):
    """Unpruned enumeration over all short tuples; oracle for the DFS."""
    l = F(l)
    r0 = min_positive_distance(space)
    if r0 is None:
        max_pts = 1
    else:
        max_pts = int(l / r0) + 1
    found = []
    for count in range(1, max_pts + 1):
        for seq in itertools.product(range(space.n), repeat=count):
            if seq[0] != a or seq[-1] != b:
                continue
            if any(seq[i - 1] == seq[i] for i in range(1, count)):
                continue
            if seq_length(space, seq) == l:
                found.append(seq)
    return sorted(found)


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_lightlike_matches_naive_on_k3(l):
    sp = unit_complete(3)
    for a in range(3):
        for b in range(3):
            got = lightlike_sequences(sp, a, b, F(l))
            assert sorted(got) == naive_lightlike(sp, a, b, l)
            assert got == sorted(got)  # enumeration promises sorted order


def test_lightlike_matches_naive_on_fractional_space():
    sp = from_distance_matrix(
        ("a", "b", "c"),
        [
            [0, F(1, 2), 1],
            [F(1, 2), 0, F(3, 4)],
            [1, F(3, 4), 0],
        ],
    )
    cases = [(sp, (F(1, 2), F(5, 4), F(9, 4), F(5, 2)))]
    # seeded random spaces: integer distances 1 and 2 give smooth points,
    # the default denominators give many distinct fractional lengths
    for den_max in (1, 6):
        for seed in range(5):
            rnd = random_metric_space(5, seed, den_max)
            cases.append((rnd, achievable_lengths(rnd, 3)))
    for space, lengths in cases:
        for l in lengths:
            for a in range(space.n):
                for b in range(space.n):
                    got = lightlike_sequences(space, a, b, l)
                    assert got == naive_lightlike(space, a, b, l), (space, a, b, l)


def test_lightlike_edge_cases():
    sp = unit_complete(2)
    assert lightlike_sequences(sp, 0, 0, F(0)) == [(0,)]
    assert lightlike_sequences(sp, 0, 1, F(0)) == []
    assert lightlike_sequences(sp, 0, 1, F(-1)) == []
    assert lightlike_sequences(sp, 0, 1, F(1, 2)) == []


def test_perturbative_inverse_includes_constant():
    sp = unit_complete(2)
    # the constant sequence (0,) alone, and (0, 1, 0) with sign +1
    assert perturbative_inverse(sp, 0, 0, F(2)) == {F(0): 1, F(2): 1}
    # endpoints differ: no zero-length term, (0, 1) with sign -1
    assert perturbative_inverse(sp, 0, 1, F(2)) == {F(1): -1}


def test_achievable_lengths_against_enumeration():
    sp = path_space()
    budget = F(3)
    seen = set()
    for a in range(sp.n):
        for b in range(sp.n):
            pair = set()
            for count in range(1, 5):
                for seq in itertools.product(range(sp.n), repeat=count):
                    if seq[0] != a or seq[-1] != b:
                        continue
                    if any(seq[i - 1] == seq[i] for i in range(1, count)):
                        continue
                    length = seq_length(sp, seq)
                    if length <= budget:
                        pair.add(length)
            assert pair_achievable_lengths(sp, a, b, budget) == sorted(pair)
            seen |= pair
    assert achievable_lengths(sp, budget) == sorted(seen)


def test_negative_budget_has_no_lengths():
    sp = path_space()
    assert achievable_lengths(sp, -1) == []
    assert pair_achievable_lengths(sp, 0, 0, F(-1, 2)) == []
    # budget 0 still admits the one-point sequence
    assert achievable_lengths(sp, 0) == [F(0)]
    assert pair_achievable_lengths(sp, 0, 0, F(0)) == [F(0)]
    assert pair_achievable_lengths(sp, 0, 1, F(0)) == []


def test_time_stamps_are_prefix_sums():
    sp = path_space()
    stamped = seq_time_stamps(sp, (0, 1, 2, 1))
    assert stamped == (
        CausalPoint(F(0), 0),
        CausalPoint(F(1), 1),
        CausalPoint(F(2), 2),
        CausalPoint(F(3), 1),
    )


def test_causal_poset_validates_and_orders():
    sp = path_space()
    poset = essential_poset(sp, 0, 2, F(2))
    assert poset_laws(poset)
    # vertices are (scaled time, point) pairs; the scale is 1 here
    assert poset.points == ((0, 0), (1, 1), (2, 2))
    lo = (0, 0)
    hi = (2, 2)
    assert poset.leq(lo, hi)
    assert not poset.leq(hi, lo)
    # time gap too small for the distance
    assert not poset.leq((0, 0), (1, 2))


def sixths_space():
    # d(a,b) = 1/2, d(b,c) = 1/3, d(a,c) = 5/6: scale 6, scaled 3, 2, 5
    return from_distance_matrix(
        ("a", "b", "c"),
        [[0, F(1, 2), F(5, 6)], [F(1, 2), 0, F(1, 3)], [F(5, 6), F(1, 3), 0]],
    )


def test_essential_poset_vertices_at_scale_six():
    sp = sixths_space()
    assert sp._scaled[0] == 6
    poset = essential_poset(sp, 0, 2, F(5, 6))
    assert poset_laws(poset)
    # times are scaled ints: b sits at 1/2 = 3/6, c at 5/6
    assert poset.points == ((0, 0), (3, 1), (5, 2))
    assert all(type(t) is int for t, _ in poset.points)
    assert CausalPoint(F(1, 2), 1) not in poset.points
    assert repr(poset) == "CausalPoset[(a,0), (b,1/2), (c,5/6)]"
    assert poset.leq((0, 0), (3, 1))
    # a time gap of 2/6 is too small for d(a,b) = 3/6
    assert not poset.leq((0, 0), (2, 1))


def by_size(cells):
    return sorted(cells, key=lambda s: (len(s), s))


def test_inner_pair_vertices_at_scale_six():
    sp = sixths_space()
    # d(a,c) = l = 5/6: the one interior point (b, 1/2), nothing short, and
    # the empty simplex is a cell
    assert inner_pair(sp, 0, 2, F(5, 6)) == ([((3, 1),)], True)
    # l = 3/2 = 9/6: a-b-c-b-c and a-c-b-c, without the ends (0, a), (9, c)
    mid = [(3, 1), (5, 2), (7, 1)]
    poset = essential_poset(sp, 0, 2, F(3, 2))
    assert [p for p in poset.points if p not in ((0, 0), (9, 2))] == mid
    # only the two full-length chains escape the short side
    cells, augmented = inner_pair(sp, 0, 2, F(3, 2))
    assert by_size(cells) == [(mid[1], mid[2]), tuple(mid)]
    assert not augmented


def test_poset_chains_are_ordered_subsets():
    sp = unit_complete(3)
    poset = essential_poset(sp, 0, 1, F(2))
    chains = poset.chains()
    assert len(set(chains)) == len(chains)
    for chain in chains:
        for u, v in zip(chain, chain[1:]):
            assert poset.lt(u, v)


def chains_are_a_complex(poset, chains):
    """Every nonempty face of every chain is a chain, and each chain rises
    in the poset's order."""
    return closed_under_faces(chains) and all(
        poset.lt(u, v) for c in chains for u, v in zip(c, c[1:])
    )


# the seeded random spaces of the scaled-kernel tests, then fixtures
CLOSURE_CASES = ["random-%d-%d" % (den_max, seed) for den_max in (1, 6) for seed in range(5)]
CLOSURE_CASES += ["two_point", "k3", "k4", "c4", "p2", "p3", "s3", "sycamore_g"]


@pytest.mark.parametrize("case", CLOSURE_CASES)
def test_order_chains_are_closed_under_faces(case, monkeypatch):
    # the chains of essential_poset and of the stripped poset inside
    # inner_pair, which hands on only those that are not short
    if case.startswith("random-"):
        _, den_max, seed = case.split("-")
        space = random_metric_space(5, int(seed), int(den_max))
    else:
        space = space_from_doc(load_fixture(case))
    seen = []
    chains_of = CausalPoset.chains

    def recorded(poset):
        chains = chains_of(poset)
        seen.append((poset, chains))
        return chains

    monkeypatch.setattr(CausalPoset, "chains", recorded)
    checked = 0
    for l in achievable_lengths(space, 3):
        for a in range(space.n):
            for b in range(space.n):
                essential_poset(space, a, b, l).chains()
                if l > 0:
                    inner_pair(space, a, b, l)
                for poset, chains in seen:
                    assert len(set(chains)) == len(chains), (a, b, l)
                    assert chains_are_a_complex(poset, chains), (a, b, l)
                    checked += len(chains)
                seen.clear()
    assert checked


def closure(*facets):
    """Every nonempty face of the facets: complex_of wants its input
    closed under faces."""
    return [
        face
        for facet in facets
        for k in range(1, len(facet) + 1)
        for face in itertools.combinations(facet, k)
    ]


def test_simplicial_complex_face_closure():
    tri = complex_of(closure(("a", "b", "c")))
    assert len(tri) == 7
    assert ("a", "c") in tri
    # sorted by size, then lexicographically
    assert complex_of(closure(("a", "b", "c"), ("d", "b"))) == [
        ("a",), ("b",), ("c",), ("d",),
        ("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"),
        ("a", "b", "c"),
    ]
    if __debug__:  # a shape check, skipped under python -O
        with pytest.raises(AssertionError):
            complex_of([("a", "b")])  # vertices missing, not closed


def test_order_complex_pair_zero_length_conventions():
    sp = unit_complete(2)
    # no chain undercuts l = 0, but the short side still holds the empty
    # simplex: the one point is a cell and the empty simplex is not
    same = order_complex_pair(sp, 0, 0, F(0))
    assert same == ([((0, 0),)], False)
    assert relative_chain_complex(same).basis == {0: [((0, 0),)]}
    # no sequence: no cell at all
    apart = order_complex_pair(sp, 0, 1, F(0))
    assert apart == ([], False)
    assert relative_chain_complex(apart).basis == {}


def test_order_complex_relative_part_is_lightlike():
    sp = unit_complete(3)
    l = F(2)
    cells, augmented = order_complex_pair(sp, 0, 1, l)
    stamped = {_stamps(sp, s) for s in lightlike_sequences(sp, 0, 1, l)}
    assert set(cells) == stamped and len(cells) == len(stamped)
    assert not augmented


def test_inner_pair_case_table():
    two = unit_complete(2)
    # distance exceeds l: nothing to see
    assert inner_pair(two, 0, 1, F(1, 2)) == ([], False)
    # distance equals l, no interior essential points: the empty simplex
    # alone, one class in degree -1
    pair = inner_pair(two, 0, 1, F(1))
    assert pair == ([], True)
    assert relative_chain_complex(pair).basis[-1] == [()]
    # distance equals l with a smooth midpoint: the point and the empty
    # simplex
    pth = path_space()
    pair = inner_pair(pth, 0, 2, F(2))
    assert pair == ([((1, 1),)], True)
    assert relative_chain_complex(pair).basis[-1] == [()]
    # distance below l, midpoint present, nothing undercuts l, and the
    # short side holds the empty simplex
    k3 = unit_complete(3)
    pair = inner_pair(k3, 0, 1, F(2))
    assert pair == ([((1, 2),)], False)
    assert -1 not in relative_chain_complex(pair).basis
    with pytest.raises(ValueError):
        inner_pair(two, 0, 1, F(0))


def test_inner_pair_short_side():
    # l = 3 between adjacent points of K3: the causal point (c, 1) admits
    # the shortcut a-c-b of length 2 below 3, so its chain is no cell
    k3 = unit_complete(3)
    assert (1, 2) in essential_poset(k3, 0, 1, F(3)).points
    cells, augmented = inner_pair(k3, 0, 1, F(3))
    assert ((1, 2),) not in cells
    assert cells and not augmented


def test_inner_pair_geodesic_side_has_no_short_chain(monkeypatch):
    # at d(a, b) = l a short chain would be an internal fault: the short
    # side is void there
    causal = importlib.import_module("magtop.causal")
    monkeypatch.setattr(causal, "scaled_length", lambda *args: -1)
    assert inner_pair(unit_complete(3), 0, 1, F(2)) == ([], False)
    if __debug__:  # a plain assert, skipped under python -O
        with pytest.raises(AssertionError, match="a chain undercuts l"):
            inner_pair(path_space(), 0, 2, F(2))


def test_constant_poset_chain_has_no_repeats():
    sp = unit_complete(2)
    poset = CausalPoset(sp, [(0, 0)])
    assert poset.chains() == [((0, 0),)]

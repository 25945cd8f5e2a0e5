"""Light-like sequence enumeration, causal posets, and relative complexes."""

import itertools
from fractions import Fraction

import pytest

from magtop.causal import (
    CausalPoint,
    CausalPoset,
    SimplicialComplex,
    SimplicialPair,
    _stamps,
    achievable_lengths,
    essential_poset,
    inner_pair,
    lightlike_sequences,
    order_complex_pair,
    pair_achievable_lengths,
    seq_time_stamps,
)
from magtop.metric import (
    from_distance_matrix,
    from_weighted_graph,
    random_metric_space,
    seq_length,
)
from magtop.series import perturbative_inverse

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
    r0 = space.min_positive_distance()
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
    loop = perturbative_inverse(sp, 0, 0, F(2))
    # the constant sequence (0,) alone, and (0, 1, 0) with sign +1
    assert loop.terms == {F(0): 1, F(2): 1}
    assert loop.truncation == 2
    # endpoints differ: no zero-length term, (0, 1) with sign -1
    assert perturbative_inverse(sp, 0, 1, F(2)).terms == {F(1): -1}


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
    assert poset.validate()
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
    assert poset.validate()
    # times are scaled ints: b sits at 1/2 = 3/6, c at 5/6
    assert poset.points == ((0, 0), (3, 1), (5, 2))
    assert all(type(t) is int for t, _ in poset.points)
    assert CausalPoint(F(1, 2), 1) not in poset.points
    assert repr(poset) == "CausalPoset[(a,0), (b,1/2), (c,5/6)]"
    assert poset.leq((0, 0), (3, 1))
    # a time gap of 2/6 is too small for d(a,b) = 3/6
    assert not poset.leq((0, 0), (2, 1))


def test_inner_pair_vertices_at_scale_six():
    sp = sixths_space()
    # d(a,c) = l = 5/6: the one interior point (b, 1/2), nothing short
    pair = inner_pair(sp, 0, 2, F(5, 6))
    assert (pair.total.state, pair.sub.state) == ("nonempty", "void")
    assert pair.total.simplices() == [((3, 1),)]
    # l = 3/2 = 9/6: a-b-c-b-c and a-c-b-c, without the ends (0, a), (9, c)
    pair = inner_pair(sp, 0, 2, F(3, 2))
    mid = [(3, 1), (5, 2), (7, 1)]
    assert pair.total.simplices() == [
        (mid[0],), (mid[1],), (mid[2],),
        (mid[0], mid[1]), (mid[0], mid[2]), (mid[1], mid[2]),
        tuple(mid),
    ]
    # only the two full-length chains escape the short side
    assert pair.relative_simplices() == [(mid[1], mid[2]), tuple(mid)]


def test_poset_chains_are_ordered_subsets():
    sp = unit_complete(3)
    poset = essential_poset(sp, 0, 1, F(2))
    chains = poset.chains()
    assert len(set(chains)) == len(chains)
    for chain in chains:
        for u, v in zip(chain, chain[1:]):
            assert poset.lt(u, v)


def test_simplicial_complex_tri_state():
    void = SimplicialComplex.void()
    empty = SimplicialComplex.of([])
    one = SimplicialComplex.of([("x",)])
    assert void.state == "void"
    assert empty.state == "empty"
    assert one.state == "nonempty"
    assert void != empty
    assert void <= empty <= one
    assert not (one <= empty)
    assert ("x",) in one
    assert len(one) == 1


def closure(*facets):
    """Every nonempty face of the facets: SimplicialComplex.of wants its
    input closed under faces."""
    return [
        face
        for facet in facets
        for k in range(1, len(facet) + 1)
        for face in itertools.combinations(facet, k)
    ]


def test_simplicial_complex_face_closure():
    tri = SimplicialComplex.of(closure(("a", "b", "c")))
    assert len(tri) == 7
    assert ("a", "c") in tri
    with pytest.raises(AssertionError):
        SimplicialComplex.of([("a", "b")])  # vertices missing, not closed


def test_simplicial_pair_relative_simplices():
    total = SimplicialComplex.of(closure(("a", "b")))
    sub = SimplicialComplex.of([("a",)])
    pair = SimplicialPair(total, sub)
    assert pair.relative_simplices() == [("b",), ("a", "b")]
    with pytest.raises(AssertionError):
        SimplicialPair(sub, total)
    # a void sub leaves every simplex, sorted by size then lexicographically
    big = SimplicialComplex.of(closure(("a", "b", "c"), ("b", "d")))
    everything = SimplicialPair(big, SimplicialComplex.void())
    assert everything.relative_simplices() == [
        ("a",), ("b",), ("c",), ("d",),
        ("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"),
        ("a", "b", "c"),
    ]
    assert everything.relative_simplices() == big.simplices()
    # a sub equal to the total leaves nothing, and so does a void total
    assert SimplicialPair(big, big).relative_simplices() == []
    void = SimplicialComplex.void()
    assert SimplicialPair(void, void).relative_simplices() == []


def test_order_complex_pair_zero_length_conventions():
    sp = unit_complete(2)
    same = order_complex_pair(sp, 0, 0, F(0))
    assert same.total.state == "nonempty"
    assert same.sub.state == "void"
    apart = order_complex_pair(sp, 0, 1, F(0))
    assert apart.total.state == "void"
    assert apart.sub.state == "void"


def test_order_complex_relative_part_is_lightlike():
    sp = unit_complete(3)
    l = F(2)
    pair = order_complex_pair(sp, 0, 1, l)
    rel = set(pair.relative_simplices())
    stamped = {_stamps(sp, s) for s in lightlike_sequences(sp, 0, 1, l)}
    assert rel == stamped


def test_inner_pair_case_table():
    two = unit_complete(2)
    # distance exceeds l: nothing to see
    pair = inner_pair(two, 0, 1, F(1, 2))
    assert (pair.total.state, pair.sub.state) == ("void", "void")
    # distance equals l, no interior essential points
    pair = inner_pair(two, 0, 1, F(1))
    assert (pair.total.state, pair.sub.state) == ("empty", "void")
    # distance equals l with a smooth midpoint
    pth = path_space()
    pair = inner_pair(pth, 0, 2, F(2))
    assert (pair.total.state, pair.sub.state) == ("nonempty", "void")
    # distance below l, midpoint present, nothing undercuts l
    k3 = unit_complete(3)
    pair = inner_pair(k3, 0, 1, F(2))
    assert (pair.total.state, pair.sub.state) == ("nonempty", "empty")
    with pytest.raises(ValueError):
        inner_pair(two, 0, 1, F(0))


def test_inner_pair_short_side():
    # l = 3 between adjacent points of K3: the single causal point (c, 1)
    # admits the shortcut a-c-b of length 2 below 3
    k3 = unit_complete(3)
    pair = inner_pair(k3, 0, 1, F(3))
    assert pair.sub.state == "nonempty"
    short = set(pair.sub.simplices())
    assert ((1, 2),) in short


def test_constant_poset_chain_has_no_repeats():
    sp = unit_complete(2)
    poset = CausalPoset(sp, [(0, 0)])
    assert poset.chains() == [((0, 0),)]

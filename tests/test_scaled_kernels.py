"""The integer kernels against their Fraction originals.

Each space scales its distances once by their least common denominator and
the kernels compare integers.  The Fraction versions below are the kernels
as they were before that change; they stay here as oracles and are
compared exactly, order included, on seeded random spaces.  The relative
order complexes among them take Fraction-timed CausalPoints as vertices,
where the program takes (scaled integer time, point) pairs.
"""

import dataclasses
import importlib
import math
import pickle
import random
from fractions import Fraction

import pytest

from magtop.causal import (
    CausalPoint,
    InvalidLength,
    SimplicialComplex,
    SimplicialPair,
    _chain_pair,
    achievable_lengths,
    inner_pair,
    lightlike_sequences,
    order_chains,
    order_complex_pair,
    pair_achievable_lengths,
    seq_time_stamps,
)
from magtop.frames import FourCutObstruction, singular_sequences, thin_frames
from magtop.homology import verify_chain_iso, verify_suspension_shift
from magtop.metric import (
    INFINITE,
    InternalFault,
    MetricSpace,
    TriangleViolation,
    four_cuts,
    from_distance_matrix,
    from_weighted_graph,
    open_interval,
    random_metric_space,
    seq_length,
)

F = Fraction


# -- Fraction oracles -----------------------------------------------------------

def walks_fraction(space, a, l, b=None, successors=None):
    l = F(l)
    d = space.dist
    n = space.n
    if successors is None:
        others = [[y for y in range(n) if y != x] for x in range(n)]

        def successors(seq):
            return others[seq[-1]]

    to_end = [F(0) if b is None else d[y][b] for y in range(n)]
    out = []
    seq = [a]

    def extend(x, rem):
        if rem == 0:
            out.append(tuple(seq))
            return
        for y in successors(seq):
            step = d[x][y]
            if step > rem or to_end[y] > rem - step:
                continue
            seq.append(y)
            extend(y, rem - step)
            seq.pop()

    if to_end[a] <= l:
        extend(a, l)
    return out


def frame_steps_fraction(space, steps):
    d = space.dist

    def successors(seq):
        x = seq[-1]
        if len(seq) == 1:
            return steps[x]
        w = seq[-2]
        return [y for y in steps[x] if d[w][x] + d[x][y] != d[w][y]]

    return successors


def reachable_lengths_fraction(space, start, budget):
    if budget < 0:
        return {}
    d = space.dist
    seen = {start: {F(0)}}
    frontier = [(start, F(0))]
    while frontier:
        x, used = frontier.pop()
        for y in range(space.n):
            if y == x:
                continue
            nl = used + d[x][y]
            if nl > budget:
                continue
            bucket = seen.setdefault(y, set())
            if nl not in bucket:
                bucket.add(nl)
                frontier.append((y, nl))
    return seen


def achievable_lengths_fraction(space, budget):
    out = set()
    for start in range(space.n):
        for bucket in reachable_lengths_fraction(space, start, F(budget)).values():
            out |= bucket
    return sorted(out)


def pair_achievable_lengths_fraction(space, a, b, budget):
    return sorted(reachable_lengths_fraction(space, a, F(budget)).get(b, set()))


def seq_time_stamps_fraction(space, seq):
    t = F(0)
    chain = [CausalPoint(t, seq[0])]
    for i in range(1, len(seq)):
        t += space.dist[seq[i - 1]][seq[i]]
        chain.append(CausalPoint(t, seq[i]))
    return tuple(chain)


def seq_length_fraction(space, seq):
    return sum((space.dist[x][y] for x, y in zip(seq, seq[1:])), F(0))


def causal_lt_fraction(space):
    d = space.dist
    return lambda u, v: u != v and d[u.point][v.point] <= v.time - u.time


def order_complex_pair_fraction(space, a, b, l):
    l = F(l)
    stamped = {
        seq_time_stamps_fraction(space, s) for s in walks_fraction(space, a, l, b)
    }
    points = sorted(set().union(*stamped))
    if not points:
        return SimplicialPair(SimplicialComplex.void(), SimplicialComplex.void())
    pair = _chain_pair(
        order_chains(points, causal_lt_fraction(space)),
        lambda c: seq_length_fraction(space, [p for _, p in c]) < l,
        l == 0,
    )
    if pair.total._sims - pair.sub._sims != stamped:
        raise InternalFault("relative chains are not the light-like sequences")
    return pair


def inner_pair_fraction(space, a, b, l):
    l = F(l)
    if l <= 0:
        raise InvalidLength("positive length required, got %s" % (l,))
    d_ab = space.dist[a][b]
    if d_ab > l:
        return SimplicialPair(SimplicialComplex.void(), SimplicialComplex.void())
    points = set()
    for seq in walks_fraction(space, a, l, b):
        points.update(seq_time_stamps_fraction(space, seq))
    ends = {CausalPoint(F(0), a), CausalPoint(l, b)}
    mid = sorted(p for p in points if p not in ends)
    return _chain_pair(
        order_chains(mid, causal_lt_fraction(space)),
        lambda c: seq_length_fraction(space, [a] + [p for _, p in c] + [b]) < l,
        d_ab >= l,
    )


def four_cuts_fraction(space):
    d = space.dist
    n = space.n
    found = []
    m_x = INFINITE
    for x0 in range(n):
        for x1 in range(n):
            if x1 == x0:
                continue
            for x2 in range(n):
                if x2 == x1 or d[x0][x1] + d[x1][x2] != d[x0][x2]:
                    continue
                for x3 in range(n):
                    if x3 == x2 or d[x1][x2] + d[x2][x3] != d[x1][x3]:
                        continue
                    total = d[x0][x1] + d[x1][x2] + d[x2][x3]
                    if d[x0][x3] < total:
                        found.append((x0, x1, x2, x3))
                        if total < m_x:
                            m_x = total
    return found, m_x


def shortest_paths_fraction(n, weighted):
    """Floyd-Warshall on Fractions over {(i, j): lightest weight}."""
    d = [[F(0) if i == j else None for j in range(n)] for i in range(n)]
    for (i, j), w in weighted.items():
        d[i][j] = d[j][i] = w
    for k in range(n):
        for i in range(n):
            if d[i][k] is None:
                continue
            for j in range(n):
                if d[k][j] is None:
                    continue
                via = d[i][k] + d[k][j]
                if d[i][j] is None or via < d[i][j]:
                    d[i][j] = d[j][i] = via
    return tuple(tuple(row) for row in d)


def triangle_witness_fraction(labels, d):
    n = len(labels)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k]:
                    return (labels[i], labels[j], labels[k])
    return None


# -- cases ------------------------------------------------------------------------

SPACES = [(den_max, seed) for den_max in (1, 6) for seed in range(5)]


def odd_lengths(space):
    """Zero, negative, and lengths whose scaled value is not an integer."""
    scale = space._scaled[0]
    odd = [F(1, 7), F(22, 7), F(1, 2 * scale), F(5, 2) + F(1, 3 * scale)]
    for l in odd:
        assert (l * scale).denominator != 1
    return [F(0), F(-1), F(-1, 2)] + odd


@pytest.mark.parametrize("den_max,seed", SPACES)
def test_sequences_and_stamps_match_fraction_kernel(den_max, seed):
    space = random_metric_space(5, seed, den_max)
    lengths = achievable_lengths_fraction(space, 3) + odd_lengths(space)
    for l in lengths:
        for a in range(space.n):
            for b in range(space.n):
                got = lightlike_sequences(space, a, b, l)
                assert got == walks_fraction(space, a, l, b), (a, b, l)
                for seq in got:
                    stamps = seq_time_stamps(space, seq)
                    assert stamps == seq_time_stamps_fraction(space, seq)
                    assert all(type(p.time) is F for p in stamps)


def pair_view(pair, vertex=lambda v: v):
    """A pair's states and simplex sets, each vertex mapped by vertex."""
    return tuple(
        (cx.state, {tuple(map(vertex, s)) for s in cx.simplices()})
        for cx in (pair.total, pair.sub)
    )


def or_invalid(call, *args):
    """call(*args), or InvalidLength when it raises that."""
    try:
        return call(*args)
    except InvalidLength:
        return InvalidLength


@pytest.mark.parametrize("den_max,seed", SPACES)
def test_relative_complexes_match_fraction_route(den_max, seed, monkeypatch):
    space = random_metric_space(5, seed, den_max)
    scale = space._scaled[0]

    def as_point(v):
        t, p = v
        assert type(t) is int
        return CausalPoint(F(t, scale), p)

    lengths = achievable_lengths_fraction(space, 3) + odd_lengths(space)
    cases = [(a, b, l) for l in lengths for a in range(space.n) for b in range(space.n)]
    reports = []
    for a, b, l in cases:
        for seq in walks_fraction(space, a, l, b):
            assert seq_length(space, seq) == seq_length_fraction(space, seq) == l
        assert pair_view(order_complex_pair(space, a, b, l), as_point) == pair_view(
            order_complex_pair_fraction(space, a, b, l)
        ), (a, b, l)
        got = or_invalid(inner_pair, space, a, b, l)
        expected = or_invalid(inner_pair_fraction, space, a, b, l)
        if expected is InvalidLength:
            assert got is InvalidLength, (a, b, l)
        else:
            assert pair_view(got, as_point) == pair_view(expected), (a, b, l)
        reports.append(
            (verify_chain_iso(space, a, b, l),
             or_invalid(verify_suspension_shift, space, a, b, l))
        )
    # the verifiers give the same reports on the Fraction route
    homology = importlib.import_module("magtop.homology")
    monkeypatch.setattr(homology, "order_complex_pair", order_complex_pair_fraction)
    monkeypatch.setattr(homology, "inner_pair", inner_pair_fraction)
    monkeypatch.setattr(homology, "_stamps", seq_time_stamps_fraction)
    for (a, b, l), (iso, shift) in zip(cases, reports):
        assert iso.ok and iso == verify_chain_iso(space, a, b, l), (a, b, l)
        assert shift is InvalidLength or shift.ok, (a, b, l)
        assert shift == or_invalid(verify_suspension_shift, space, a, b, l), (a, b, l)


@pytest.mark.parametrize("den_max,seed", SPACES)
def test_lengths_match_fraction_kernel(den_max, seed):
    space = random_metric_space(5, seed, den_max)
    for budget in [F(3), F(5, 2), F(7, 3)] + odd_lengths(space):
        got = achievable_lengths(space, budget)
        assert got == achievable_lengths_fraction(space, budget), budget
        assert all(type(l) is F for l in got)
        for a in range(space.n):
            for b in range(space.n):
                assert pair_achievable_lengths(
                    space, a, b, budget
                ) == pair_achievable_lengths_fraction(space, a, b, budget)


@pytest.mark.parametrize("den_max,seed", SPACES)
def test_four_cuts_and_frames_match_fraction_kernel(den_max, seed):
    space = random_metric_space(5, seed, den_max)
    found, m_x = four_cuts(space)
    assert (found, m_x) == four_cuts_fraction(space)
    assert m_x is INFINITE or type(m_x) is F
    n = space.n
    every = [[y for y in range(n) if y != x] for x in range(n)]
    thin = [
        [y for y in range(n) if y != x and not open_interval(space, x, y).carrier]
        for x in range(n)
    ]
    thin_rule = frame_steps_fraction(space, thin)
    for l in achievable_lengths_fraction(space, 3) + odd_lengths(space):
        if l < 0:
            continue
        assert thin_frames(space, l) == [
            s for a in range(n) for s in walks_fraction(space, a, l, successors=thin_rule)
        ]
        for a in range(n):
            for b in range(n):
                if l >= m_x:
                    with pytest.raises(FourCutObstruction):
                        singular_sequences(space, a, b, l)
                    continue
                assert singular_sequences(space, a, b, l) == (
                    walks_fraction(space, a, l, b, frame_steps_fraction(space, every))
                )


def test_four_cuts_threshold_is_a_fraction_on_scaled_space():
    # a 4-cycle with weights 1/2, 2/3, 3/4, 1 has scale 12 and four-cuts
    sp = from_weighted_graph(
        "abcd", [("a", "b", F(1, 2)), ("b", "c", F(2, 3)), ("c", "d", F(3, 4)), ("d", "a", 1)]
    )
    assert sp._scaled[0] == 12
    found, m_x = four_cuts(sp)
    assert (found, m_x) == four_cuts_fraction(sp)
    assert found and type(m_x) is F and m_x.denominator != 1


@pytest.mark.parametrize("seed", range(8))
def test_weighted_graph_matches_fraction_shortest_paths(seed):
    rng = random.Random(seed)
    weights = [F(1, 2), F(2, 3), F(7, 5), F(1), F(3, 4), F(5, 3), F(9, 4)]
    n = 7
    vertices = ["v%d" % i for i in range(n)]
    edges = [(vertices[i - 1], vertices[i], rng.choice(weights)) for i in range(1, n)]
    for _ in range(8):
        u, v = rng.sample(vertices, 2)
        edges.append((u, v, rng.choice(weights)))
    lightest = {}
    for u, v, w in edges:
        key = tuple(sorted((vertices.index(u), vertices.index(v))))
        if key not in lightest or w < lightest[key]:
            lightest[key] = w
    sp = from_weighted_graph(vertices, edges)
    assert sp.dist == shortest_paths_fraction(n, lightest)
    assert all(type(v) is F for row in sp.dist for v in row)


# -- the cached pair on MetricSpace -----------------------------------------------

def test_fractional_triangle_violation_keeps_witness():
    labels = ("a", "b", "c", "d")
    d = [
        [0, F(1, 2), F(7, 6), F(5, 3)],
        [F(1, 2), 0, F(2, 3), F(1, 3)],
        [F(7, 6), F(2, 3), 0, F(1, 4)],
        [F(5, 3), F(1, 3), F(1, 4), 0],
    ]
    # d(a,c) = 7/6 = d(a,b) + d(b,c) is tight; the first violation in
    # (i, j, k) order is d(a,d) = 5/3 > d(a,b) + d(b,d) = 5/6
    with pytest.raises(TriangleViolation) as info:
        from_distance_matrix(labels, d)
    assert info.value.witness == ("a", "b", "d") == triangle_witness_fraction(
        labels, [[F(v) for v in row] for row in d]
    )
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(3, 5)
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = F(rng.randint(1, 12), rng.randint(1, 6))
        labels = tuple("p%d" % i for i in range(n))
        expected = triangle_witness_fraction(labels, m)
        if expected is None:
            from_distance_matrix(labels, m)
            continue
        with pytest.raises(TriangleViolation) as info:
            from_distance_matrix(labels, m)
        assert info.value.witness == expected


def test_cached_scale_is_invisible_to_equality_hash_and_repr():
    used = random_metric_space(5, 3, 6)
    lightlike_sequences(used, 0, 1, 3)
    fresh = MetricSpace(used.labels, used.dist)
    scale = math.lcm(*(v.denominator for row in used.dist for v in row))
    assert used._scaled == fresh._scaled
    assert used._scaled == (
        scale, tuple(tuple(int(v * scale) for v in row) for row in used.dist)
    )
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert [f.name for f in dataclasses.fields(used)] == ["labels", "dist"]
    copy = pickle.loads(pickle.dumps(used))
    assert copy == used and hash(copy) == hash(used)
    assert copy._scaled == used._scaled
    other = random_metric_space(5, 4, 6)
    assert used != other

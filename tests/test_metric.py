"""Distance matrices, graph metrics, products and gluings."""

import inspect
import random
from fractions import Fraction

import pytest

import magtop
from magtop.docs import gluing_from_doc, load_fixture, twist_from_doc
from magtop.metric import (
    AsymmetryError,
    DisconnectedGraph,
    EmptyK,
    INFINITE,
    LabelError,
    MetricError,
    NonpositiveWeight,
    NotIsometricEmbedding,
    TriangleViolation,
    ZeroOffDiagonal,
    four_cuts,
    from_distance_matrix,
    from_weighted_graph,
    glue,
    is_smooth,
    product,
    random_metric_space,
    restriction,
    scaled_length,
)
from lengths import seq_length

F = Fraction


def brute_shortest(vertices, edges, u, v):
    """Minimum over all simple paths; oracle for the graph metric."""
    weight = {}
    for x, y, w in edges:
        key = frozenset((x, y))
        w = F(w)
        if key not in weight or w < weight[key]:
            weight[key] = w
    best = [None]

    def walk(x, used, visited):
        if x == v:
            if best[0] is None or used < best[0]:
                best[0] = used
            return
        for key, w in weight.items():
            if x not in key:
                continue
            (y,) = key - {x} if len(key) == 2 else (x,)
            if y in visited:
                continue
            walk(y, used + w, visited | {y})

    if u == v:
        return F(0)
    walk(u, F(0), {u})
    return best[0]


def unit_complete(n):
    labels = tuple("p%d" % i for i in range(n))
    return from_distance_matrix(
        labels,
        [[0 if i == j else 1 for j in range(n)] for i in range(n)],
    )


def test_matrix_axioms_rejected():
    with pytest.raises(AsymmetryError):
        from_distance_matrix(("a", "b"), [[0, 1], [2, 0]])
    with pytest.raises(TriangleViolation):
        from_distance_matrix(
            ("a", "b", "c"), [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        )
    with pytest.raises(ZeroOffDiagonal):
        from_distance_matrix(("a", "b"), [[0, 0], [0, 0]])
    with pytest.raises(MetricError):
        from_distance_matrix(("a", "a"), [[0, 1], [1, 0]])
    with pytest.raises(MetricError):
        from_distance_matrix((), [])


def test_floats_rejected_as_distances():
    with pytest.raises(TypeError):
        from_distance_matrix(("a", "b"), [[0, 0.5], [0.5, 0]])


LENGTH_PARAMS = {"l", "lmax", "budget", "truncation"}


def _takes_length(name):
    try:
        params = inspect.signature(getattr(magtop, name)).parameters
    except ValueError:  # the exception classes have no signature
        return False
    return bool(LENGTH_PARAMS & set(params))


LENGTH_TAKERS = [name for name in sorted(magtop.__all__) if _takes_length(name)]


def _arguments(name, length):
    """Arguments for a public name, the length ones set to `length`."""
    space = from_distance_matrix(("a", "b"), [[0, F(3, 10)], [F(3, 10), 0]])
    by_param = {
        "space": space, "x": space, "y": space, "a": 0, "b": 1, "terms": {},
        "gluing": gluing_from_doc(load_fixture("mv_triangles")),
        "twist": twist_from_doc(load_fixture("sycamore_twist")),
    }
    by_param["gspec"] = by_param["gluing"]
    params = inspect.signature(getattr(magtop, name)).parameters
    return [length if p in LENGTH_PARAMS else by_param[p] for p in params]


def test_length_takers_are_the_expected_names():
    assert LENGTH_TAKERS == [
        "HahnPolynomial", "achievable_lengths", "critical_cells", "euler_check",
        "framed_betti_prediction", "magnitude", "magnitude_chain_complex",
        "pair_achievable_lengths", "singular_sequences", "thin_frames",
        "verify_chain_iso", "verify_kunneth", "verify_mv",
        "verify_suspension_shift", "verify_sycamore", "verify_union",
        "weighting",
    ]


@pytest.mark.parametrize("name", LENGTH_TAKERS)
def test_floats_rejected_as_lengths(name):
    # 0.3 is not 3/10: Fraction(0.3) would silently miss every length of
    # the space, so a float length is refused as a float distance is
    with pytest.raises(TypeError, match="floats are not allowed"):
        getattr(magtop, name)(*_arguments(name, 0.3))


def test_index_and_label_error():
    sp = unit_complete(2)
    assert sp.index("p1") == 1
    with pytest.raises(LabelError):
        sp.index("nope")


def test_weighted_graph_against_path_oracle():
    vertices = ("a", "b", "c", "d", "e")
    edges = [
        ("a", "b", 1),
        ("b", "c", F(1, 2)),
        ("c", "d", 2),
        ("d", "e", 1),
        ("a", "e", F(7, 2)),
        ("b", "d", 3),
    ]
    sp = from_weighted_graph(vertices, edges)
    for i, u in enumerate(vertices):
        for j, v in enumerate(vertices):
            assert sp.dist[i][j] == brute_shortest(vertices, edges, u, v)


def test_weighted_graph_parallel_edges_keep_lightest():
    sp = from_weighted_graph(("a", "b"), [("a", "b", 5), ("b", "a", 2)])
    assert sp.dist[0][1] == 2


def test_weighted_graph_rejections():
    with pytest.raises(NonpositiveWeight):
        from_weighted_graph(("a", "b"), [("a", "b", 0)])
    with pytest.raises(DisconnectedGraph):
        from_weighted_graph(("a", "b", "c"), [("a", "b", 1)])
    with pytest.raises(MetricError):
        from_weighted_graph(("a", "b"), [("a", "z", 1)])
    with pytest.raises(MetricError):
        from_weighted_graph(("a", "b"), [("a", "a", 1)])


def test_restriction_keeps_submatrix():
    sp = from_weighted_graph(
        ("a", "b", "c"), [("a", "b", 1), ("b", "c", 1)]
    )
    sub = restriction(sp, (0, 2))
    assert sub.labels == ("a", "c")
    assert sub.dist[0][1] == 2


def test_product_of_edges_is_a_four_cycle():
    k2 = unit_complete(2)
    prod, pidx = product(k2, k2)
    assert prod.n == 4
    # opposite corners at distance 2, adjacent at 1
    assert prod.dist[pidx(0, 0)][pidx(1, 1)] == 2
    assert prod.dist[pidx(0, 0)][pidx(0, 1)] == 1
    c4 = from_weighted_graph(
        ("w", "x", "y", "z"),
        [("w", "x", 1), ("x", "y", 1), ("y", "z", 1), ("z", "w", 1)],
    )
    corner = {pidx(0, 0): 0, pidx(0, 1): 1, pidx(1, 1): 2, pidx(1, 0): 3}
    for i in range(4):
        for j in range(4):
            assert prod.dist[i][j] == c4.dist[corner[i]][corner[j]]


def test_seq_length_and_smoothness():
    sp = from_weighted_graph(
        ("a", "b", "c"), [("a", "b", 1), ("b", "c", 1)]
    )
    # the scaled length of a sequence is its length times the scale, 1 here
    assert scaled_length(sp, (0, 1, 2)) == seq_length(sp, (0, 1, 2)) == 2
    # b lies between a and c, so the middle entry is smooth
    assert is_smooth(sp, (0, 1, 2), 1)
    assert not is_smooth(sp, (0, 1, 0), 1)
    # endpoints never count as smooth
    assert not is_smooth(sp, (0, 1, 2), 0)
    assert not is_smooth(sp, (0, 1, 2), 2)


def test_four_cuts_on_cycle_and_trees():
    c4 = from_weighted_graph(
        ("a", "b", "c", "d"),
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1)],
    )
    assert four_cuts(c4) == 3
    path = from_weighted_graph(
        ("a", "b", "c", "d"), [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)]
    )
    assert four_cuts(path) is INFINITE
    assert four_cuts(unit_complete(4)) is INFINITE


def class_set(gspec, c):
    """The glued points of class c: 0 interior g, 1 in K, 2 biased, 3 neutral."""
    return frozenset(p for p, k in enumerate(gspec.classes) if k == c)


def assert_class_partition(gl):
    """The class tuple splits the glued points into interior g, K, biased
    and neutral, class by class."""
    assert len(gl.classes) == gl.space.n
    parts = [class_set(gl, c) for c in range(4)]
    kset = frozenset(gl.k_in_g)
    interior_g = frozenset(range(gl.g.n)) - kset
    interior_h = frozenset(range(gl.g.n, gl.space.n))
    assert parts[:2] == [interior_g, kset]
    assert parts[2] | parts[3] == interior_h
    assert set(gl.gates) == parts[2]


def test_glue_classifies_interior_points():
    # triangle glued to a (1,1,2) triangle along the unit edge: apex gated
    g = from_weighted_graph(
        ("p", "q", "u"), [("p", "q", 1), ("p", "u", 1), ("q", "u", 1)]
    )
    h = from_weighted_graph(
        ("p", "q", "v"), [("p", "q", 1), ("p", "v", 1), ("q", "v", 2)]
    )
    gl = glue(g, h, (g.index("p"), g.index("q")), (h.index("p"), h.index("q")))
    assert gl.space.labels == ("p", "q", "u", "v")
    assert class_set(gl, 3) == frozenset()
    v = gl.space.index("v")
    assert class_set(gl, 2) == frozenset({v})
    assert gl.gates[v] == gl.space.index("p")
    # glued distances route through K
    u = gl.space.index("u")
    assert gl.space.dist[u][v] == 2  # u-p-v
    assert gl.classes == (1, 1, 0, 2)
    assert_class_partition(gl)


def test_glue_unit_triangles_has_neutral_point():
    g = from_weighted_graph(
        ("p", "q", "u"), [("p", "q", 1), ("p", "u", 1), ("q", "u", 1)]
    )
    h = from_weighted_graph(
        ("p", "q", "v"), [("p", "q", 1), ("p", "v", 1), ("q", "v", 1)]
    )
    gl = glue(g, h, (0, 1), (0, 1))
    v = gl.space.index("v")
    assert class_set(gl, 3) == frozenset({v})
    assert class_set(gl, 2) == frozenset()
    assert gl.classes == (1, 1, 0, 3)
    assert_class_partition(gl)


def test_glue_rejections():
    g = from_weighted_graph(("p", "q"), [("p", "q", 1)])
    h = from_weighted_graph(("p", "q"), [("p", "q", 2)])
    with pytest.raises(NotIsometricEmbedding):
        glue(g, h, (0, 1), (0, 1))
    with pytest.raises(EmptyK):
        glue(g, g, (), ())
    clash = from_weighted_graph(("p", "q", "x"), [("p", "q", 1), ("q", "x", 1)])
    other = from_weighted_graph(("p", "q", "x"), [("p", "q", 1), ("p", "x", 1)])
    with pytest.raises(MetricError):
        glue(clash, other, (0, 1), (0, 1))


def test_glue_projection_distances_minimize_over_k():
    # two-gate square side: interior h point sees both ends of K
    g = from_weighted_graph(
        ("p", "q", "u"), [("p", "u", 1), ("u", "q", 1), ("p", "q", 2)]
    )
    h = from_weighted_graph(
        ("p", "q", "v"), [("p", "v", 1), ("v", "q", 1), ("p", "q", 2)]
    )
    gl = glue(g, h, (0, 1), (0, 1))
    u = gl.space.index("u")
    v = gl.space.index("v")
    assert gl.space.dist[u][v] == 2  # min over p and q crossings
    assert v in class_set(gl, 3)
    assert_class_partition(gl)


def crossing_oracle(g, h, k_in_g, k_in_h):
    """(labels, h_to_x, dist) of a gluing built block by block: g's
    distances, h's moved through h_to_x, and between interior points of
    the two sides the least crossing d_g(x, k) + d_h(k, y) over k in K."""
    interior_h = [j for j in range(h.n) if j not in k_in_h]
    labels = g.labels + tuple(h.labels[j] for j in interior_h)
    h_to_x = [None] * h.n
    for kg, kh in zip(k_in_g, k_in_h):
        h_to_x[kh] = kg
    for rank, j in enumerate(interior_h):
        h_to_x[j] = g.n + rank
    n = len(labels)
    dist = [[None] * n for _ in range(n)]
    for i in range(g.n):
        for j in range(g.n):
            dist[i][j] = g.dist[i][j]
    for a in range(h.n):
        for b in range(h.n):
            dist[h_to_x[a]][h_to_x[b]] = h.dist[a][b]
    for i in range(g.n):
        for j in interior_h:
            best = min(g.dist[i][kg] + h.dist[kh][j] for kg, kh in zip(k_in_g, k_in_h))
            dist[i][h_to_x[j]] = dist[h_to_x[j]][i] = best
    return labels, tuple(h_to_x), tuple(tuple(row) for row in dist)


def assert_glued_by_crossings(gl):
    assert (gl.space.labels, gl.h_to_x, gl.space.dist) == crossing_oracle(
        gl.g, gl.h, gl.k_in_g, gl.k_in_h
    )


def random_gluing(seed, den_max):
    """Two restrictions of one random space that share a nonempty K, each
    listing its points in its own shuffled order."""
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    whole = random_metric_space(n, seed, den_max)
    points = list(range(n))
    rng.shuffle(points)
    cut_k, cut_h = sorted(rng.sample(range(1, n + 1), 2))
    k = points[:cut_k]
    g_points = points[cut_h:] + k
    h_points = k + points[cut_k:cut_h]
    rng.shuffle(g_points)
    rng.shuffle(h_points)
    g = restriction(whole, g_points)
    h = restriction(whole, h_points)
    k_in_g = tuple(g_points.index(p) for p in k)
    k_in_h = tuple(h_points.index(p) for p in k)
    return glue(g, h, k_in_g, k_in_h)


@pytest.mark.parametrize("den_max", [1, 6])
def test_glue_matches_crossing_oracle_on_random_gluings(den_max):
    for seed in range(20):
        assert_glued_by_crossings(random_gluing(seed, den_max))


def test_glue_matches_crossing_oracle_on_fixtures():
    twist = twist_from_doc(load_fixture("sycamore_twist"))
    back = twist.reverse()
    for gl in (
        gluing_from_doc(load_fixture("mv_triangles")),
        gluing_from_doc(load_fixture("sycamore_gluing")),
        twist.x, twist.y, back.x, back.y,
    ):
        assert_glued_by_crossings(gl)
        assert_class_partition(gl)


def test_random_metric_space_is_reproducible():
    a = random_metric_space(5, 11)
    b = random_metric_space(5, 11)
    assert a.dist == b.dist
    assert a.dist != random_metric_space(5, 12).dist
    assert all(
        1 <= a.dist[i][j] <= 2 for i in range(5) for j in range(5) if i != j
    )

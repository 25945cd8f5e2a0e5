"""Distance matrices, graph metrics, products, gluings, and intervals."""

from fractions import Fraction

import pytest

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
    open_interval,
    product,
    random_metric_space,
    restriction,
    seq_length,
)

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
    assert seq_length(sp, (0, 1, 2)) == 2
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
    quads, m_x = four_cuts(c4)
    assert m_x == 3
    assert quads
    x0, x1, x2, x3 = quads[0]
    assert c4.dist[x0][x3] < seq_length(c4, (x0, x1, x2, x3))
    path = from_weighted_graph(
        ("a", "b", "c", "d"), [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)]
    )
    assert four_cuts(path) == ([], INFINITE)
    assert four_cuts(unit_complete(4)) == ([], INFINITE)


def test_interval_poset_laws():
    path = from_weighted_graph(
        ("a", "b", "c", "d"), [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)]
    )
    inner = open_interval(path, 0, 3)
    assert inner.carrier == (1, 2)
    assert inner.validate()
    # off-geodesic points stay out
    c4 = from_weighted_graph(
        ("a", "b", "c", "d"),
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1)],
    )
    assert open_interval(c4, 0, 1).carrier == ()
    assert open_interval(c4, 0, 2).carrier == (1, 3)


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
    assert gl.neutral == frozenset()
    v = gl.space.index("v")
    assert gl.biased == frozenset({v})
    assert gl.gates[v] == gl.space.index("p")
    # glued distances route through K
    u = gl.space.index("u")
    assert gl.space.dist[u][v] == 2  # u-p-v
    assert gl.side_g() | gl.interior_h == frozenset(range(gl.space.n))


def test_glue_unit_triangles_has_neutral_point():
    g = from_weighted_graph(
        ("p", "q", "u"), [("p", "q", 1), ("p", "u", 1), ("q", "u", 1)]
    )
    h = from_weighted_graph(
        ("p", "q", "v"), [("p", "q", 1), ("p", "v", 1), ("q", "v", 1)]
    )
    gl = glue(g, h, (0, 1), (0, 1))
    v = gl.space.index("v")
    assert gl.neutral == frozenset({v})
    assert gl.biased == frozenset()


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
    assert v in gl.neutral


def test_random_metric_space_is_reproducible():
    a = random_metric_space(5, 11)
    b = random_metric_space(5, 11)
    assert a.dist == b.dist
    assert a.dist != random_metric_space(5, 12).dist
    assert all(
        1 <= a.dist[i][j] <= 2 for i in range(5) for j in range(5) if i != j
    )

"""Brute-force views of magtop's complexes and posets, for the tests.

The program builds its complexes from chains it knows to be closed under
faces and never checks that; these helpers do, for the tests.
"""

# the 6-vertex, 10-triangle RP^2, whose reduced homology is Z/2 in degree 1
RP2 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]


def moore_space(m, tag):
    """Facets of the Moore space M(Z/m, 1), whose reduced homology is Z/m in
    degree 1: a 3m-gon whose vertices are labelled 0, 1, 2 in turn, so that
    its boundary wraps the triangle 0-1-2 m times, filled through a ring of
    3m vertices and a centre.  Every vertex name starts with tag, so spaces
    with different tags are disjoint."""
    n = 3 * m
    p = ["%s%d" % (tag, i % 3) for i in range(n + 1)]
    a = ["%sa%d" % (tag, i % n) for i in range(n + 1)]
    c = tag + "c"
    triangles = []
    for i in range(n):
        triangles += [(p[i], p[i + 1], a[i]), (p[i + 1], a[i], a[i + 1])]
        triangles.append((a[i], a[i + 1], c))
    return triangles


def closed_under_faces(cells):
    """Whether every nonempty face of every cell is a cell."""
    have = set(cells)
    return all(
        s[:i] + s[i + 1:] in have for s in have if len(s) > 1 for i in range(len(s))
    )


def complex_of(simplices):
    """The simplices, each sorted, by size and then lexicographic; they must
    be nonempty and closed under faces."""
    cells = sorted({tuple(sorted(s)) for s in simplices}, key=lambda s: (len(s), s))
    assert all(cells), "the empty simplex is not a cell here"
    assert closed_under_faces(cells), "not closed under faces"
    return cells


def poset_laws(poset):
    """Reflexivity, antisymmetry and transitivity of a causal poset's leq
    on its points, checked by brute force."""
    pts = poset.points
    leq = poset.leq
    return (
        all(leq(u, u) for u in pts)
        and all(u == v for u in pts for v in pts if leq(u, v) and leq(v, u))
        and all(
            leq(u, w)
            for u in pts
            for v in pts
            for w in pts
            if leq(u, v) and leq(v, w)
        )
    )

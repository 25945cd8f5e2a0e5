"""Brute-force views of magtop's complexes and posets, for the tests.

The program builds its complexes from chains it knows to be closed under
faces and never lists, counts or searches them; these helpers do that for
the tests.
"""

from magtop.causal import SimplicialComplex

# the 6-vertex, 10-triangle RP^2, whose reduced homology is Z/2 in degree 1
RP2 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]


def complex_of(simplices):
    """Nonvoid complex on simplices, which must be closed under faces."""
    return SimplicialComplex(False, (tuple(sorted(s)) for s in simplices))


def simplices(cx):
    """The nonempty simplices of a complex, by size, then lexicographic."""
    return sorted(cx._sims, key=lambda s: (len(s), s))


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

"""1-Lipschitz maps give chain maps of the magnitude chain complexes.

A map f: X -> Y with d(f x, f y) <= d(x, y) sends a sequence a -> b of
length l to its image, a sequence f(a) -> f(b), when the image keeps the
length l, and to 0 otherwise.  A consecutive repeat in the image shortens
it, so that case needs no rule of its own.  The checks run on the sparse
columns of magnitude_chain_complex: d∘f = f∘d column by column, for every
endpoint pair and achievable length, and the identity and composites give
the identity and the composed maps.

The target of f is taken to be the direct sum of the complexes of
(f(a), f(b)) at every length up to l, so that a map which forgets the
length condition is still a map of graded groups, and the check can catch
it: its images of shorter length do not commute with the boundary.
"""

from collections import Counter
from fractions import Fraction

import pytest

from magtop.causal import pair_achievable_lengths
from magtop.docs import gluing_from_doc, load_fixture, space_from_doc
from magtop.homology import magnitude_chain_complex
from magtop.metric import product, random_metric_space, restriction
from lengths import seq_length

F = Fraction


def fixture_space(name):
    return space_from_doc(load_fixture(name))


def is_lipschitz(f, x, y):
    return all(
        y.dist[f[p]][f[q]] <= x.dist[p][q] for p in range(x.n) for q in range(x.n)
    )


def push(f, y, seq, l, keep_length=True):
    """f applied to one generator of length l, as a sparse vector keyed by
    (length, sequence) of y; keep_length=False drops the length condition,
    keeping only the images that are sequences at all."""
    image = tuple(f[p] for p in seq)
    if any(p == q for p, q in zip(image, image[1:])):
        return {}
    m = seq_length(y, image)
    if keep_length and m != l:
        return {}
    return {(m, image): 1}


def add_into(total, vector, coeff):
    for key, v in vector.items():
        w = total.pop(key, 0) + coeff * v
        if w:
            total[key] = w


def chain_map_defect(f, x, y, a, b, l, keep_length=True):
    """The first generator of MC(x; a, b, l) on which d∘f and f∘d differ,
    with both sides, or None; also how many generators compared had a
    nonzero boundary, and how many a nonzero image."""
    src = magnitude_chain_complex(x, a, b, l)
    fa, fb = f[a], f[b]
    target = {
        m: magnitude_chain_complex(y, fa, fb, m)
        for m in pair_achievable_lengths(y, fa, fb, l)
    }
    where = {
        (m, s): (k, i)
        for m, cc in target.items()
        for k, gens in cc.basis.items()
        for i, s in enumerate(gens)
    }

    def boundary(key):
        m = key[0]
        k, i = where[key]
        cc = target[m]
        return {(m, cc.basis[k - 1][r]): v for r, v in cc.boundary[k][i].items()}

    seen = Counter()
    for k, cols in src.boundary.items():
        for s, col in zip(src.basis[k], cols):
            image = push(f, y, s, l, keep_length)
            assert image.keys() <= where.keys()
            d_f = {}
            for key, v in image.items():
                add_into(d_f, boundary(key), v)
            f_d = {}
            for r, v in col.items():
                add_into(f_d, push(f, y, src.basis[k - 1][r], l, keep_length), v)
            if d_f != f_d:
                return (k, s, d_f, f_d), seen
            seen.update(boundary=bool(col), image=bool(image))
    return None, seen


def pairs_and_lengths(x, lmax):
    return [
        (a, b, l)
        for a in range(x.n)
        for b in range(x.n)
        for l in pair_achievable_lengths(x, a, b, F(lmax))
    ]


def c4_fold():
    """c4 onto its edge a-c: each vertex goes to a at even distance from a,
    to c at odd."""
    c4 = fixture_space("c4")
    a, c = c4.index("a"), c4.index("c")
    return c4, [a if c4.dist[a][p] % 2 == 0 else c for p in range(c4.n)], c4


def projections(x, y):
    prod, pidx = product(x, y)
    to_x, to_y = [None] * prod.n, [None] * prod.n
    for i in range(x.n):
        for j in range(y.n):
            to_x[pidx(i, j)], to_y[pidx(i, j)] = i, j
    return prod, to_x, to_y


def map_cases():
    """(name, source, map as a list of target indices, target, lmax)."""
    cases = []
    # the kept points, in any order, of seeded spaces with smooth triples
    for den_max, seed, keep in (
        (1, 0, (1, 2, 3, 4)), (1, 1, (3, 0, 2, 1)), (1, 2, (0, 1, 2, 3)),
        (6, 2, (4, 0, 1, 2)),
    ):
        x = random_metric_space(5, seed, den_max)
        cases.append(("restriction-den%d-seed%d" % (den_max, seed),
                      restriction(x, keep), list(keep), x, 4))
    c4 = fixture_space("c4")
    path = [c4.index(p) for p in "acb"]
    cases.append(("restriction-c4", restriction(c4, path), path, c4, 6))
    gl = gluing_from_doc(load_fixture("mv_triangles"))
    cases.append(("mv_triangles-h", gl.h, list(gl.h_to_x), gl.space, 4))
    gl = gluing_from_doc(load_fixture("sycamore_gluing"))
    cases.append(("sycamore_gluing-h", gl.h, list(gl.h_to_x), gl.space, 4))
    cases.append(("sycamore_gluing-g", gl.g, list(range(gl.g.n)), gl.space, 4))
    for left, right in (("p2", "two_point"), ("k3", "two_point"), ("p2", "k3")):
        x, y = fixture_space(left), fixture_space(right)
        prod, to_x, to_y = projections(x, y)
        cases.append(("%s-x-%s-to-x" % (left, right), prod, to_x, x, 4))
        cases.append(("%s-x-%s-to-y" % (left, right), prod, to_y, y, 4))
    c4, fold, _ = c4_fold()
    cases.append(("c4-fold", c4, fold, c4, 6))
    return cases


MAP_CASES = {case[0]: case[1:] for case in map_cases()}


@pytest.mark.parametrize("name", sorted(MAP_CASES))
def test_lipschitz_maps_commute_with_the_boundary(name):
    x, f, y, lmax = MAP_CASES[name]
    assert is_lipschitz(f, x, y)
    seen = Counter()
    for a, b, l in pairs_and_lengths(x, lmax):
        defect, count = chain_map_defect(f, x, y, a, b, l)
        assert defect is None, (name, a, b, l, defect)
        seen += count
    # neither the source boundary nor the map is zero throughout
    assert seen["boundary"] and seen["image"], seen


def test_dropping_the_length_condition_breaks_the_chain_map():
    # a projection shortens the diagonal steps of the product without
    # repeating a point, and such an image does not commute with the
    # boundary; the inclusions are isometric and the fold shortens a
    # sequence only by a repeat, so for them nothing changes
    broken = []
    for name, (x, f, y, lmax) in sorted(MAP_CASES.items()):
        for a, b, l in pairs_and_lengths(x, lmax):
            if chain_map_defect(f, x, y, a, b, l, keep_length=False)[0] is not None:
                broken.append(name)
                break
    assert broken == sorted(name for name in MAP_CASES if "-x-" in name)
    assert len(broken) == 6


@pytest.mark.parametrize("name", ["c4", "k4", "random-den1", "random-den6"])
def test_identity_gives_the_identity_chain_map(name):
    x = {
        "c4": lambda: fixture_space("c4"),
        "k4": lambda: fixture_space("k4"),
        "random-den1": lambda: random_metric_space(5, 0, 1),
        "random-den6": lambda: random_metric_space(5, 0, 6),
    }[name]()
    ident = list(range(x.n))
    for a, b, l in pairs_and_lengths(x, 4):
        assert chain_map_defect(ident, x, x, a, b, l)[0] is None
        cc = magnitude_chain_complex(x, a, b, l)
        for gens in cc.basis.values():
            for s in gens:
                assert push(ident, x, s, l) == {(l, s): 1}


def composite_cases():
    """(name, x, f, y, g, z, lmax) with f: x -> y and g: y -> z."""
    c4, fold, _ = c4_fold()
    p2, k3 = fixture_space("p2"), fixture_space("k3")
    prod, to_x, _ = projections(p2, k3)
    keep = (0, 1, 4, 5, 7)
    sub = restriction(prod, keep)
    x = random_metric_space(5, 1, 6)
    mid = (0, 1, 3, 4)
    inner = (2, 0, 3)  # indices into mid
    return [
        ("fold-fold", c4, fold, c4, fold, c4, 5),
        ("include-project", sub, list(keep), prod, to_x, p2, 4),
        ("include-include", restriction(x, [mid[i] for i in inner]), list(inner),
         restriction(x, mid), list(mid), x, 3),
    ]


@pytest.mark.parametrize("case", composite_cases(), ids=lambda c: c[0])
def test_composites_give_the_composed_chain_map(case):
    _, x, f, y, g, z, lmax = case
    assert is_lipschitz(f, x, y) and is_lipschitz(g, y, z)
    gf = [g[f[p]] for p in range(x.n)]
    seen = 0
    for a, b, l in pairs_and_lengths(x, lmax):
        assert chain_map_defect(gf, x, z, a, b, l)[0] is None
        cc = magnitude_chain_complex(x, a, b, l)
        for gens in cc.basis.values():
            for s in gens:
                via = {}
                for (m, t), v in push(f, y, s, l).items():
                    add_into(via, push(g, z, t, m), v)
                assert push(gf, z, s, l) == via, (case[0], s)
                seen += bool(via)
    assert seen

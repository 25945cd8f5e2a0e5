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

On the order-complex side f acts on causal points as (t, p) -> (t, f p).
It maps the cells of order_complex_pair(x, a, b, l) to chains of y's
causal order, and a cell's image is a cell of order_complex_pair(y, f a,
f b, l) exactly when the chain map keeps its sequence; for those the
map commutes with the stamping (seq_time_stamps) that verify_chain_iso
compares the two complexes by.

Reversal is no map of spaces, but it is a chain isomorphism: s ->
epsilon_k rev(s), with epsilon_k = (-1)^(k(k+1)/2), carries the complex of
a -> b onto that of b -> a at the same length, so MH(a, b; l) and
MH(b, a; l) agree, torsion included.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from magtop.causal import (
    CausalPoint,
    order_complex_pair,
    pair_achievable_lengths,
    seq_time_stamps,
)
from magtop.docs import gluing_from_doc, load_fixture, space_from_doc, twist_from_doc
from magtop.homology import magnitude_chain_complex
from magtop.metric import (
    from_distance_matrix,
    from_weighted_graph,
    product,
    random_metric_space,
    restriction,
)
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


def truncated(x, c):
    """x under the metric min(d, c), which is again a metric for c > 0."""
    return from_distance_matrix(
        x.labels, [[min(d, c) for d in row] for row in x.dist]
    )


def c4_collapse():
    """c4 onto the triangle that collapsing its edge a-c leaves: each edge
    goes onto an edge or a point, so no distance grows."""
    c4 = fixture_space("c4")
    k3 = from_weighted_graph(
        ("ac", "b", "d"), [("ac", "b", 1), ("b", "d", 1), ("d", "ac", 1)]
    )
    image = {"a": "ac", "c": "ac", "b": "b", "d": "d"}
    return c4, [k3.index(image[p]) for p in c4.labels], k3


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
    # the identity onto the truncated metric shortens the steps longer than c
    for den_max, seed, c in ((1, 0, F(3, 2)), (6, 2, F(3, 2))):
        x = random_metric_space(5, seed, den_max)
        cases.append(("truncate-den%d-seed%d" % (den_max, seed), x,
                      list(range(x.n)), truncated(x, c), 4))
    cases.append(("c4-collapse", *c4_collapse(), 6))
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


def brings_apart_points_closer(f, x, y):
    """Whether f shortens the distance of two points it keeps apart."""
    return any(
        f[p] != f[q] and y.dist[f[p]][f[q]] < x.dist[p][q]
        for p in range(x.n)
        for q in range(x.n)
    )


def test_dropping_the_length_condition_breaks_the_chain_map():
    # a projection shortens the diagonal steps of the product without
    # repeating a point, and such an image does not commute with the
    # boundary; so do the truncations, on the steps longer than c, and the
    # collapse of c4, on a step across the collapsed edge.  The inclusions
    # are isometric and the fold shortens a sequence only by a repeat, so
    # for them nothing changes
    broken = []
    for name, (x, f, y, lmax) in sorted(MAP_CASES.items()):
        for a, b, l in pairs_and_lengths(x, lmax):
            if chain_map_defect(f, x, y, a, b, l, keep_length=False)[0] is not None:
                broken.append(name)
                break
    assert broken == sorted(
        name
        for name in MAP_CASES
        if "-x-" in name or name.startswith("truncate-") or name == "c4-collapse"
    )
    assert len(broken) == 9
    assert broken == sorted(
        name
        for name, (x, f, y, _) in MAP_CASES.items()
        if brings_apart_points_closer(f, x, y)
    )


def stamp_image(f, chain):
    """(t, p) -> (t, f p) on a chain of causal points."""
    return tuple(CausalPoint(t, f[p]) for t, p in chain)


def fraction_cells(space, a, b, l):
    """The cells of order_complex_pair with Fraction times, so that the
    times of two spaces with their own scales compare."""
    scale = space._scaled[0]
    return [
        tuple(CausalPoint(Fraction(t, scale), p) for t, p in cell)
        for cell in order_complex_pair(space, a, b, l)[0]
    ]


def is_chain(space, chain):
    return all(
        u.time < v.time and space.dist[u.point][v.point] <= v.time - u.time
        for u, v in combinations(chain, 2)
    )


def order_complex_defect(f, x, y, a, b, l, keep_length=True):
    """The first cell of x's order complex of (a, b, l) on which f fails,
    as (reason, cell), or None; also how many cells f keeps.  f fails on a
    cell when its image under (t, p) -> (t, f p) is no chain of y, when the
    image is a cell of y's order complex of (f a, f b, l) other than
    exactly when push keeps the cell's sequence, or when f does not
    commute with the stamping of a sequence push keeps."""
    target = set(fraction_cells(y, f[a], f[b], l))
    kept = 0
    for cell in fraction_cells(x, a, b, l):
        image = stamp_image(f, cell)
        if not is_chain(y, image):
            return ("no chain", cell), kept
        seq = tuple(p for _, p in cell)
        pushed = push(f, y, seq, l, keep_length)
        if (image in target) != bool(pushed):
            return ("cell iff kept", cell), kept
        if pushed:
            fs = tuple(f[p] for p in seq)
            if seq_time_stamps(y, fs) != stamp_image(f, seq_time_stamps(x, seq)):
                return ("stamping", cell), kept
            kept += 1
    return None, kept


@pytest.mark.parametrize("name", sorted(MAP_CASES))
def test_lipschitz_maps_commute_with_the_stamping(name):
    x, f, y, lmax = MAP_CASES[name]
    kept = 0
    for a, b, l in pairs_and_lengths(x, lmax):
        defect, count = order_complex_defect(f, x, y, a, b, l)
        assert defect is None, (name, a, b, l, defect)
        kept += count
    assert kept


def test_dropping_the_length_condition_breaks_the_stamping():
    # a shortened image without a repeat is still a chain of y, but its
    # times are not y's prefix sums, so it is no cell of y's order complex
    broken = [
        name
        for name, (x, f, y, lmax) in sorted(MAP_CASES.items())
        if any(
            order_complex_defect(f, x, y, a, b, l, keep_length=False)[0]
            for a, b, l in pairs_and_lengths(x, lmax)
        )
    ]
    assert broken == [
        "c4-collapse",
        "k3-x-two_point-to-x",
        "k3-x-two_point-to-y",
        "p2-x-k3-to-x",
        "p2-x-k3-to-y",
        "p2-x-two_point-to-x",
        "p2-x-two_point-to-y",
        "truncate-den1-seed0",
        "truncate-den6-seed2",
    ]


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


def reversal_sign(k):
    """epsilon_k = (-1)^(k(k+1)/2), so that epsilon_k / epsilon_(k-1) = (-1)^k."""
    return -1 if k * (k + 1) // 2 % 2 else 1


def reversal_defect(x, a, b, l, sign=reversal_sign):
    """The first generator s of MC(x; a, b, l) on which s -> sign(k) rev(s)
    fails to commute with the boundaries into MC(x; b, a, l), with both
    sides, or None; also how many generators had a nonzero boundary.
    Deleting entry i of s is deleting entry k - i of its reverse, so the
    boundaries differ by (-1)^k, which the signs make up."""
    src = magnitude_chain_complex(x, a, b, l)
    dst = magnitude_chain_complex(x, b, a, l)
    assert {k: sorted(s[::-1] for s in gens) for k, gens in src.basis.items()} == dst.basis
    where = {s: i for gens in dst.basis.values() for i, s in enumerate(gens)}
    nonzero = 0
    for k, cols in src.boundary.items():
        for s, col in zip(src.basis[k], cols):
            rev = s[::-1]
            d_f = {
                dst.basis[k - 1][r]: sign(k) * v
                for r, v in dst.boundary[k][where[rev]].items()
            }
            f_d = {src.basis[k - 1][r][::-1]: sign(k - 1) * v for r, v in col.items()}
            if d_f != f_d:
                return (k, s, d_f, f_d), nonzero
            nonzero += bool(col)
    return None, nonzero


REVERSAL_CASES = {
    "c4": (lambda: [fixture_space("c4")], 6),
    "k4": (lambda: [fixture_space("k4")], 4),
    **{
        "random-den%d" % den_max: (
            lambda den_max=den_max: [random_metric_space(5, seed, den_max) for seed in range(5)],
            3,
        )
        for den_max in (1, 6)
    },
    "sycamore_twist-x": (lambda: [twist_from_doc(load_fixture("sycamore_twist")).x.space], 4),
    "sycamore_twist-y": (lambda: [twist_from_doc(load_fixture("sycamore_twist")).y.space], 4),
}


@pytest.mark.parametrize("name", sorted(REVERSAL_CASES))
def test_signed_reversal_is_a_chain_isomorphism(name):
    # a bijection of the bases, by the assert in reversal_defect, that
    # commutes with the boundaries sign for sign; unsigned, it fails exactly
    # where a boundary out of an odd degree is nonzero
    make, lmax = REVERSAL_CASES[name]
    nonzero = 0
    odd = unsigned = False
    for x in make():
        for a, b, l in pairs_and_lengths(x, lmax):
            defect, count = reversal_defect(x, a, b, l)
            assert defect is None, (name, a, b, l, defect)
            nonzero += count
            cc = magnitude_chain_complex(x, a, b, l)
            has_odd = any(any(cols) for k, cols in cc.boundary.items() if k % 2)
            broken = reversal_defect(x, a, b, l, sign=lambda k: 1)[0] is not None
            assert broken == has_odd, (name, a, b, l)
            odd = odd or has_odd
            unsigned = unsigned or broken
    # k4 has no smooth point, so each of its boundaries is zero
    assert bool(nonzero) == odd == unsigned == (name != "k4")

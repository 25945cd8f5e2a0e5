"""Integer Smith reduction and the sequence homology of metric spaces."""

import importlib
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from magtop.causal import (
    achievable_lengths,
    inner_pair,
    lightlike_sequences,
    pair_achievable_lengths,
)
from magtop.docs import gluing_from_doc, load_fixture, space_from_doc, twist_from_doc
from magtop.frames import hasse_graph
from magtop.homology import (
    BoundarySquareNonzero,
    ChainComplex,
    HomologySummary,
    VerifyReport,
    _invariant_factors,
    face_complex,
    homology,
    homology_table,
    magnitude_chain_complex,
    magnitude_homology_total,
    relative_chain_complex,
    smith_normal_form,
    verify_chain_iso,
    verify_kunneth,
    verify_suspension_shift,
)
from magtop.metric import (
    from_weighted_graph,
    is_smooth,
    random_metric_space,
    smooth_points,
)
from lengths import seq_length
from simplicial import RP2, complex_of, moore_space

F = Fraction


def fixture_space(name):
    return space_from_doc(load_fixture(name))


def mv_triangles_part(part):
    return lambda: getattr(gluing_from_doc(load_fixture("mv_triangles")), part)


def test_snf_known_small_matrix():
    res = smith_normal_form([[1, 2], [3, 4]])
    assert res.diag == (1, 2)
    assert len(res.diag) == 2
    assert smith_normal_form([[0, 0], [0, 0]]).diag == ()
    assert smith_normal_form([[6]]).diag == (6,)
    assert smith_normal_form([]).diag == ()


def scrambled(mat, rng, moves):
    """mat under random unimodular row and column moves."""
    mat = [list(row) for row in mat]
    rows, cols = len(mat), len(mat[0])
    for _ in range(moves):
        m = rng.choice((-2, -1, 1, 2))
        if rows > 1 and (cols == 1 or rng.random() < 0.5):
            i, j = rng.sample(range(rows), 2)
            mat[j] = [x + m * y for x, y in zip(mat[j], mat[i])]
        elif cols > 1:
            i, j = rng.sample(range(cols), 2)
            for row in mat:
                row[j] += m * row[i]
    rng.shuffle(mat)
    return mat


def sympy_diag(mat):
    """The nonzero invariant factors of mat by sympy's Smith normal form."""
    if not mat or not mat[0]:
        return []
    ref = sympy_snf(sympy.Matrix(mat), domain=sympy.ZZ)
    return [abs(ref[i, i]) for i in range(min(ref.shape)) if ref[i, i] != 0]


def test_snf_matches_sympy_on_random_matrices():
    rng = random.Random(5)
    mats = []
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        mats.append([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
    for _ in range(15):
        # sparse +-1 entries, like boundary matrices
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 16)
        mats.append([
            [rng.choice((-1, 1)) if rng.random() < 0.2 else 0 for _ in range(cols)]
            for _ in range(rows)
        ])
    for diag in ((2, 4, 6, 0), (3, 3, 0), (1, 2, 12), (4, 6, 10, 15)):
        # torsion hidden by unimodular moves, on square and wide matrices
        n = len(diag)
        square = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        mats.append(scrambled(square, rng, 12))
        mats.append(scrambled([row + [0] for row in square], rng, 20))
    for mat in mats:
        assert list(smith_normal_form(mat).diag) == sympy_diag(mat), mat
    hidden = scrambled([[2, 0, 0], [0, 4, 0], [0, 0, 6]], rng, 30)
    assert smith_normal_form(hidden).diag == (2, 2, 12)


def test_chain_complex_rejects_nonsquare_zero():
    with pytest.raises(BoundarySquareNonzero):
        ChainComplex(
            {0: ["a"], 1: ["b"], 2: ["c"]},
            {1: [{0: 1}], 2: [{0: 1}]},
        )


def test_homology_reads_torsion_from_snf():
    cc = ChainComplex({0: ["a"], 1: ["b"]}, {1: [{0: 2}]})
    assert cc.matrix(1) == [[2]]
    summary = homology(cc)
    assert summary.betti == ()
    assert summary.torsion == ((0, (2,)),)


def test_homology_summary_algebra():
    a = HomologySummary.build({0: 1, 2: 1}, {1: [4, 2]})
    assert a.torsion == ((1, (2, 4)),)
    assert sum((-1) ** k * r for k, r in a.betti) == 2
    assert a.shifted(2).betti == ((2, 1), (4, 1))
    b = HomologySummary.build({2: 3}, {1: [2]})
    both = HomologySummary.direct_sum([a, b])
    assert both.betti == ((0, 1), (2, 4))
    assert both.torsion == ((1, (2, 2, 4)),)
    assert HomologySummary.build({0: 0}, {1: []}) == HomologySummary()


def test_summaries_of_one_group_are_equal():
    # Z/2 + Z/3 is Z/6, however the summary is made
    six = HomologySummary.build({}, {1: [6]})
    assert HomologySummary.build({}, {1: [3, 2]}) == six
    assert HomologySummary(((0, 0),), ((1, (2,)), (1, (3, 1)))) == six
    assert HomologySummary.direct_sum(
        [HomologySummary.build({}, {1: [2]}), HomologySummary.build({}, {1: [3]})]
    ) == six
    assert HomologySummary.build({}, {1: [2, 2]}) != HomologySummary.build({}, {1: [4]})


def prime_powers(factors):
    """The multiset of prime powers whose cyclic groups sum to the factors'."""
    return Counter(
        p**e for f in factors for p, e in sympy.factorint(f).items()
    )


def test_invariant_factors_are_the_normal_form():
    rng = random.Random(9)
    for _ in range(300):
        factors = [rng.randint(1, 60) for _ in range(rng.randint(0, 8))]
        inv = _invariant_factors(factors)
        assert all(f > 1 for f in inv), factors
        assert all(b % a == 0 for a, b in zip(inv, inv[1:])), factors
        assert prime_powers(inv) == prime_powers(factors), factors
        assert _invariant_factors(inv) == inv
        rng.shuffle(factors)
        assert _invariant_factors(factors) == inv


@lru_cache(maxsize=None)
def moore_pair(ms):
    """The 0hat-to-1hat homology at length 4 of the Hasse graph of the
    disjoint union of the Moore spaces M(Z/m, 1) for m in ms, with its
    boundary out of degree 4."""
    facets = [t for i, m in enumerate(ms) for t in moore_space(m, "xyz"[i])]
    hg = hasse_graph(facets)
    x = hg.space
    assert hg.l == 4
    cc = magnitude_chain_complex(x, x.index(hg.zero), x.index(hg.one), hg.l)
    return homology(cc), cc.matrix(4)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_moore_space_torsion_matches_sympy(m):
    summary, d4 = moore_pair((m,))
    assert summary == HomologySummary.build({}, {3: [m]})
    ref = sympy_snf(sympy.Matrix(d4), domain=sympy.ZZ)
    assert [abs(ref[i, i]) for i in range(min(ref.shape)) if abs(ref[i, i]) > 1] == [m]


@pytest.mark.parametrize(
    "ms, torsion", [((2, 3), (6,)), ((2, 2), (2, 2)), ((2, 4), (2, 4))]
)
def test_moore_unions_sum_the_separate_pairs(ms, torsion):
    # the union's reduced homology adds the Z of its two components
    union, _ = moore_pair(ms)
    assert union == HomologySummary(((2, 1),), ((3, torsion),))
    parts = [moore_pair((m,))[0] for m in ms]
    assert HomologySummary.direct_sum(parts + [HomologySummary(((2, 1),))]) == union


def test_snf_repivots_on_a_remainder_left_in_the_pivot_column():
    # no unit anywhere, and the least entry 4 leaves 6 - 4 = 2 below itself,
    # so the elimination takes a new pivot before any is recorded
    mat = [[4, 6], [6, 4]]
    assert smith_normal_form(mat).diag == (2, 10)
    assert sympy_diag(mat) == [2, 10]
    assert smith_normal_form([[6, 4], [4, 6], [10, 2]]).diag == (2, 2)
    assert sympy_diag([[6, 4], [4, 6], [10, 2]]) == [2, 2]


TORSION_COMPLEXES = {
    "rp2": (lambda: RP2, (2,)),
    "moore_z3": (lambda: load_fixture("moore_z3")["facets"], (3,)),
    "moore_z4": (lambda: moore_space(4, "x"), (4,)),
}


@pytest.mark.parametrize("name", sorted(TORSION_COMPLEXES))
def test_snf_matches_sympy_on_torsion_boundaries(name):
    # every boundary matrix out of 0hat at the Hasse graph's length, to each
    # target; the one to 1hat carries the complex's torsion in degree 3
    facets, torsion = TORSION_COMPLEXES[name]
    hg = hasse_graph(facets())
    x = hg.space
    a = x.index(hg.zero)
    seen = []
    for b in range(x.n):
        if hg.l not in pair_achievable_lengths(x, a, b, hg.l):
            continue
        cc = magnitude_chain_complex(x, a, b, hg.l)
        for k in cc.degrees():
            mat = cc.matrix(k)
            diag = smith_normal_form(mat).diag
            assert list(diag) == sympy_diag(mat), (name, x.labels[b], k)
            seen += [f for f in diag if f > 1]
    assert tuple(seen) == torsion


def test_circle_complex_has_expected_homology():
    # triangle boundary: one loop
    cells = complex_of(
        [("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("a", "c")]
    )
    # a sub of only the empty simplex gives the unreduced homology
    rel = relative_chain_complex((cells, False))
    assert -1 not in rel.basis
    summary = homology(rel)
    assert summary.betti_map() == {0: 1, 1: 1}
    assert summary.torsion == ()
    # a void sub leaves the empty simplex a cell: the reduced homology
    rel = relative_chain_complex((cells, True))
    assert rel.basis[-1] == [()]
    assert homology(rel).betti_map() == {1: 1}


def test_relative_complex_augmentation_cases():
    # augmented alone decides whether the empty simplex is a cell
    # nothing at all: no cells, not even the empty one
    cc = relative_chain_complex(([], False))
    assert cc.basis == {} and homology(cc) == HomologySummary()
    # the empty simplex alone carries one class in degree -1
    cc = relative_chain_complex(([], True))
    assert cc.basis == {-1: [()]}
    assert homology(cc).betti == ((-1, 1),)
    # a point with the empty simplex is augmented, and so acyclic
    point = [("x",)]
    cc = relative_chain_complex((point, True))
    assert cc.basis[-1] == [()]
    assert homology(cc) == HomologySummary()
    assert point == [("x",)]  # the caller's cells stay as they were
    # without the empty simplex the point carries a class in degree 0
    cc = relative_chain_complex((point, False))
    assert cc.basis == {0: [("x",)]}
    assert homology(cc).betti == ((0, 1),)


def test_magnitude_chain_complex_boundary_drops_interior():
    sp = fixture_space("k3")
    cc = magnitude_chain_complex(sp, 0, 1, F(2))
    # the only degree-2 generator is (a, c, b); both drops shorten it
    assert cc.basis[2] == [(0, 2, 1)]
    assert cc.rank(1) == 0  # no two-point sequence reaches length 2
    assert cc.matrix(2) == [[]] or cc.matrix(2) == []
    assert cc.validate()
    # diagonal pair: two bounces, boundary still zero
    cc = magnitude_chain_complex(sp, 0, 0, F(2))
    assert cc.rank(2) == 2


def length_rule_boundaries(space, a, b, l):
    """Boundary matrices by the interior-drop rule: a face counts unless
    dropping the point shortens the sequence."""
    basis = {}
    for s in lightlike_sequences(space, a, b, l):
        basis.setdefault(len(s) - 1, []).append(s)
    boundary = {}
    for k, cols in basis.items():
        cols.sort()
        rows = sorted(basis.get(k - 1, []))
        mat = [[0] * len(cols) for _ in rows]
        for c, s in enumerate(cols):
            for i in range(1, len(s) - 1):
                face = s[:i] + s[i + 1:]
                if seq_length(space, face) != l:
                    continue
                mat[rows.index(face)][c] += (-1) ** i
        boundary[k] = mat
    return basis, boundary


def test_boundaries_match_length_rule_on_random_spaces():
    nonzero = 0
    for den_max in (1, 6):
        for seed in range(5):
            sp = random_metric_space(5, seed, den_max)
            for a in range(sp.n):
                for b in range(sp.n):
                    for l in pair_achievable_lengths(sp, a, b, F(3)):
                        cc = magnitude_chain_complex(sp, a, b, l)
                        basis, boundary = length_rule_boundaries(sp, a, b, l)
                        assert cc.basis == basis
                        for k, mat in boundary.items():
                            assert cc.matrix(k) == mat, (den_max, seed, a, b, l, k)
                        assert all(
                            all(col.values())
                            for cols in cc.boundary.values()
                            for col in cols
                        )
                        nonzero += sum(
                            1 for mat in boundary.values() for row in mat for v in row if v
                        )
    assert nonzero  # the corpus exercises faces that keep the length


def twist_side(side):
    return lambda: getattr(twist_from_doc(load_fixture("sycamore_twist")), side).space


FACE_RULE_CASES = {
    **{
        "random-den%d-seed%d" % (den_max, seed): (
            lambda den_max=den_max, seed=seed: random_metric_space(5, seed, den_max),
            3,
        )
        for den_max in (1, 6)
        for seed in range(5)
    },
    "c4": (lambda: fixture_space("c4"), 6),
    "k4": (lambda: fixture_space("k4"), 5),
    "sycamore_twist-x": (twist_side("x"), 4),
    "sycamore_twist-y": (twist_side("y"), 4),
    "mv_triangles-h": (mv_triangles_part("h"), 6),
}


@pytest.mark.parametrize("case", sorted(FACE_RULE_CASES))
def test_smooth_face_rule_matches_every_entry_rule(case):
    # the smooth-interior rule skips only deletions that give no generator:
    # the rule of every entry, which looks each face up, is its oracle
    make, lmax = FACE_RULE_CASES[case]
    space = make()
    sizes = Counter()
    for a in range(space.n):
        for b in range(space.n):
            for l in pair_achievable_lengths(space, a, b, F(lmax)):
                cells = lightlike_sequences(space, a, b, l)
                for s in cells:
                    want = [i for i in range(len(s)) if is_smooth(space, s, i)]
                    assert smooth_points(space, s) == want
                    sizes[min(len(s), 3)] += 1
                smooth = face_complex(cells, lambda s: smooth_points(space, s))
                full = face_complex(cells)
                assert smooth.basis == full.basis, (case, a, b, l)
                assert smooth.boundary == full.boundary, (case, a, b, l)
                assert magnitude_chain_complex(space, a, b, l).boundary == full.boundary
    # l = 0 gives the one-point sequences, l = d(a, b) the two-point ones
    assert sizes[1] == space.n
    assert sizes[2] == sum(
        1 for row in space.dist for d in row if 0 < d <= lmax
    )
    assert sizes[3]


def test_face_rule_skips_deletions_outside_it():
    # a deletion outside the rule is never looked up, even when its face is
    # a cell; without a rule every entry is tried, and a face that is not a
    # cell counts as zero
    cells = [("x",), ("y",), ("x", "y")]
    assert face_complex(cells).boundary == {0: [{}, {}], 1: [{0: -1, 1: 1}]}
    first = face_complex(cells, lambda s: [0] if len(s) == 2 else [])
    assert first.boundary == {0: [{}, {}], 1: [{1: 1}]}
    assert face_complex(cells, lambda s: []).boundary[1] == [{}]


def test_c4_antipodal_sphere_class():
    c4 = fixture_space("c4")
    a, b = c4.index("a"), c4.index("b")
    assert c4.dist[a][b] == 2
    summary = homology(magnitude_chain_complex(c4, a, b, F(2)))
    assert summary.betti == ((2, 1),)
    assert summary.torsion == ()


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_k3_total_rank_wedge_count(l):
    k3 = fixture_space("k3")
    total = magnitude_homology_total(homology_table(k3, F(l)), F(l))
    assert total.betti == ((l, 3 * 2 ** l),)
    assert total.torsion == ()


def test_k4_total_rank_wedge_count():
    k4 = fixture_space("k4")
    total = magnitude_homology_total(homology_table(k4, F(2)), F(2))
    assert total.betti == ((2, 4 * 3 ** 2),)


@pytest.mark.parametrize("name,edges", [("p2", 2), ("p3", 3), ("s3", 3)])
def test_tree_totals_are_diagonal(name, edges):
    tree = fixture_space(name)
    zero = magnitude_homology_total(homology_table(tree, F(0)), F(0))
    assert zero.betti == ((0, tree.n),)
    for l in (1, 2, 3):
        total = magnitude_homology_total(homology_table(tree, F(l)), F(l))
        assert total.betti == ((l, 2 * edges),)
        assert total.torsion == ()



def all_pairs_total(space, l):
    """MH at length l summed over all n^2 ordered endpoint pairs, each pair's
    complex built and reduced whether or not the pair reaches l."""
    return HomologySummary.direct_sum(
        homology(magnitude_chain_complex(space, a, b, l))
        for a in range(space.n)
        for b in range(space.n)
    )


TABLE_CASES = {
    "k3": (lambda: fixture_space("k3"), 3),
    "c4": (lambda: fixture_space("c4"), 4),
    "p2": (lambda: fixture_space("p2"), 3),
    "mv_triangles-g": (mv_triangles_part("g"), 6),
    "mv_triangles-h": (mv_triangles_part("h"), 6),
    "mv_triangles-glued": (mv_triangles_part("space"), 6),
    "random-den1": (lambda: random_metric_space(5, 0, 1), 3),
    "random-den6": (lambda: random_metric_space(5, 0, 6), 3),
    # Z/2 in degree 3 at length 4, so torsion is compared too
    "rp2-hasse": (lambda: hasse_graph(RP2).space, 4),
}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_homology_table_matches_all_pairs_oracle(case):
    make, lmax = TABLE_CASES[case]
    space = make()
    table = homology_table(space, F(lmax))
    lengths = achievable_lengths(space, F(lmax))
    assert sorted(set().union(*table.values())) == lengths
    torsion = False
    for l in lengths:
        total = magnitude_homology_total(table, l)
        assert total == all_pairs_total(space, l), (case, l)
        torsion = torsion or bool(total.torsion)
    assert torsion == (case == "rp2-hasse")

def test_chain_iso_over_small_corpus():
    for name in ("two_point", "k3", "c4", "p2"):
        sp = fixture_space(name)
        for a in range(sp.n):
            for b in range(sp.n):
                for l in pair_achievable_lengths(sp, a, b, F(3)):
                    rep = verify_chain_iso(sp, a, b, l)
                    assert rep.ok, (name, a, b, l, rep.detail)


def test_chain_iso_reports_a_negated_generator(monkeypatch):
    # Negating one generator (its column in d_k and its row in d_(k+1)) keeps
    # d o d = 0 but breaks the sign-for-sign correspondence.  The module is
    # reached through importlib because magtop.homology names the function.
    homology_module = importlib.import_module("magtop.homology")
    original = homology_module.relative_chain_complex

    def negated(pair):
        cc = original(pair)
        k = max(cc.degrees())
        g = next(c for c, col in enumerate(cc.boundary[k]) if col)
        boundary = {d: [dict(col) for col in cols] for d, cols in cc.boundary.items()}
        boundary[k][g] = {r: -v for r, v in boundary[k][g].items()}
        for col in boundary.get(k + 1, ()):
            if g in col:
                col[g] = -col[g]
        return ChainComplex(cc.basis, boundary)

    monkeypatch.setattr(homology_module, "relative_chain_complex", negated)
    # on k3 and k4 every sequence boundary up to length 4 is zero
    rep = verify_chain_iso(fixture_space("c4"), 0, 0, F(4))
    assert rep == VerifyReport(False, "boundaries disagree out of degree 4")


def test_suspension_shift_over_small_corpus():
    for name in ("two_point", "k3", "c4", "s3"):
        sp = fixture_space(name)
        for a in range(sp.n):
            for b in range(sp.n):
                for l in pair_achievable_lengths(sp, a, b, F(3)):
                    if l == 0:
                        continue
                    rep = verify_suspension_shift(sp, a, b, l)
                    assert rep.ok, (name, a, b, l, rep.detail)


def test_suspension_worked_contrast_at_length_two():
    # K3 pair: the stripped interval is a point, and the short side holds
    # the empty simplex, so the point carries a class
    k3 = fixture_space("k3")
    c = k3.index("c")
    pair = inner_pair(k3, 0, 1, F(2))
    assert pair == ([((1, c),)], False)
    assert -1 not in relative_chain_complex(pair).basis
    assert homology(magnitude_chain_complex(k3, 0, 1, F(2))).betti == ((2, 1),)
    # path a-c-b: the same point, but the short side is void, so the empty
    # simplex is a cell and the class dies
    p2 = fixture_space("p2")
    a, b, c = p2.index("a"), p2.index("b"), p2.index("c")
    pair = inner_pair(p2, a, b, F(2))
    assert pair == ([((1, c),)], True)
    assert relative_chain_complex(pair).basis[-1] == [()]
    assert homology(magnitude_chain_complex(p2, a, b, F(2))) == HomologySummary()


def test_two_point_shift_from_empty_interval():
    # adjacent pair at l = d: group Z in degree 1 from the degree -1 class
    two = fixture_space("two_point")
    # the interval is empty and nothing is short, so the empty simplex is
    # the one cell
    pair = inner_pair(two, 0, 1, F(1))
    assert pair == ([], True)
    rel = relative_chain_complex(pair)
    assert rel.basis == {-1: [()]}
    s = homology(rel)
    assert s.betti == ((-1, 1),)
    assert homology(magnitude_chain_complex(two, 0, 1, F(1))).betti == ((1, 1),)


def test_kunneth_on_products():
    k2 = fixture_space("two_point")
    p2 = fixture_space("p2")
    assert verify_kunneth(k2, k2, F(3)).ok
    assert verify_kunneth(k2, p2, F(3)).ok


def test_diagonality_of_complete_graphs_and_trees():
    for name in ("k3", "k4", "p3", "s3"):
        sp = fixture_space(name)
        for l in (0, 1, 2):
            total = magnitude_homology_total(homology_table(sp, F(l)), F(l))
            assert all(k == l for k, _ in total.betti), (name, l)


def test_fractional_lengths_carry_homology():
    # weighted path: bounce lengths mix degrees at a single l
    sp = from_weighted_graph(
        ("a", "b", "c"), [("a", "b", F(1, 2)), ("b", "c", F(3, 4))]
    )
    table = homology_table(sp, F(3, 2))
    assert magnitude_homology_total(table, F(1)).betti == ((2, 2),)
    assert magnitude_homology_total(table, F(3, 2)).betti == ((2, 2), (3, 2))
    # a length no bounce can realize carries nothing
    assert magnitude_homology_total(table, F(5, 4)) == HomologySummary()

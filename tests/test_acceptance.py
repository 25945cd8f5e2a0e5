"""Acceptance gate: twelve exact end-to-end checks, one printed line each.

Every assertion is an exact equality over integers or rationals; there are
no tolerances anywhere.  Each check computes first, prints its verdict
line, then asserts, so a red line always carries its reason.
"""

from fractions import Fraction

from magtop.causal import achievable_lengths, pair_achievable_lengths
from magtop.docs import (
    gluing_from_doc,
    load_fixture,
    space_from_doc,
    twist_from_doc,
)
from magtop.frames import (
    FourCutObstruction,
    framed_betti_prediction,
    hasse_graph,
    thin_frames,
)
from magtop.homology import (
    homology,
    homology_table,
    magnitude_chain_complex,
    magnitude_homology_total,
    verify_chain_iso,
    verify_kunneth,
    verify_suspension_shift,
)
from magtop.metric import (
    INFINITE,
    MetricSpace,
    four_cuts,
    glue,
    product,
    random_metric_space,
)
from magtop.morse import verify_sycamore
from magtop.mv import check_gated, verify_mv
from magtop.series import (
    HahnPolynomial,
    euler_check,
    format_series,
    magnitude,
    perturbative_inverse,
    z_inverse,
)

SPACE_FIXTURES = (
    "two_point",
    "k3",
    "k4",
    "c4",
    "p2",
    "p3",
    "s3",
    "sycamore_g",
    "sycamore_h",
)


def fixture_space(name):
    return space_from_doc(load_fixture(name))


def finish(number, problems):
    verdict = "PASS" if not problems else "FAIL (%s)" % problems[0]
    print("criterion %d: %s" % (number, verdict))
    assert not problems, "; ".join(problems)


def test_criterion_01_cycle_antipodal_sphere():
    problems = []
    x = fixture_space("c4")
    antipodal = [
        (a, b)
        for a in range(x.n)
        for b in range(x.n)
        if a != b and x.dist[a][b] == 2
    ]
    if len(antipodal) != 4:
        problems.append("expected 4 ordered antipodal pairs")
    for a, b in antipodal:
        summary = homology(magnitude_chain_complex(x, a, b, 2))
        if summary.betti != ((2, 1),):
            problems.append(
                "pair (%s,%s): betti %r"
                % (x.labels[a], x.labels[b], summary.betti)
            )
        if summary.torsion != ():
            problems.append(
                "pair (%s,%s): unexpected torsion" % (x.labels[a], x.labels[b])
            )
    finish(1, problems)


def test_criterion_02_complete_graph_totals():
    problems = []
    x = fixture_space("k3")
    for l in range(4):
        total = magnitude_homology_total(homology_table(x, Fraction(l)), Fraction(l))
        expected = ((l, 3 * 2**l),)
        if total.betti != expected:
            problems.append("l=%d: total betti %r" % (l, total.betti))
        if total.torsion != ():
            problems.append("l=%d: unexpected torsion" % l)
    finish(2, problems)


def test_criterion_03_tree_totals_two_ways():
    problems = []
    for name, edges in (("p2", 2), ("s3", 3)):
        x = fixture_space(name)
        zero = magnitude_homology_total(homology_table(x, Fraction(0)), Fraction(0))
        if zero.betti != ((0, x.n),):
            problems.append("%s l=0: %r" % (name, zero.betti))
        for l in (1, 2, 3):
            thin = sum(1 for f in thin_frames(x, l) if len(f) - 1 == l)
            total = magnitude_homology_total(homology_table(x, Fraction(l)), Fraction(l))
            if thin != 2 * edges:
                problems.append("%s l=%d: thin count %d" % (name, l, thin))
            if total.betti != ((l, 2 * edges),):
                problems.append("%s l=%d: snf %r" % (name, l, total.betti))
    finish(3, problems)


def test_criterion_04_magnitude_series_two_routes():
    problems = []
    got = format_series(magnitude(fixture_space("two_point"), 3))
    if got != "2 - 2 q^1 + 2 q^2 - 2 q^3":
        problems.append("two-point magnitude %r" % got)
    for seed in range(20):
        x = random_metric_space(4 + seed % 2, seed)
        inv = z_inverse(x, 3)
        for a in range(x.n):
            for b in range(x.n):
                direct = HahnPolynomial(perturbative_inverse(x, a, b, 3), 3)
                if inv.entries[a][b] != direct:
                    problems.append(
                        "seed %d entry (%d,%d) disagrees" % (seed, a, b)
                    )
    finish(4, problems)


def test_criterion_05_euler_identity():
    problems = []
    spaces = [fixture_space(n) for n in ("k3", "c4", "p3")]
    spaces += [random_metric_space(5, seed) for seed in range(10)]
    for i, x in enumerate(spaces):
        report = euler_check(x, 3)
        if not report.ok:
            problems.append("space %d: %s" % (i, report.mismatches[:1]))
        if report.checked == 0:
            problems.append("space %d: nothing checked" % i)
    finish(5, problems)


def test_criterion_06_chain_isomorphism_corpus():
    problems = []
    for name in SPACE_FIXTURES:
        x = fixture_space(name)
        for a in range(x.n):
            for b in range(x.n):
                for l in pair_achievable_lengths(x, a, b, 3):
                    report = verify_chain_iso(x, a, b, l)
                    if not report.ok:
                        problems.append(
                            "%s (%d,%d) l=%s: %s" % (name, a, b, l, report.detail)
                        )
    finish(6, problems)


def test_criterion_07_suspension_shift_with_worked_cases():
    problems = []
    for name in SPACE_FIXTURES:
        x = fixture_space(name)
        for a in range(x.n):
            for b in range(x.n):
                for l in pair_achievable_lengths(x, a, b, 3):
                    if l == 0:
                        continue  # distinct cone points need positive length
                    report = verify_suspension_shift(x, a, b, l)
                    if not report.ok:
                        problems.append(
                            "%s (%d,%d) l=%s: %s" % (name, a, b, l, report.detail)
                        )
    # worked contrast at l=2: triangle sees a sphere, path a-c-b sees nothing
    k3 = fixture_space("k3")
    tri = homology(magnitude_chain_complex(k3, 0, k3.index("b"), 2))
    if tri.betti != ((2, 1),):
        problems.append("triangle pair at l=2: %r" % (tri.betti,))
    path = fixture_space("p2")
    walk = homology(
        magnitude_chain_complex(path, path.index("a"), path.index("b"), 2)
    )
    if walk.betti != ():
        problems.append("path endpoints at l=2: %r" % (walk.betti,))
    finish(7, problems)


def test_criterion_08_kunneth_rank_level():
    problems = []
    two = fixture_space("two_point")
    p2 = fixture_space("p2")
    for y, tag in ((two, "square"), (p2, "prism")):
        report = verify_kunneth(two, y, 3)
        if not report.ok:
            problems.append("%s: %s" % (tag, report.detail))
    square, _ = product(two, two)
    total = magnitude_homology_total(homology_table(square, Fraction(2)), Fraction(2))
    if total.betti_map().get(2) != 12:
        problems.append("square l=2 degree 2: %s" % total.betti_map().get(2))
    finish(8, problems)


def test_criterion_09_frame_prediction_and_obstruction():
    problems = []
    spaces = [fixture_space(n) for n in ("k3", "k4", "p2", "s3")]
    spaces += [random_metric_space(4, seed) for seed in range(3)]
    for i, x in enumerate(spaces):
        if four_cuts(x) is not INFINITE:
            problems.append("space %d unexpectedly obstructed" % i)
            continue
        lmax = 3 if x.n <= 4 and i < 4 else 2
        for l in achievable_lengths(x, lmax):
            for a in range(x.n):
                for b in range(x.n):
                    pred = framed_betti_prediction(x, a, b, l)
                    summary = homology(magnitude_chain_complex(x, a, b, l))
                    got = {k: r for k, r in summary.betti if r}
                    if pred != got:
                        problems.append(
                            "space %d (%d,%d) l=%s: %r vs %r"
                            % (i, a, b, l, pred, got)
                        )
    c4 = fixture_space("c4")
    if four_cuts(c4) != 3:
        problems.append("cycle threshold %r" % (four_cuts(c4),))
    try:
        framed_betti_prediction(c4, 0, 1, 3)
        problems.append("no obstruction raised on the cycle at l=3")
    except FourCutObstruction:
        pass
    finish(9, problems)


def test_criterion_10_additivity_over_gated_gluings():
    problems = []

    def msp(labels, rows):
        rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        return MetricSpace(tuple(labels), rows)

    path3 = msp(("r", "g1", "g2"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    star3 = msp(("r", "h1", "h2"), [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    edge2 = msp(("j0", "j1"), [[0, 1], [1, 0]])
    gluings = [
        ("tree+tree", glue(path3, star3, (0,), (0,))),
        ("tree+edge", glue(star3, edge2, (1,), (0,))),
        ("triangle edge", gluing_from_doc(load_fixture("mv_triangles"))),
    ]
    for tag, gl in gluings:
        refusal = check_gated(gl)
        if refusal is not None:
            problems.append("%s: not gated (%s)" % (tag, refusal))
            continue
        report = verify_mv(gl, 3)
        if not report.ok:
            problems.append("%s: %s" % (tag, report.detail))
        if not report.rows:
            problems.append("%s: no rows compared" % tag)
    finish(10, problems)


def test_criterion_11_twist_invariance():
    problems = []
    twist = twist_from_doc(load_fixture("sycamore_twist"))
    report = verify_sycamore(twist, 5)
    if not report.ok:
        problems.append(report.detail)
    if not all(row[4] for row in report.rows):
        problems.append("some per-dimension counts differ")
    if not report.rows:
        problems.append("no lengths compared")
    finish(11, problems)


def test_criterion_12_realization():
    problems = []
    hg = hasse_graph([("a", "b"), ("b", "c"), ("a", "c")])
    a, b = hg.space.index(hg.zero), hg.space.index(hg.one)
    summary = homology(magnitude_chain_complex(hg.space, a, b, hg.l))
    if summary.betti != ((3, 1),) or summary.torsion != ():
        problems.append("triangle boundary: %r" % (summary.betti,))
    # The realization carries the *reduced* homology of the complex shifted
    # up two degrees, as the triangle check above uses: H~1(S^1) lands in
    # degree 3.  A point has zero reduced homology, so a single vertex must
    # realize to zero homology in every degree.  Betti 1 in degree 2 would be
    # the unreduced H0(point) shifted up two, a convention under which the
    # triangle would have to give (2, 1) as well.  By hand: the Hasse graph
    # is the path 0hat-a-1hat at l = 2, with one generator (0hat, 1hat) in
    # degree 1 and one generator (0hat, a, 1hat) in degree 2; a lies on a
    # geodesic, so the boundary between them is [[-1]] and the complex is
    # acyclic.  test_frames.py::test_hasse_realizes_reduced_homology checks
    # the same input.  The rank checks keep the zero homology from coming
    # from an empty enumeration.
    hv = hasse_graph([("a",)])
    a, b = hv.space.index(hv.zero), hv.space.index(hv.one)
    chains = magnitude_chain_complex(hv.space, a, b, hv.l)
    ranks = (chains.rank(1), chains.rank(2))
    if ranks != (1, 1):
        problems.append(
            "single vertex: expected chain ranks (1, 1) in degrees 1 and 2, "
            "computed %r" % (ranks,)
        )
    vertex = homology(chains)
    if vertex.betti != () or vertex.torsion != ():
        problems.append(
            "single vertex: expected zero homology, computed betti %r torsion %r"
            % (vertex.betti, vertex.torsion)
        )
    finish(12, problems)

"""Truncated q-series arithmetic, inverses, and the counting identities."""

import importlib
import math
import random
from fractions import Fraction

import pytest

from magtop.causal import achievable_lengths, pair_achievable_lengths
from magtop.docs import load_fixture, space_from_doc
from magtop.frames import hasse_graph
from magtop.homology import homology, magnitude_chain_complex
from magtop.metric import from_distance_matrix, random_metric_space
from magtop.series import (
    HahnPolynomial,
    SeriesMatrix,
    euler_check,
    format_series,
    magnitude,
    perturbative_inverse,
    series_identity,
    weighting,
    z_inverse,
    z_matrix,
)
from lengths import min_positive_distance
from simplicial import RP2

F = Fraction


def fixture_space(name):
    return space_from_doc(load_fixture(name))


def neg(p):
    return HahnPolynomial({e: -c for e, c in p.terms.items()}, p.truncation)


def add(x, y):
    """The sum of two series at the lower truncation, term by term."""
    out = dict(x.terms)
    for e, c in y.terms.items():
        out[e] = out.get(e, F(0)) + c
    return HahnPolynomial(out, min(x.truncation, y.truncation))


def matrix_sum(x, y):
    rows = tuple(
        tuple(add(a, b) for a, b in zip(rx, ry)) for rx, ry in zip(x.entries, y.entries)
    )
    return SeriesMatrix(rows, min(x.truncation, y.truncation))


def power_sum_inverse(space, lmax):
    """Inverse of the similarity matrix modulo q^(>lmax).

    Summing (I - Z)^k up to k = ceil(lmax / r0) is exact at this
    truncation, where r0 is the minimal positive distance.
    """
    lmax = Fraction(lmax)
    ident = series_identity(space.n, lmax)
    r0 = min_positive_distance(space)
    cutoff = 0 if r0 is None else math.ceil(lmax / r0)
    minus_z = tuple(tuple(neg(z) for z in row) for row in z_matrix(space, lmax).entries)
    nil = matrix_sum(ident, SeriesMatrix(minus_z, lmax))
    acc = ident
    power = ident
    for _ in range(cutoff):
        power = power * nil
        acc = matrix_sum(acc, power)
    return acc


def random_poly(rng, trunc):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = F(rng.randint(0, 8), rng.choice((1, 2, 4)))
        terms[e] = F(rng.randint(-3, 3))
    return HahnPolynomial(terms, trunc)


def test_polynomial_ring_laws():
    rng = random.Random(3)
    for _ in range(40):
        trunc = F(rng.randint(2, 6))
        a = random_poly(rng, trunc)
        b = random_poly(rng, trunc)
        c = random_poly(rng, trunc)
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * add(b, c) == add(a * b, a * c)
        assert add(a, HahnPolynomial.zero(trunc)) == a
        assert a * HahnPolynomial.one(trunc) == a
        assert add(a, neg(a)) == HahnPolynomial.zero(trunc)


def test_truncation_drops_high_terms():
    p = HahnPolynomial({0: 1, 3: 5}, truncation=F(2))
    assert p.coefficient(3) == 0
    assert p.support() == [F(0)]
    # products respect the lower of the two truncations
    a = HahnPolynomial({2: 1}, truncation=F(4))
    b = HahnPolynomial({3: 1}, truncation=F(3))
    assert (a * b).truncation == F(3)
    assert (a * b).support() == []
    # equality distinguishes truncations
    assert HahnPolynomial({1: 1}, F(2)) != HahnPolynomial({1: 1}, F(3))


def test_format_series_layout():
    assert format_series(HahnPolynomial.zero(3)) == "0"
    assert format_series(HahnPolynomial.one(3)) == "1"
    p = HahnPolynomial({0: 2, 1: -2, 2: 2, 3: -2}, 3)
    assert format_series(p) == "2 - 2 q^1 + 2 q^2 - 2 q^3"
    assert format_series(HahnPolynomial({F(1, 2): 1, 2: -3}, 3)) == (
        "q^1/2 - 3 q^2"
    )
    assert format_series(HahnPolynomial({1: -1}, 3)) == "-q^1"


def test_z_matrix_entries_are_distance_monomials():
    sp = fixture_space("two_point")
    z = z_matrix(sp, F(3))
    assert z.entry(0, 0) == HahnPolynomial.one(F(3))
    assert z.entry(0, 1) == HahnPolynomial.monomial(1, F(3))


def test_two_point_closed_forms():
    sp = fixture_space("two_point")
    inv = z_inverse(sp, F(3))
    # 1/(1-q^2) and -q/(1-q^2) cut below q^4
    assert inv.entry(0, 0) == HahnPolynomial({0: 1, 2: 1}, F(3))
    assert inv.entry(0, 1) == HahnPolynomial({1: -1, 3: -1}, F(3))
    assert format_series(magnitude(sp, F(3))) == "2 - 2 q^1 + 2 q^2 - 2 q^3"


def test_one_point_magnitude_is_one():
    sp = from_distance_matrix(("a",), [[0]])
    assert format_series(magnitude(sp, F(3))) == "1"
    assert [format_series(w) for w in weighting(sp, F(3))] == ["1"]


def test_z_inverse_times_z_is_identity():
    for seed in range(6):
        sp = random_metric_space(4, seed)
        lmax = F(3)
        prod = z_inverse(sp, lmax) * z_matrix(sp, lmax)
        ident = series_identity(sp.n, lmax)
        for i in range(sp.n):
            for j in range(sp.n):
                assert prod.entry(i, j) == ident.entry(i, j), (seed, i, j)


def test_z_inverse_matches_power_sum_oracle():
    # forward substitution against the power sum: same terms, same truncation
    lmaxes = (F(-1), F(0), F(1, 7), F(1), F(5, 2), F(3), F(4))
    spaces = [
        random_metric_space(n, seed, den)
        for n in range(1, 8)
        for seed in range(5)
        for den in (1, 6, 997)
    ]
    single = from_distance_matrix(("a",), [[0]])
    # a scale past 10**5: a dense list would need lmax * scale slots per state
    big = from_distance_matrix(
        ("a", "b", "c"),
        [[0, 1, F(100004, 100003)], [1, 0, F(3, 2)], [F(100004, 100003), F(3, 2), 0]],
    )
    assert big._scaled[0] >= 10**5
    for sp in spaces + [single, big]:
        for lmax in lmaxes:
            got = z_inverse(sp, lmax)
            assert got == power_sum_inverse(sp, lmax), (sp, lmax)
    # the states are the achievable (point, length) pairs, not the slots
    inv = z_inverse(big, F(4))
    terms = sum(len(inv.entry(i, j).terms) for i in range(3) for j in range(3))
    assert terms <= 9 * len(achievable_lengths(big, F(4))) < 4 * big._scaled[0]


def test_inverse_routes_agree():
    # the matrix route and the signed path sum produce identical tables
    for seed in range(20):
        sp = random_metric_space(4 + seed % 2, seed)
        inv = z_inverse(sp, F(3))
        for a in range(sp.n):
            for b in range(sp.n):
                assert inv.entry(a, b) == HahnPolynomial(
                    perturbative_inverse(sp, a, b, F(3)), F(3)
                ), (seed, a, b)


def test_weighting_rows_sum_to_magnitude():
    sp = fixture_space("c4")
    lmax = F(3)
    total = HahnPolynomial.zero(lmax)
    for w in weighting(sp, lmax):
        total = add(total, w)
    assert total == magnitude(sp, lmax)


def test_euler_identity_on_fixtures_and_random_spaces():
    for name in ("k3", "c4", "p3"):
        rep = euler_check(fixture_space(name), F(3))
        assert rep.ok, (name, rep.mismatches)
        assert rep.checked > 0
    for seed in range(10):
        rep = euler_check(random_metric_space(5, seed), F(3))
        assert rep.ok, (seed, rep.mismatches)


def betti_euler(summary):
    return sum((-1) ** k * r for k, r in summary.betti)


ORACLE_SPACES = ["k3", "c4", "p3", "sycamore_g"] + [
    "random:%d:%d" % (seed, den_max) for den_max in (1, 6) for seed in range(4)
]


@pytest.mark.parametrize("name", ORACLE_SPACES)
def test_path_sum_is_the_homology_euler_characteristic(name):
    # the homology route, chain complex and Smith normal form, stays the
    # oracle of the signed path sum that euler_check reads
    if name.startswith("random:"):
        _, seed, den_max = name.split(":")
        sp = random_metric_space(5, int(seed), int(den_max))
    else:
        sp = fixture_space(name)
    lmax = F(3)
    for a in range(sp.n):
        for b in range(sp.n):
            path_sum = perturbative_inverse(sp, a, b, lmax)
            lengths = pair_achievable_lengths(sp, a, b, lmax)
            assert list(path_sum) == lengths
            for l in lengths:
                summary = homology(magnitude_chain_complex(sp, a, b, l))
                assert path_sum[l] == betti_euler(summary), (a, b, l)


def test_path_sum_ignores_torsion_on_the_rp2_hasse_pair():
    # (0hat, 1hat) at l = 4 has homology Z/2 in degree 3 and no Betti
    # number, so its Euler characteristic is 0 as the signed count is
    hg = hasse_graph(RP2)
    x = hg.space
    a, b = x.index(hg.zero), x.index(hg.one)
    summary = homology(magnitude_chain_complex(x, a, b, hg.l))
    assert (summary.betti, summary.torsion) == ((), ((3, (2,)),))
    assert perturbative_inverse(x, a, b, hg.l)[hg.l] == 0


def test_euler_check_builds_no_complex(monkeypatch):
    def refuse(*args):
        raise AssertionError("euler_check reduced a complex")

    # the package attribute magtop.homology is the re-exported function
    module = importlib.import_module("magtop.homology")
    monkeypatch.setattr(module, "face_complex", refuse)
    monkeypatch.setattr(module, "smith_normal_form", refuse)
    rep = euler_check(fixture_space("k4"), F(4))
    assert rep.ok and rep.checked > 0


def plus_chain(series, truncation):
    """Sum by a chain of pairwise sums from a zero of the given truncation."""
    acc = HahnPolynomial.zero(truncation)
    for poly in series:
        acc = add(acc, poly)
    return acc


def spaces_of_scale(scale, den_max, count=3):
    """The first seeded 5-point random spaces whose distances have the
    given least common denominator."""
    found = []
    for seed in range(40):
        sp = random_metric_space(5, seed, den_max)
        if sp._scaled[0] == scale:
            found.append(sp)
            if len(found) == count:
                return found
    raise AssertionError("no %d seeded spaces of scale %d" % (count, scale))


def assert_same_series(got, want):
    assert got.terms == want.terms
    assert got.truncation == want.truncation
    assert format_series(got) == format_series(want)


def test_one_pass_sums_match_plus_chain_oracle():
    for scale, den_max in ((1, 1), (2, 2), (60, 6)):
        for sp in spaces_of_scale(scale, den_max):
            for lmax in (2, 3, 4):
                lmax = F(lmax)
                inv = z_inverse(sp, lmax)
                want_w = [plus_chain(row, lmax) for row in inv.entries]
                for got, want in zip(weighting(sp, lmax), want_w, strict=True):
                    assert_same_series(got, want)
                assert_same_series(magnitude(sp, lmax), plus_chain(want_w, lmax))
                # equal truncations, then a right and a left factor cut higher
                for left, right in (
                    (z_matrix(sp, lmax), inv),
                    (inv, z_matrix(sp, lmax + 1)),
                    (z_matrix(sp, lmax + 1), inv),
                ):
                    prod = left * right
                    assert prod.truncation == min(left.truncation, right.truncation)
                    for i in range(sp.n):
                        for j in range(sp.n):
                            want = plus_chain(
                                (left.entry(i, k) * right.entry(k, j) for k in range(sp.n)),
                                left.truncation,
                            )
                            assert_same_series(prod.entry(i, j), want)

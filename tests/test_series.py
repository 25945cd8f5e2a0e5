"""Truncated q-series arithmetic, inverses, and the counting identities."""

import random
from fractions import Fraction

from magtop.docs import load_fixture, space_from_doc
from magtop.metric import from_distance_matrix, random_metric_space
from magtop.series import (
    HahnPolynomial,
    euler_check,
    format_series,
    magnitude,
    perturbative_inverse,
    series_identity,
    weighting,
    z_inverse,
    z_matrix,
)

F = Fraction


def fixture_space(name):
    return space_from_doc(load_fixture(name))


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
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + HahnPolynomial.zero(trunc) == a
        assert a * HahnPolynomial.one(trunc) == a
        assert a - a == HahnPolynomial.zero(trunc)
        assert 2 * a == a + a


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
    assert format_series(HahnPolynomial.zero()) == "0"
    assert format_series(HahnPolynomial.one()) == "1"
    p = HahnPolynomial({0: 2, 1: -2, 2: 2, 3: -2})
    assert format_series(p) == "2 - 2 q^1 + 2 q^2 - 2 q^3"
    assert format_series(HahnPolynomial({F(1, 2): 1, 2: -3})) == (
        "q^1/2 - 3 q^2"
    )
    assert format_series(HahnPolynomial({1: -1})) == "-q^1"


def test_z_matrix_entries_are_distance_monomials():
    sp = fixture_space("two_point")
    z = z_matrix(sp, F(3))
    assert z.entry(0, 0) == HahnPolynomial.one(F(3))
    assert z.entry(0, 1) == HahnPolynomial.monomial(1, 1, F(3))


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


def test_inverse_routes_agree():
    # the matrix route and the signed path sum produce identical tables
    for seed in range(20):
        sp = random_metric_space(4 + seed % 2, seed)
        inv = z_inverse(sp, F(3))
        for a in range(sp.n):
            for b in range(sp.n):
                assert inv.entry(a, b) == perturbative_inverse(
                    sp, a, b, F(3)
                ), (seed, a, b)


def test_weighting_rows_sum_to_magnitude():
    sp = fixture_space("c4")
    lmax = F(3)
    total = HahnPolynomial.zero(lmax)
    for w in weighting(sp, lmax):
        total = total + w
    assert total == magnitude(sp, lmax)


def test_euler_identity_on_fixtures_and_random_spaces():
    for name in ("k3", "c4", "p3"):
        rep = euler_check(fixture_space(name), F(3))
        assert rep.ok, (name, rep.mismatches)
        assert rep.checked > 0
    for seed in range(10):
        rep = euler_check(random_metric_space(5, seed), F(3))
        assert rep.ok, (seed, rep.mismatches)

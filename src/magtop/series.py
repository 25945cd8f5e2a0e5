"""Truncated generalized power series in q with rational exponents.

A series is a finite map {exponent: coefficient} with both sides exact
rationals, truncated above a required cutoff, the lmax it serves.  A
product keeps the lower cutoff, and a sum (a weighting, the magnitude, an
entry of a matrix product) collects the terms of all its series in one
dict and builds one series at the end, at the lowest cutoff; those are
all the arithmetic the program needs.  The similarity matrix is
Z = I + N, where every entry of N has valuation at least the least
positive distance, so X = Z^-1 is solved one exponent at a time by
forward substitution on the space's scaled integer distances: every
coefficient is an integer, and each entry becomes a series once, at the
end.  euler_check certifies that inverse, Z X = I at the truncation,
before comparing it with the signed sum over sequences.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .causal import _pair_lengths, lightlike_sequences
from .metric import InternalFault, _as_fraction


class HahnPolynomial:
    """Finite q-series with rational exponents, truncated above `truncation`."""

    __slots__ = ("terms", "truncation")

    def __init__(self, terms, truncation):
        self.truncation = trunc = _as_fraction(truncation)
        clean = {}
        for e, c in terms.items():
            if type(e) is not Fraction:
                e = _as_fraction(e)
            if c and e <= trunc:
                clean[e] = c if type(c) is Fraction else Fraction(c)
        self.terms = clean

    @classmethod
    def zero(cls, truncation):
        return cls({}, truncation)

    @classmethod
    def one(cls, truncation):
        return cls({0: 1}, truncation)

    @classmethod
    def monomial(cls, exponent, truncation):
        return cls({exponent: 1}, truncation)

    def coefficient(self, exponent):
        return self.terms.get(_as_fraction(exponent), Fraction(0))

    def support(self):
        return sorted(self.terms)

    def __mul__(self, other):
        trunc = min(self.truncation, other.truncation)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e > trunc:
                    continue
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return HahnPolynomial(out, trunc)

    def __eq__(self, other):
        return (
            isinstance(other, HahnPolynomial)
            and self.terms == other.terms
            and self.truncation == other.truncation
        )

    def __repr__(self):
        return "HahnPolynomial(%s)" % format_series(self)


def format_series(poly):
    """Render like "2 - 2 q^1 + 2 q^2"; exact rationals, ascending exponents."""
    if not poly.terms:
        return "0"
    parts = []
    for e in poly.support():
        c = poly.terms[e]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif mag == 1:
            body = "q^%s" % (e,)
        else:
            body = "%s q^%s" % (mag, e)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append("%s %s" % (sign, body))
    return " ".join(parts)


@dataclass(frozen=True)
class SeriesMatrix:
    entries: tuple  # tuple of tuples of HahnPolynomial
    truncation: Fraction

    @property
    def n(self):
        return len(self.entries)

    def entry(self, i, j):
        return self.entries[i][j]

    def __mul__(self, other):
        n = self.n
        rows = tuple(
            tuple(
                _sum_series(
                    (self.entries[i][k] * other.entries[k][j] for k in range(n)),
                    self.truncation,
                )
                for j in range(n)
            )
            for i in range(n)
        )
        return SeriesMatrix(rows, min(self.truncation, other.truncation))


def series_identity(n, truncation):
    rows = tuple(
        tuple(
            HahnPolynomial.one(truncation) if i == j else HahnPolynomial.zero(truncation)
            for j in range(n)
        )
        for i in range(n)
    )
    return SeriesMatrix(rows, truncation)


def z_matrix(space, truncation):
    """Similarity matrix: entry (i,j) is the monomial q^d(i,j)."""
    rows = tuple(
        tuple(
            HahnPolynomial.monomial(space.dist[i][j], truncation)
            for j in range(space.n)
        )
        for i in range(space.n)
    )
    return SeriesMatrix(rows, truncation)


def z_inverse(space, lmax):
    """Inverse of the similarity matrix modulo q^(>lmax).

    Row r of Z X = I reads X[r][c] = [r = c] - sum over p != r of
    q^D[r][p] X[p][c].  So column c is pushed over (point, scaled exponent)
    states in ascending exponent: (c, 0) starts at 1, and a state (p, e)
    with count v adds -v to (r, e + D[p][r]) for every r != p, up to
    floor(lmax * scale).
    """
    lmax = _as_fraction(lmax)
    n = space.n
    scale, d = space._scaled
    top = math.floor(lmax * scale)
    steps = [sorted((d[p][r], r) for r in range(n) if r != p) for p in range(n)]
    cols = []
    for c in range(n):
        col = [{} for _ in range(n)]  # point -> {scaled exponent: count}
        pending = {0: {c: 1}}  # past a negative top; the truncation drops it
        order = [0]
        while order:
            e = heapq.heappop(order)
            for p, v in pending.pop(e).items():
                if not v:
                    continue
                col[p][e] = v
                for step, r in steps[p]:
                    f = e + step
                    if f > top:
                        break
                    states = pending.get(f)
                    if states is None:
                        states = pending[f] = {}
                        heapq.heappush(order, f)
                    states[r] = states.get(r, 0) - v
        cols.append(col)
    rows = tuple(
        tuple(
            HahnPolynomial({Fraction(e, scale): v for e, v in cols[j][i].items()}, lmax)
            for j in range(n)
        )
        for i in range(n)
    )
    return SeriesMatrix(rows, lmax)


def perturbative_inverse(space, a, b, lengths):
    """{length: signed count} of the sequences a -> b at each given length,
    zero counts kept: sum_k (-1)^k sum q^(length), euler_check's second
    route to the entries of Z^-1."""
    return {
        length: sum(
            (-1) ** (len(seq) - 1)
            for seq in lightlike_sequences(space, a, b, length)
        )
        for length in lengths
    }


def _sum_series(series, truncation):
    """One series summing the given ones into a single term dict; the
    truncation is the least of theirs and `truncation`."""
    trunc = _as_fraction(truncation)
    out = {}
    for poly in series:
        trunc = min(trunc, poly.truncation)
        for e, c in poly.terms.items():
            out[e] = out.get(e, 0) + c
    return HahnPolynomial(out, trunc)


def weighting(space, lmax):
    """Row sums of the truncated inverse, one series per point."""
    inv = z_inverse(space, lmax)
    return [_sum_series(row, lmax) for row in inv.entries]


def magnitude(space, lmax):
    """Sum of all entries of the truncated inverse similarity matrix."""
    return _sum_series(
        (entry for row in z_inverse(space, lmax).entries for entry in row), lmax
    )


@dataclass(frozen=True)
class EulerReport:
    ok: bool
    checked: int
    mismatches: tuple


def euler_check(space, lmax):
    """Inverse-entry coefficients against homology Euler characteristics.

    For each ordered pair and each length in the support of the inverse
    entry or achievable, the coefficient of q^l in the inverse must equal
    the Euler characteristic of the pair's length-l homology.  That is
    perturbative_inverse's count at l, the signed generator count, since
    sum_k (-1)^k (n_k - r_k - r_(k+1)) telescopes (the lowest rank is 0),
    so no complex is built.  The achievable lengths come from one search
    per source (causal._pair_lengths).  Z times the inverse must first be
    the identity at the truncation, or this raises InternalFault.
    """
    lmax = _as_fraction(lmax)
    inv = z_inverse(space, lmax)
    if z_matrix(space, lmax) * inv != series_identity(space.n, lmax):
        raise InternalFault("z_inverse is not the inverse of Z at q^%s" % (lmax,))
    checked = 0
    mismatches = []
    for a, b, lengths in _pair_lengths(space, lmax):
        entry = inv.entry(a, b)
        path_sum = perturbative_inverse(space, a, b, lengths)
        for l in sorted(path_sum.keys() | entry.terms.keys()):
            chi = path_sum.get(l, 0)
            coeff = entry.coefficient(l)
            checked += 1
            if coeff != chi:
                mismatches.append((l, space.labels[a], space.labels[b], coeff, chi))
    return EulerReport(not mismatches, checked, tuple(mismatches))

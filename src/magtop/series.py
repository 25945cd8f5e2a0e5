"""Truncated generalized power series in q with rational exponents.

A series is a finite map {exponent: coefficient} with both sides exact
rationals, truncated above a cutoff.  The similarity-matrix inverse is
computed as a geometric sum of (I - Z) powers, which terminates because
every off-diagonal entry of (I - Z) has valuation at least the minimal
positive distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .causal import lightlike_sequences, pair_achievable_lengths
from .homology import homology, magnitude_chain_complex


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class HahnPolynomial:
    """Finite q-series with rational exponents, truncated above `truncation`."""

    __slots__ = ("terms", "truncation")

    def __init__(self, terms, truncation=None):
        self.truncation = None if truncation is None else Fraction(truncation)
        clean = {}
        for e, c in terms.items():
            e = Fraction(e)
            c = Fraction(c)
            if c == 0:
                continue
            if self.truncation is not None and e > self.truncation:
                continue
            clean[e] = c
        self.terms = clean

    @classmethod
    def zero(cls, truncation=None):
        return cls({}, truncation)

    @classmethod
    def one(cls, truncation=None):
        return cls({Fraction(0): Fraction(1)}, truncation)

    @classmethod
    def monomial(cls, exponent, coefficient=1, truncation=None):
        return cls({Fraction(exponent): Fraction(coefficient)}, truncation)

    def coefficient(self, exponent):
        return self.terms.get(Fraction(exponent), Fraction(0))

    def support(self):
        return sorted(self.terms)

    def __add__(self, other):
        trunc = _min_trunc(self.truncation, other.truncation)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return HahnPolynomial(out, trunc)

    def __neg__(self):
        return HahnPolynomial({e: -c for e, c in self.terms.items()}, self.truncation)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return HahnPolynomial(
                {e: c * other for e, c in self.terms.items()}, self.truncation
            )
        trunc = _min_trunc(self.truncation, other.truncation)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if trunc is not None and e > trunc:
                    continue
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return HahnPolynomial(out, trunc)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, HahnPolynomial)
            and self.terms == other.terms
            and self.truncation == other.truncation
        )

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.truncation))

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
    truncation: Fraction | None = None

    @property
    def n(self):
        return len(self.entries)

    def entry(self, i, j):
        return self.entries[i][j]

    def __mul__(self, other):
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = HahnPolynomial.zero(self.truncation)
                for k in range(n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return SeriesMatrix(tuple(rows), _min_trunc(self.truncation, other.truncation))

    def __add__(self, other):
        rows = tuple(
            tuple(self.entries[i][j] + other.entries[i][j] for j in range(self.n))
            for i in range(self.n)
        )
        return SeriesMatrix(rows, _min_trunc(self.truncation, other.truncation))


def series_identity(n, truncation=None):
    rows = tuple(
        tuple(
            HahnPolynomial.one(truncation) if i == j else HahnPolynomial.zero(truncation)
            for j in range(n)
        )
        for i in range(n)
    )
    return SeriesMatrix(rows, truncation)


def z_matrix(space, truncation=None):
    """Similarity matrix: entry (i,j) is the monomial q^d(i,j)."""
    rows = tuple(
        tuple(
            HahnPolynomial.monomial(space.dist[i][j], 1, truncation)
            for j in range(space.n)
        )
        for i in range(space.n)
    )
    return SeriesMatrix(rows, truncation)


def z_inverse(space, lmax):
    """Inverse of the similarity matrix modulo q^(>lmax).

    Summing (I - Z)^k up to k = ceil(lmax / r0) is exact at this
    truncation, where r0 is the minimal positive distance.
    """
    lmax = Fraction(lmax)
    n = space.n
    ident = series_identity(n, lmax)
    r0 = space.min_positive_distance()
    cutoff = 0 if r0 is None else math.ceil(lmax / r0)
    nil = ident + SeriesMatrix(
        tuple(
            tuple(-z for z in row)
            for row in z_matrix(space, lmax).entries
        ),
        lmax,
    )
    acc = ident
    power = ident
    for _ in range(cutoff):
        power = power * nil
        acc = acc + power
    return acc


def perturbative_inverse(space, a, b, lmax):
    """Signed sum over sequences: sum_k (-1)^k sum q^(length), length <= lmax."""
    lmax = Fraction(lmax)
    terms = {}
    for length in pair_achievable_lengths(space, a, b, lmax):
        terms[length] = sum(
            (-1) ** (len(seq) - 1)
            for seq in lightlike_sequences(space, a, b, length)
        )
    return HahnPolynomial(terms, lmax)


def weighting(space, lmax):
    """Row sums of the truncated inverse, one series per point."""
    inv = z_inverse(space, lmax)
    out = []
    for i in range(space.n):
        acc = HahnPolynomial.zero(Fraction(lmax))
        for j in range(space.n):
            acc = acc + inv.entry(i, j)
        out.append(acc)
    return out


def magnitude(space, lmax):
    """Sum of all entries of the truncated inverse similarity matrix."""
    acc = HahnPolynomial.zero(Fraction(lmax))
    for w in weighting(space, lmax):
        acc = acc + w
    return acc


@dataclass(frozen=True)
class EulerReport:
    ok: bool
    checked: int
    mismatches: tuple

    def __bool__(self):
        return self.ok


def euler_check(space, lmax):
    """Inverse-entry coefficients against homology Euler characteristics.

    For each ordered pair and each candidate length (support of the inverse
    entry united with the achievable lengths), the coefficient of q^l in
    the inverse must equal the alternating sum of Betti numbers of the
    length-l homology for that pair; weightings and magnitude aggregate
    accordingly.
    """
    lmax = Fraction(lmax)
    inv = z_inverse(space, lmax)
    checked = 0
    mismatches = []
    for a in range(space.n):
        for b in range(space.n):
            entry = inv.entry(a, b)
            lengths = set(entry.support())
            lengths.update(pair_achievable_lengths(space, a, b, lmax))
            for l in sorted(lengths):
                if l > lmax:
                    continue
                chi = homology(magnitude_chain_complex(space, a, b, l)).euler()
                coeff = entry.coefficient(l)
                checked += 1
                if coeff != chi:
                    mismatches.append((l, space.labels[a], space.labels[b], coeff, chi))
    return EulerReport(not mismatches, checked, tuple(mismatches))

"""Integer chain complexes, Smith normal form, and magnitude homology.

A boundary out of degree k is a list of sparse columns, one per degree-k
generator, each a {row: value} map over the degree-(k-1) basis with no zero
stored.  Only ChainComplex.matrix(k) spells a boundary out as dense integer
rows, the input of the Smith normal form.  All elimination is fraction-free
over Python ints, so ranks, Betti numbers, and torsion are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .causal import (
    _stamps,
    inner_pair,
    lightlike_sequences,
    order_complex_pair,
    pair_achievable_lengths,
)
from .metric import InternalFault, product


class BoundarySquareNonzero(InternalFault):
    pass


@dataclass(frozen=True)
class SNFResult:
    diag: tuple  # invariant factors, positive, each dividing the next
    rank: int


def _pivot(rows):
    """A nonzero of least absolute value, the first unit if there is one."""
    best = None
    for i, row in rows.items():
        for j, v in row.items():
            if best is None or abs(v) < abs(best[2]):
                best = (i, j, v)
                if v in (1, -1):
                    return best
    return best


def smith_normal_form(matrix):
    """Invariant factors of an integer matrix, by sparse elimination.

    Rows are kept as {column: value} maps.  The pivot is a nonzero of least
    absolute value; the other rows of its column are reduced against the
    pivot row, and once the pivot stands alone in its column its own row is
    reduced modulo the pivot (a column operation that changes no other
    row).  A nonzero remainder is smaller than the pivot and so becomes the
    next pivot; a pivot left alone in its row and column is recorded.  The
    recorded non-unit pivots are brought into a divisor chain by gcd/lcm
    exchange.
    """
    rows = {}
    cols = {}
    for i, row in enumerate(matrix):
        entries = {j: v for j, v in enumerate(row) if v}
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)
    units = 0
    factors = []
    while rows:
        i, j, p = _pivot(rows)
        prow = rows[i]
        for k in cols[j] - {i}:
            row = rows[k]
            q = row[j] // p
            for c, v in prow.items():
                w = row.get(c, 0) - q * v
                if w:
                    row[c] = w
                    cols[c].add(k)
                elif c in row:
                    del row[c]
                    cols[c].discard(k)
            if not row:
                del rows[k]
        if len(cols[j]) > 1:
            continue
        for c in [c for c in prow if c != j]:
            w = prow[c] % p
            if w:
                prow[c] = w
            else:
                del prow[c]
                cols[c].discard(i)
        if len(prow) > 1:
            continue
        del rows[i]
        cols[j].discard(i)
        if p in (1, -1):
            units += 1
        else:
            factors.append(abs(p))
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            g = gcd(factors[a], factors[b])
            factors[a], factors[b] = g, factors[a] * factors[b] // g
    diag = (1,) * units + tuple(factors)
    for i in range(1, len(diag)):
        assert diag[i] % diag[i - 1] == 0
    return SNFResult(diag=diag, rank=len(diag))


class ChainComplex:
    """Finitely generated free chain complex over the integers.

    basis maps degree -> ordered list of generator keys; boundary maps
    degree k to its columns, one {row: value} map per degree-k generator,
    rows indexing the degree-(k-1) basis and no zero stored.  A degree
    missing from boundary has the zero boundary.  matrix(k) is the one
    dense form, read by the Smith normal form.
    """

    __slots__ = ("basis", "boundary")

    def __init__(self, basis, boundary):
        self.basis = dict(basis)
        self.boundary = dict(boundary)
        self.validate()

    def degrees(self):
        return sorted(self.basis)

    def rank(self, k):
        return len(self.basis.get(k, ()))

    def matrix(self, k):
        """Dense boundary matrix out of degree k; rows indexed by degree k-1."""
        mat = [[0] * self.rank(k) for _ in range(self.rank(k - 1))]
        for c, col in enumerate(self.boundary.get(k, ())):
            for r, v in col.items():
                mat[r][c] = v
        return mat

    def validate(self):
        """Check the column shapes, then d o d = 0 column by column: each
        column of d_k names the d_(k-1) columns whose combination must vanish."""
        for k, cols in self.boundary.items():
            n_below = self.rank(k - 1)
            assert len(cols) == self.rank(k)
            assert all(v and 0 <= r < n_below for col in cols for r, v in col.items())
            below = self.boundary.get(k - 1)
            if not below or not self.rank(k - 2):
                continue
            for col in cols:
                square = {}
                for r, v in col.items():
                    for q, w in below[r].items():
                        square[q] = square.get(q, 0) + v * w
                if any(square.values()):
                    raise BoundarySquareNonzero("d o d != 0 out of degree %d" % k)
        return True


@dataclass(frozen=True)
class HomologySummary:
    """Nonzero Betti numbers and torsion, keyed by degree."""

    betti: tuple = ()     # ((degree, rank), ...)
    torsion: tuple = ()   # ((degree, (factor, ...)), ...)

    @classmethod
    def build(cls, betti_map, torsion_map):
        betti = tuple(sorted((k, r) for k, r in betti_map.items() if r))
        torsion = tuple(
            sorted((k, tuple(sorted(f))) for k, f in torsion_map.items() if f)
        )
        return cls(betti, torsion)

    def betti_map(self):
        return dict(self.betti)

    def torsion_map(self):
        return {k: list(f) for k, f in self.torsion}

    def betti_at(self, k):
        return dict(self.betti).get(k, 0)

    def torsion_at(self, k):
        return list(dict(self.torsion).get(k, ()))

    def euler(self):
        return sum((-1) ** k * r for k, r in self.betti)

    def shifted(self, offset):
        return HomologySummary(
            tuple((k + offset, r) for k, r in self.betti),
            tuple((k + offset, f) for k, f in self.torsion),
        )

    def plus(self, other):
        betti = dict(self.betti)
        for k, r in other.betti:
            betti[k] = betti.get(k, 0) + r
        torsion = {k: list(f) for k, f in self.torsion}
        for k, f in other.torsion:
            torsion.setdefault(k, []).extend(f)
        return HomologySummary.build(betti, torsion)


def homology(cc):
    """Betti numbers and torsion of an integer chain complex."""
    ranks = {}
    snfs = {}
    for k in cc.degrees():
        res = smith_normal_form(cc.matrix(k))
        ranks[k] = res.rank
        snfs[k] = res
    betti = {}
    torsion = {}
    for k in cc.degrees():
        n_k = cc.rank(k)
        r_k = ranks.get(k, 0)
        r_up = ranks.get(k + 1, 0)
        betti[k] = n_k - r_k - r_up
        assert betti[k] >= 0
        up = snfs.get(k + 1)
        if up is not None:
            torsion[k] = [f for f in up.diag if f > 1]
    return HomologySummary.build(betti, torsion)


def face_complex(cells):
    """Chain complex generated by cells, a cell of n entries in degree n - 1.

    The boundary deletes entry i with sign (-1)^i and keeps the face exactly
    when it is itself a generator; every other face counts as zero.
    """
    basis = {}
    for s in cells:
        basis.setdefault(len(s) - 1, []).append(s)
    index = {}
    for gens in basis.values():
        gens.sort()
        index.update((s, i) for i, s in enumerate(gens))
    boundary = {}
    for k, gens in basis.items():
        cols = boundary[k] = []
        for s in gens:
            col = {}
            for i in range(len(s)):
                r = index.get(s[:i] + s[i + 1:])
                if r is not None:
                    v = col.pop(r, 0) + (-1) ** i
                    if v:
                        col[r] = v
            cols.append(col)
    return ChainComplex(basis, boundary)


def magnitude_chain_complex(space, a, b, l):
    """Chain complex of sequences a -> b of length exactly l.

    Degree-k generators are the (k+1)-point sequences; the boundary drops
    one point at a time with alternating signs.  A drop that shortens the
    sequence, as every endpoint drop does, leaves no generator and so
    counts as zero.
    """
    return face_complex(lightlike_sequences(space, a, b, l))


def relative_chain_complex(pair, augmented=False):
    """Chain complex of a simplicial pair.

    Basis in degree k: the k-simplices of total outside sub.  When
    augmented, the empty simplex sits in degree -1 exactly if total is
    nonvoid while sub is void (otherwise the sub side already swallows it).
    """
    if pair.total.is_void:
        return ChainComplex({}, {})
    cells = pair.relative_simplices()
    if augmented and pair.sub.is_void:
        cells.append(())
    return face_complex(cells)


@dataclass(frozen=True)
class VerifyReport:
    """A verifier's verdict: pass or fail, a one-line detail and, for the
    checks that compare counts, rows shaped (length, degree, left count,
    right count, equal)."""

    ok: bool
    detail: str = ""
    rows: tuple = ()

    def __bool__(self):
        return self.ok


def verify_chain_iso(space, a, b, l):
    """Check that stamping prefix times is a basis bijection from the
    sequence complex onto the relative order complex, commuting with the
    boundaries sign for sign."""
    l = Fraction(l)
    mag = magnitude_chain_complex(space, a, b, l)
    pair = order_complex_pair(space, a, b, l)
    rel = relative_chain_complex(pair, augmented=(l > 0))
    mag_degrees = [k for k in mag.degrees() if mag.rank(k)]
    rel_degrees = [k for k in rel.degrees() if rel.rank(k)]
    if mag_degrees != rel_degrees:
        return VerifyReport(False, "degree ranges differ: %s vs %s" % (mag_degrees, rel_degrees))
    perm = {}
    for k in mag_degrees:
        image = [_stamps(space, s) for s in mag.basis[k]]
        if len(set(image)) != len(image):
            return VerifyReport(False, "degree %d stamping is not injective" % k)
        if sorted(image) != sorted(rel.basis[k]):
            return VerifyReport(False, "degree %d bases do not correspond" % k)
        rel_index = {s: i for i, s in enumerate(rel.basis[k])}
        perm[k] = [rel_index[s] for s in image]
    for k in mag_degrees:
        rows = perm.get(k - 1)
        rel_cols = rel.boundary[k]
        for c, col in zip(perm[k], mag.boundary[k]):
            if {rows[r]: v for r, v in col.items()} != rel_cols[c]:
                return VerifyReport(False, "boundaries disagree out of degree %d" % k)
    return VerifyReport(True, "chain-level isomorphism on %d degrees" % len(mag_degrees))


def verify_suspension_shift(space, a, b, l):
    """Check MH_k against the degree-(k-2) homology of the
    endpoint-stripped pair, including the void/empty conventions."""
    l = Fraction(l)
    lhs = homology(magnitude_chain_complex(space, a, b, l))
    rhs = homology(relative_chain_complex(inner_pair(space, a, b, l), augmented=True))
    shifted = rhs.shifted(2)
    if lhs != shifted:
        return VerifyReport(
            False,
            "MH %s vs shifted pair homology %s" % (lhs, shifted),
        )
    return VerifyReport(True, "shift matches: %s" % (lhs,))


def magnitude_homology_total(space, l):
    """Direct sum of MH over all ordered endpoint pairs at length l."""
    out = HomologySummary()
    for a in range(space.n):
        for b in range(space.n):
            out = out.plus(homology(magnitude_chain_complex(space, a, b, l)))
    return out


def verify_kunneth(x, y, lmax):
    """Rank-level product formula for the l1 product of two spaces.

    For every product endpoint pair and achievable length, the product
    Betti number must equal the convolution of the factor Betti numbers
    over all splits of the length; when the factors are torsion-free the
    product must be torsion-free as well.
    """
    lmax = Fraction(lmax)
    prod, pidx = product(x, y)

    def factor_table(space):
        return {
            (a, b): {
                l: homology(magnitude_chain_complex(space, a, b, l))
                for l in pair_achievable_lengths(space, a, b, lmax)
            }
            for a in range(space.n)
            for b in range(space.n)
        }

    tab_x = factor_table(x)
    tab_y = factor_table(y)
    factors_torsion_free = not any(
        h.torsion
        for tab in (tab_x, tab_y)
        for row in tab.values()
        for h in row.values()
    )
    mismatches = []
    for ax in range(x.n):
        for ay in range(y.n):
            for bx in range(x.n):
                for by in range(y.n):
                    a = pidx(ax, ay)
                    b = pidx(bx, by)
                    row_x = tab_x[ax, bx]
                    row_y = tab_y[ay, by]
                    for l in pair_achievable_lengths(prod, a, b, lmax):
                        got = homology(magnitude_chain_complex(prod, a, b, l))
                        want = {}
                        for l1, hx in row_x.items():
                            hy = row_y.get(l - l1)
                            if hy is None:
                                continue
                            for i, ri in hx.betti:
                                for j, rj in hy.betti:
                                    want[i + j] = want.get(i + j, 0) + ri * rj
                        want = {k: r for k, r in want.items() if r}
                        if got.betti_map() != want:
                            mismatches.append((l, a, b, got.betti_map(), want))
                        if factors_torsion_free and got.torsion:
                            mismatches.append((l, a, b, "unexpected torsion", got.torsion))
    if mismatches:
        return VerifyReport(False, "first mismatch: %s" % (mismatches[0],))
    return VerifyReport(True, "product ranks match on %d x %d points" % (x.n, y.n))

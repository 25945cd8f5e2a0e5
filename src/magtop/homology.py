"""Integer chain complexes, Smith normal form, and magnitude homology.

Boundary matrices are lists of integer rows (columns indexed by the degree-k
basis, rows by the degree-(k-1) basis).  All elimination is fraction-free
over Python ints, so ranks, Betti numbers, and torsion are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .causal import (
    inner_pair,
    lightlike_sequences,
    order_complex_pair,
    pair_achievable_lengths,
)


class BoundarySquareNonzero(AssertionError):
    pass


@dataclass(frozen=True)
class SNFResult:
    diag: tuple  # invariant factors, positive, each dividing the next
    rank: int
    u: tuple | None = None  # row transform, u * a * v diagonal
    v: tuple | None = None


def _mat_mul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    rows, mid, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(mid):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += v * bk[j]
    return out


def smith_normal_form(matrix, transforms=False):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Pivots are chosen by minimal absolute value; the resulting diagonal is
    the chain of invariant factors.
    """
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)] if transforms else None
    v = [[int(i == j) for j in range(cols)] for i in range(cols)] if transforms else None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, mult):
        arow = a[src]
        drow = a[dst]
        for j in range(cols):
            drow[j] += mult * arow[j]
        if u is not None:
            us, ud = u[src], u[dst]
            for j in range(rows):
                ud[j] += mult * us[j]

    def add_col(src, dst, mult):
        for row in a:
            row[dst] += mult * row[src]
        if v is not None:
            for row in v:
                row[dst] += mult * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    t = 0
    while True:
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] % a[t][t] != 0:
                add_row(t, i, -(a[i][t] // a[t][t]))
                dirty = True
        for j in range(t + 1, cols):
            if a[t][j] % a[t][t] != 0:
                add_col(t, j, -(a[t][j] // a[t][t]))
                dirty = True
        if dirty:
            continue  # remainders became new, smaller pivot candidates
        for i in range(t + 1, rows):
            if a[i][t]:
                add_row(t, i, -(a[i][t] // a[t][t]))
        for j in range(t + 1, cols):
            if a[t][j]:
                add_col(t, j, -(a[t][j] // a[t][t]))
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    diag = tuple(a[i][i] for i in range(min(rows, cols)) if a[i][i] != 0)
    for i in range(1, len(diag)):
        assert diag[i] % diag[i - 1] == 0
    return SNFResult(
        diag=diag,
        rank=len(diag),
        u=tuple(tuple(r) for r in u) if transforms else None,
        v=tuple(tuple(r) for r in v) if transforms else None,
    )


class ChainComplex:
    """Finitely generated free chain complex over the integers.

    basis maps degree -> ordered list of generator keys; boundary maps
    degree k to the integer matrix from degree k into degree k-1.
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
        """Boundary matrix out of degree k; rows indexed by degree k-1."""
        mat = self.boundary.get(k)
        if mat is None:
            return [[0] * self.rank(k) for _ in range(self.rank(k - 1))]
        return mat

    def validate(self):
        for k in self.degrees():
            rows = self.matrix(k)
            assert len(rows) == self.rank(k - 1)
            for row in rows:
                assert len(row) == self.rank(k)
            if self.rank(k - 2) and self.rank(k):
                square = _mat_mul(self.matrix(k - 1), rows)
                if any(any(v for v in row) for row in square):
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

    def is_zero(self):
        return not self.betti and not self.torsion


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
    for k, cols in basis.items():
        mat = [[0] * len(cols) for _ in basis.get(k - 1, ())]
        for c, s in enumerate(cols):
            for i in range(len(s)):
                r = index.get(s[:i] + s[i + 1:])
                if r is not None:
                    mat[r][c] += (-1) ** i
        boundary[k] = mat
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
    ok: bool
    detail: str = ""

    def __bool__(self):
        return self.ok


def verify_chain_iso(space, a, b, l):
    """Check that stamping prefix times is a basis bijection from the
    sequence complex onto the relative order complex, commuting with the
    boundaries sign for sign."""
    from .causal import seq_time_stamps

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
        image = [seq_time_stamps(space, s) for s in mag.basis[k]]
        if len(set(image)) != len(image):
            return VerifyReport(False, "degree %d stamping is not injective" % k)
        if sorted(image) != sorted(rel.basis[k]):
            return VerifyReport(False, "degree %d bases do not correspond" % k)
        rel_index = {s: i for i, s in enumerate(rel.basis[k])}
        perm[k] = [rel_index[s] for s in image]
    for k in mag_degrees:
        mg = mag.matrix(k)
        rl = rel.matrix(k)
        rows = perm.get(k - 1, [])
        cols = perm[k]
        for r in range(mag.rank(k - 1)):
            for c in range(mag.rank(k)):
                if mg[r][c] != rl[rows[r]][cols[c]]:
                    return VerifyReport(
                        False,
                        "boundaries disagree out of degree %d" % k,
                    )
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


def betti_table(space, lmax, pairs=None):
    """Betti/torsion table keyed by (l, a, b, k), over achievable lengths."""
    lmax = Fraction(lmax)
    if pairs is None:
        pairs = [(a, b) for a in range(space.n) for b in range(space.n)]
    table = {}
    for a, b in pairs:
        for l in pair_achievable_lengths(space, a, b, lmax):
            summary = homology(magnitude_chain_complex(space, a, b, l))
            for k, r in summary.betti:
                table[(l, a, b, k)] = (r, tuple(summary.torsion_at(k)))
            for k, f in summary.torsion:
                if (l, a, b, k) not in table:
                    table[(l, a, b, k)] = (0, f)
    return table


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
    from .metric import product as metric_product

    lmax = Fraction(lmax)
    prod, pidx = metric_product(x, y)

    def factor_table(space):
        tab = {}
        for a in range(space.n):
            for b in range(space.n):
                for l in pair_achievable_lengths(space, a, b, lmax):
                    tab[(a, b, l)] = homology(magnitude_chain_complex(space, a, b, l))
        return tab

    tab_x = factor_table(x)
    tab_y = factor_table(y)
    mismatches = []
    for ax in range(x.n):
        for ay in range(y.n):
            for bx in range(x.n):
                for by in range(y.n):
                    a = pidx(ax, ay)
                    b = pidx(bx, by)
                    for l in pair_achievable_lengths(prod, a, b, lmax):
                        got = homology(magnitude_chain_complex(prod, a, b, l))
                        want = {}
                        for (fa, fb, l1), hx in tab_x.items():
                            if (fa, fb) != (ax, bx):
                                continue
                            hy = tab_y.get((ay, by, l - l1))
                            if hy is None:
                                continue
                            for i, ri in hx.betti:
                                for j, rj in hy.betti:
                                    want[i + j] = want.get(i + j, 0) + ri * rj
                        want = {k: r for k, r in want.items() if r}
                        if got.betti_map() != want:
                            mismatches.append((l, a, b, got.betti_map(), want))
                        factors_torsion_free = all(
                            not h.torsion for h in list(tab_x.values()) + list(tab_y.values())
                        )
                        if factors_torsion_free and got.torsion:
                            mismatches.append((l, a, b, "unexpected torsion", got.torsion))
    if mismatches:
        return VerifyReport(False, "first mismatch: %s" % (mismatches[0],))
    return VerifyReport(True, "product ranks match on %d x %d points" % (x.n, y.n))

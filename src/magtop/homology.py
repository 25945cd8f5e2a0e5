"""Integer chain complexes, Smith normal form, and magnitude homology.

A boundary out of degree k is a list of sparse columns, one per degree-k
generator, each a {row: value} map over the degree-(k-1) basis with no zero
stored.  The Smith normal form takes those columns as they are, each one a
row of the transpose, which has the same invariant factors; no boundary is
ever spelled out as a dense matrix.  All elimination is fraction-free over
Python ints, so ranks, Betti numbers, and torsion are exact.

face_complex is the one builder of a boundary.  Given the space of a
sequence complex of one length, it deletes only the smooth interior
points, since dropping any other point shortens the sequence: it decides
each point on the scaled distances as it walks the cell, and slices and
looks up only the faces it keeps.  A relative order complex has no length
to keep, and a face of one of its chains may lie in the subcomplex, so
without a space it tries every entry and keeps the faces it finds;
verify_chain_iso then compares the two routes column for column.
ChainComplex.validate sweeps each column once, checking its shape and
d o d = 0 in the same loop.

homology clears, as persistent homology does (Chen and Kerber, "Persistent
homology computation with a twist", 2011): it reduces the degrees from the
top down, and the Smith normal form of d_k skips the columns that the unit
pivots of d_(k+1) have already paired.  Those columns are integer
combinations of the others, so the invariant factors stay as they were.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .causal import (
    _pair_lengths,
    _stamps,
    inner_pair,
    lightlike_sequences,
    order_complex_pair,
)
from .metric import InternalFault, _as_fraction, product


class BoundarySquareNonzero(InternalFault):
    pass


@dataclass(frozen=True)
class SNFResult:
    diag: tuple  # invariant factors, positive, each dividing the next; len is the rank
    cleared: frozenset  # row keys of the pivots recorded before the first non-unit step


def _invariant_factors(factors):
    """The invariant factors of the direct sum of the cyclic groups Z/f:
    each > 1 and dividing the next.  Exchanging a pair of factors for
    their gcd and lcm keeps the group; after the exchanges with every
    later factor, a factor divides all of them, so the units that the
    exchanges leave come first, and are dropped."""
    fs = [f for f in factors if f > 1]
    for a in range(len(fs)):
        for b in range(a + 1, len(fs)):
            g = gcd(fs[a], fs[b])
            fs[a], fs[b] = g, fs[a] * fs[b] // g
    inv = tuple(fs[fs.count(1):])
    for i in range(1, len(inv)):
        assert inv[i] % inv[i - 1] == 0
    return inv


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


def smith_normal_form(columns):
    """Invariant factors of an integer matrix given by its sparse columns,
    {row: value} maps with no zero stored, as ChainComplex.boundary holds
    them.

    Each column is eliminated as a row of the transpose, which has the same
    invariant factors; it is copied first, so the caller's columns stay as
    they were.  The pivot is a nonzero of least absolute value; the other
    rows of its column are reduced against the pivot row.  Once the pivot
    stands alone in its column its own row is reduced modulo the pivot (a
    column operation that changes no other row).  Modulo a unit pivot every
    remainder is zero, so a unit's row is dropped whole, with no modulo
    pass, and its column goes with it.  A nonzero remainder is
    smaller than the pivot and so becomes the next pivot; a pivot left alone
    in its row and column is recorded.  The recorded pivots, up to sign, are
    brought into invariant-factor form, and the units that takes away lead
    the diagonal.

    cleared holds the row keys of the pivots recorded before the first
    pivot step whose pivot is not a unit, whether or not that step records
    anything.  Up to then every operation adds a multiple of a unit pivot's
    row or column, so the block of the matrix on those pivots' rows and
    columns is unimodular: the operations keep its determinant, and it ends
    as a signed permutation.  A pivot recorded after a non-unit step may
    owe its unit to that step's remainders, so the prefix ends at the step,
    not at the first non-unit pivot recorded.
    """
    rows = {}
    cols = {}
    for i, col in enumerate(columns):
        if col:
            rows[i] = dict(col)
            for j in col:
                cols.setdefault(j, set()).add(i)
    factors = []
    cleared = set()
    units = True  # every pivot step so far was a unit
    while rows:
        i, j, p = _pivot(rows)
        units = units and p in (1, -1)
        prow = rows[i]
        others = cols[j]
        cols[j] = {i}  # and then any remainder the elimination leaves
        for k in others:
            if k == i:
                continue
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
        if p not in (1, -1):
            for c in [c for c in prow if c != j]:
                w = prow[c] % p
                if w:
                    prow[c] = w
                else:
                    del prow[c]
                    cols[c].discard(i)
            if len(prow) > 1:
                continue
        for c in prow:
            cols[c].discard(i)
        del rows[i]
        factors.append(abs(p))
        if units:
            cleared.add(j)
    inv = _invariant_factors(factors)
    return SNFResult((1,) * (len(factors) - len(inv)) + inv, frozenset(cleared))


class ChainComplex:
    """Finitely generated free chain complex over the integers.

    basis maps degree -> ordered list of generator keys; boundary maps
    degree k to its columns, one {row: value} map per degree-k generator,
    rows indexing the degree-(k-1) basis and no zero stored; the Smith
    normal form reads them as they are.  A degree missing from boundary has
    the zero boundary.
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

    def validate(self):
        """Check the column shapes and d o d = 0 in one sweep of each column:
        a column of d_k names the d_(k-1) columns whose combination must
        vanish."""
        assert all(len(cols) == self.rank(k) for k, cols in self.boundary.items())
        for k, cols in self.boundary.items():
            n_below = self.rank(k - 1)
            below = self.boundary.get(k - 1) if self.rank(k - 2) else None
            for col in cols:
                square = {}
                for r, v in col.items():
                    assert v and 0 <= r < n_below
                    if below:
                        for q, w in below[r].items():
                            square[q] = square.get(q, 0) + v * w
                if any(square.values()):
                    raise BoundarySquareNonzero("d o d != 0 out of degree %d" % k)
        return True


@dataclass(frozen=True)
class HomologySummary:
    """Nonzero Betti numbers and torsion, keyed by degree.

    Torsion is held as invariant factors, each > 1 and dividing the next,
    so two summaries are equal exactly when their groups are isomorphic.
    The constructor brings any (degree, rank) and (degree, factors) pairs
    into that form, summing repeated degrees: a direct sum is the summary
    of its summands' pairs taken together.
    """

    betti: tuple = ()     # ((degree, rank), ...)
    torsion: tuple = ()   # ((degree, (factor, ...)), ...)

    def __post_init__(self):
        betti, torsion = {}, {}
        for k, r in self.betti:
            betti[k] = betti.get(k, 0) + r
        for k, f in self.torsion:
            torsion.setdefault(k, []).extend(f)
        betti = [(k, r) for k, r in betti.items() if r]
        torsion = [(k, i) for k, f in torsion.items() if (i := _invariant_factors(f))]
        object.__setattr__(self, "betti", tuple(sorted(betti)))
        object.__setattr__(self, "torsion", tuple(sorted(torsion)))

    @classmethod
    def build(cls, betti_map, torsion_map):
        return cls(betti_map.items(), torsion_map.items())

    @classmethod
    def direct_sum(cls, summaries):
        betti, torsion = [], []
        for s in summaries:
            betti += s.betti
            torsion += s.torsion
        return cls(betti, torsion)

    def betti_map(self):
        return dict(self.betti)

    def shifted(self, offset):
        return HomologySummary(
            tuple((k + offset, r) for k, r in self.betti),
            tuple((k + offset, f) for k, f in self.torsion),
        )


def homology(cc):
    """Betti numbers and torsion of an integer chain complex: the torsion
    in degree k is the invariant factors of the boundary out of k + 1.

    The degrees are reduced from the top down, and the Smith normal form
    of d_k gets only the columns of d_k whose degree-k cell is not in the
    cleared set J of d_(k+1).  Only the degree directly above clears:
    where degree k + 1 is missing, d_k keeps every column.  With I the
    degree-(k+1) cells of those pivots, the block d_(k+1)[J, I] is
    unimodular, and d_k d_(k+1) = 0 gives
    d_k[:, J] = -d_k[:, not J] d_(k+1)[not J, I] d_(k+1)[J, I]^-1, an
    integer combination of the other columns.  So the image of d_k, and
    with it the rank and the invariant factors, stay as they were.  Every
    degree still gets its own call, even with no column left.

    Only the unit prefix may be cleared.  With d_2 = (2, 3)^T and
    d_1 = (3, -2), the first pivot step of d_2 takes 2 and records
    nothing; the unit 1 it leaves in row 1 is recorded next.  Clearing
    row 1 would leave d_1 = (3), so H_0 = Z/3, where the complex is exact.
    """
    diags, cleared = {}, {}
    for k in reversed(cc.degrees()):
        skip = cleared.pop(k + 1, ())
        cols = [col for c, col in enumerate(cc.boundary.get(k, ())) if c not in skip]
        snf = smith_normal_form(cols)
        diags[k], cleared[k] = snf.diag, snf.cleared
    betti = {}
    for k in cc.degrees():
        betti[k] = cc.rank(k) - len(diags[k]) - len(diags.get(k + 1, ()))
        assert betti[k] >= 0
    return HomologySummary.build(betti, {k - 1: diag for k, diag in diags.items()})


def face_complex(cells, space=None):
    """Chain complex generated by cells, a cell of n entries in degree n - 1.

    The boundary deletes entry i with sign (-1)^i and keeps the face exactly
    when it is itself a generator; every other face counts as zero.  Given
    a space, whose sequences of one length are the cells, only the smooth
    interior points are deleted (metric.is_smooth, decided here on the
    scaled distances): their faces keep the length and so are generators,
    and the deletion of any other entry is never sliced or looked up.
    Without a space every entry is tried.  No cell may hold one entry twice
    in a row, so that no two deletions give the same face.
    """
    basis = {}
    for s in cells:
        basis.setdefault(len(s) - 1, []).append(s)
    index = {}
    for k, gens in basis.items():
        gens.sort()
        index[k] = {s: i for i, s in enumerate(gens)}
    d = space._scaled[1] if space is not None else None
    boundary = {}
    for k, gens in basis.items():
        below = index.get(k - 1, {})
        cols = boundary[k] = []
        for s in gens:
            col = {}
            if d is None:
                for i in range(len(s)):
                    r = below.get(s[:i] + s[i + 1:])
                    if r is not None:
                        col[r] = -1 if i & 1 else 1
            else:
                for i in range(1, k):
                    dx, y, z = d[s[i - 1]], s[i], s[i + 1]
                    if dx[y] + d[y][z] == dx[z]:
                        col[below[s[:i] + s[i + 1:]]] = -1 if i & 1 else 1
            cols.append(col)
    return ChainComplex(basis, boundary)


def magnitude_chain_complex(space, a, b, l):
    """Chain complex of sequences a -> b of length exactly l.

    Degree-k generators are the (k+1)-point sequences; the boundary drops
    one point at a time with alternating signs.  A drop that shortens the
    sequence leaves no generator and so counts as zero: only the smooth
    points are dropped (face_complex given the space), and every endpoint
    drop or other interior drop is skipped unsliced.  A smooth drop keeps
    the length, and its face is a generator: its points stay distinct, as
    d(x, z) > 0 for the neighbours x, z of a smooth point.
    """
    return face_complex(lightlike_sequences(space, a, b, l), space)


def relative_chain_complex(pair):
    """Chain complex of a relative order complex given as (cells, augmented):
    the simplices outside the subcomplex, a simplex of n vertices in degree
    n - 1, and the empty simplex in degree -1 when augmented."""
    cells, augmented = pair
    return face_complex(cells + [()] if augmented else cells)


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
    l = _as_fraction(l)
    mag = magnitude_chain_complex(space, a, b, l)
    rel = relative_chain_complex(order_complex_pair(space, a, b, l))
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
    endpoint-stripped pair, including its augmentation."""
    l = _as_fraction(l)
    lhs = homology(magnitude_chain_complex(space, a, b, l))
    rhs = homology(relative_chain_complex(inner_pair(space, a, b, l)))
    shifted = rhs.shifted(2)
    if lhs != shifted:
        return VerifyReport(
            False,
            "MH %s vs shifted pair homology %s" % (lhs, shifted),
        )
    return VerifyReport(True, "shift matches: %s" % (lhs,))


def homology_table(space, lmax):
    """MH of every ordered endpoint pair at each length up to lmax that the
    pair achieves, as {(a, b): {l: HomologySummary}}; a length the pair
    cannot reach has no sequence, so zero homology, and no entry.  The
    lengths come from one search per source (causal._pair_lengths)."""
    lmax = _as_fraction(lmax)
    return {
        (a, b): {l: homology(magnitude_chain_complex(space, a, b, l)) for l in lengths}
        for a, b, lengths in _pair_lengths(space, lmax)
    }


def magnitude_homology_total(table, l):
    """Direct sum of a homology table's entries at length l: MH over all
    ordered endpoint pairs."""
    return HomologySummary.direct_sum(row[l] for row in table.values() if l in row)


def verify_kunneth(x, y, lmax):
    """Rank-level product formula for the l1 product of two spaces.

    For every product endpoint pair and achievable length, the product
    Betti number must equal the convolution of the factor Betti numbers
    over all splits of the length; when the factors are torsion-free the
    product must be torsion-free as well.
    """
    prod, pidx = product(x, y)
    tab_x, tab_y, tab_p = (homology_table(s, lmax) for s in (x, y, prod))
    factor = {pidx(i, j): (i, j) for i in range(x.n) for j in range(y.n)}
    factors_torsion_free = not any(
        h.torsion
        for tab in (tab_x, tab_y)
        for row in tab.values()
        for h in row.values()
    )
    mismatches = []
    for (a, b), row in tab_p.items():
        (ax, ay), (bx, by) = factor[a], factor[b]
        row_x, row_y = tab_x[ax, bx], tab_y[ay, by]
        for l, got in row.items():
            want = {}
            for l1, hx in row_x.items():
                hy = row_y.get(l - l1)
                if hy is None:
                    continue
                for i, ri in hx.betti:
                    for j, rj in hy.betti:
                        want[i + j] = want.get(i + j, 0) + ri * rj
            if got.betti_map() != want:
                mismatches.append((l, a, b, got.betti_map(), want))
            if factors_torsion_free and got.torsion:
                mismatches.append((l, a, b, "unexpected torsion", got.torsion))
    if mismatches:
        return VerifyReport(False, "first mismatch: %s" % (mismatches[0],))
    return VerifyReport(True, "product ranks match on %d x %d points" % (x.n, y.n))

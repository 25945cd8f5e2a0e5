"""Additivity of sequence homology over gluings whose far side is gated.

When every interior point of the attached side sees the common part
through a single gate, the sequences touching that interior form a
subcomplex up to shorter faces, homology splits off the common part, and
the glued space satisfies an exact rank and torsion additivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .causal import lightlike_sequences, pair_achievable_lengths
from .homology import (
    HomologySummary,
    VerifyReport,
    face_complex,
    homology,
    homology_table,
    magnitude_homology_total,
)
from .metric import InternalFault, _as_fraction, is_smooth, restriction, smooth_points


class FaceEscapedInterior(InternalFault):
    pass


@dataclass(frozen=True)
class NotGated:
    """Refusal value: the gluing has a neutral interior point."""

    witness: str
    detail: str = ""

    def __bool__(self):
        return False


def check_gated(gspec):
    """The refusal when some interior point is neutral, None when the
    gluing is gated."""
    neutral = [p for p, c in enumerate(gspec.classes) if c == 3]
    if neutral:
        label = gspec.space.labels[neutral[0]]
        return NotGated(
            witness=label,
            detail="%d neutral interior points, e.g. %s" % (len(neutral), label),
        )
    return None


def interior_part_betti(gspec, lmax):
    """Homology of sequences in the attached side that touch its interior,
    as a homology table of h: {(a, b): {l: HomologySummary}} for every
    ordered pair of h, holding only the lengths up to lmax at which the pair
    has a sequence meeting h∖K.

    The caller has checked that the gluing is gated (check_gated).  Works
    inside the h metric space: for each ordered endpoint pair, at each
    length the pair achieves (as homology_table does), the generators are
    full-length sequences meeting h∖K, and boundary faces either shorten or
    keep touching.  A face stays full-length when the dropped point is
    smooth, so the complex takes the smooth-interior face rule; if that
    point were the sequence's only one in h∖K, the face would leave the
    interior, which the gate inequality rules out, so it raises
    FaceEscapedInterior instead of counting as zero.
    """
    h = gspec.h
    lmax = _as_fraction(lmax)
    inside_k = frozenset(gspec.k_in_h)
    table = {}
    for a in range(h.n):
        for b in range(h.n):
            row = table[a, b] = {}
            for l in pair_achievable_lengths(h, a, b, lmax):
                cells = []
                for seq in lightlike_sequences(h, a, b, l):
                    outside = [i for i, p in enumerate(seq) if p not in inside_k]
                    if len(outside) == 1 and is_smooth(h, seq, outside[0]):
                        raise FaceEscapedInterior(
                            "full-length face of %r escaped the interior" % (seq,)
                        )
                    if outside:
                        cells.append(seq)
                if cells:
                    cc = face_complex(cells, lambda s: smooth_points(h, s))
                    row[l] = homology(cc)
    return table


def _compare(rows, problems, l, left, right, tag):
    lb, rb = dict(left.betti), dict(right.betti)
    for k in sorted(lb.keys() | rb.keys()):
        lr, rr = lb.get(k, 0), rb.get(k, 0)
        rows.append((l, k, lr, rr, lr == rr))
        if lr != rr:
            problems.append("%s rank at length %s degree %d: %d vs %d"
                            % (tag, l, k, lr, rr))
    lt, rt = dict(left.torsion), dict(right.torsion)
    for k in sorted(lt.keys() | rt.keys()):
        if lt.get(k) != rt.get(k):
            problems.append("%s torsion at length %s degree %d: %s vs %s"
                            % (tag, l, k, lt.get(k, ()), rt.get(k, ())))


def _additivity(tag, claim, lmax, left, right):
    """The verdict that two direct sums agree at every length up to lmax:
    left and right are lists of homology tables, and a side's summand at l
    is the total of each of its tables there.  Only the lengths some table
    holds are compared, as at any other length neither side has a group."""
    lengths = sorted({l for t in left + right for row in t.values() for l in row})
    rows = []
    problems = []
    for l in lengths:
        lt, rt = (
            HomologySummary.direct_sum(magnitude_homology_total(t, l) for t in side)
            for side in (left, right)
        )
        _compare(rows, problems, l, lt, rt, tag)
    detail = "; ".join(problems) or "%s up to q^%s" % (claim, _as_fraction(lmax))
    return VerifyReport(not problems, detail, tuple(rows))


def verify_union(gluing, lmax):
    """Glued-space homology against attached interior part plus base side."""
    refusal = check_gated(gluing)
    if refusal is not None:
        return refusal
    tx, tg = (homology_table(s, lmax) for s in (gluing.space, gluing.g))
    return _additivity(
        "union", "interior part plus base side matches", lmax,
        [tx], [interior_part_betti(gluing, lmax), tg],
    )


def verify_mv(gluing, lmax):
    """Rank and torsion additivity: X with K against G with H."""
    refusal = check_gated(gluing)
    if refusal is not None:
        return refusal
    k = restriction(gluing.g, gluing.k_in_g)
    tx, tk, tg, th = (
        homology_table(s, lmax) for s in (gluing.space, k, gluing.g, gluing.h)
    )
    return _additivity("mv", "additivity holds", lmax, [tx, tk], [tg, th])

"""Additivity of sequence homology over gluings whose far side is gated.

When every interior point of the attached side sees the common part
through a single gate, the sequences touching that interior form a
subcomplex up to shorter faces, homology splits off the common part, and
the glued space satisfies an exact rank and torsion additivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .causal import achievable_lengths, lightlike_sequences
from .homology import (
    HomologySummary,
    VerifyReport,
    face_complex,
    homology,
    magnitude_homology_total,
)
from .metric import InternalFault, is_smooth, restriction


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
    if gspec.neutral:
        glued = min(gspec.neutral)
        label = gspec.space.labels[glued]
        return NotGated(
            witness=label,
            detail="%d neutral interior points, e.g. %s" % (len(gspec.neutral), label),
        )
    return None


def interior_part_betti(gspec, l):
    """Homology of sequences in the attached side that touch its interior.

    The caller has checked that the gluing is gated (check_gated).  Works
    inside the h metric space: for each ordered endpoint pair, the
    generators are full-length sequences meeting h∖K, and boundary faces
    either shorten or keep touching.  A face stays full-length when the
    dropped point is smooth; if that point were the sequence's only one in
    h∖K, the face would leave the interior, which the gate inequality rules
    out, so it raises FaceEscapedInterior instead of counting as zero.
    """
    h = gspec.h
    l = Fraction(l)
    inside_k = frozenset(gspec.k_in_h)
    total = HomologySummary()
    for a in range(h.n):
        for b in range(h.n):
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
                total = total.plus(homology(face_complex(cells)))
    return total


def _lengths(spaces, lmax):
    out = set()
    for s in spaces:
        out.update(achievable_lengths(s, lmax))
    return sorted(out)


def _compare(rows, problems, l, left, right, tag):
    degrees = sorted(set(left.betti_map()) | set(right.betti_map()))
    for k in degrees:
        lr = left.betti_at(k)
        rr = right.betti_at(k)
        rows.append((l, k, lr, rr, lr == rr))
        if lr != rr:
            problems.append("%s rank at length %s degree %d: %d vs %d"
                            % (tag, l, k, lr, rr))
    if left.torsion_map() != right.torsion_map():
        problems.append("%s torsion differs at length %s" % (tag, l))


def verify_union(gluing, lmax):
    """Glued-space homology against attached interior part plus base side."""
    refusal = check_gated(gluing)
    if refusal is not None:
        return refusal
    lmax = Fraction(lmax)
    rows = []
    problems = []
    for l in _lengths((gluing.space, gluing.g, gluing.h), lmax):
        whole = magnitude_homology_total(gluing.space, l)
        split = interior_part_betti(gluing, l).plus(
            magnitude_homology_total(gluing.g, l)
        )
        _compare(rows, problems, l, whole, split, "union")
    detail = "; ".join(problems) if problems else (
        "interior part plus base side matches up to q^%s" % (lmax,)
    )
    return VerifyReport(not problems, detail, tuple(rows))


def verify_mv(gluing, lmax):
    """Rank and torsion additivity: X with K against G with H."""
    refusal = check_gated(gluing)
    if refusal is not None:
        return refusal
    lmax = Fraction(lmax)
    kspace = restriction(gluing.g, gluing.k_in_g)
    rows = []
    problems = []
    for l in _lengths((gluing.space, gluing.g, gluing.h, kspace), lmax):
        left = magnitude_homology_total(gluing.space, l).plus(
            magnitude_homology_total(kspace, l)
        )
        right = magnitude_homology_total(gluing.g, l).plus(
            magnitude_homology_total(gluing.h, l)
        )
        _compare(rows, problems, l, left, right, "mv")
    detail = "; ".join(problems) if problems else (
        "additivity holds up to q^%s" % (lmax,)
    )
    return VerifyReport(not problems, detail, tuple(rows))

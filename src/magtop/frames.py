"""Frames of sequences and the per-frame homology prediction.

A frame is a sequence with no smooth interior point, a tuple of point
indices like every sequence.  Dropping a smooth point of a sequence never
changes which frame it has, so full-length sequences split by frame; each
frame predicts homology as a convolution of double-suspended
open-interval factors.  The factor of a step x -> y is the reduced
homology of the open interval (x, y): the order complex of the points z
strictly between x and y on a geodesic, each at time d(x, z).  The weighted
Hasse-graph construction realizes the reduced homology of an arbitrary
finite complex inside a graph's sequence homology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .causal import CausalPoset, InvalidLength, walks
from .homology import homology, relative_chain_complex
from .metric import MetricError, _as_fraction, four_cuts, from_weighted_graph


class FourCutObstruction(ValueError):
    pass


class EmptyComplex(ValueError):
    pass


def _frame_steps(space, allowed):
    """Successor rule of frames: allowed[x] is the set of points that may
    follow x, and a step that would leave x smooth is refused."""
    d = space._scaled[1]

    def successors(seq, steps):
        ok = allowed[seq[-1]]
        if len(seq) == 1:
            return (e for e in steps if e[1] in ok)
        dw = d[seq[-2]]
        via = dw[seq[-1]]
        return (e for e in steps if e[1] in ok and via + e[2] != dw[e[1]])

    return successors


def _four_cut_threshold(space):
    """m_X from four_cuts, computed on first use and kept on the space."""
    m_x = getattr(space, "_m_x", None)
    if m_x is None:
        m_x = four_cuts(space)
        object.__setattr__(space, "_m_x", m_x)
    return m_x


def singular_sequences(space, a, b, l):
    """All frames from a to b of exact length l, lexicographic; refused at
    or past m_X."""
    l = _as_fraction(l)
    if l < 0:
        raise InvalidLength("negative length %s" % (l,))
    m_x = _four_cut_threshold(space)
    if l >= m_x:
        raise FourCutObstruction(
            "length %s reaches the obstruction threshold %s" % (l, m_x)
        )
    n = space.n
    others = [set(range(n)) - {x} for x in range(n)]
    return walks(space, a, l, b, _frame_steps(space, others))


def _between(space, x, y):
    """(scaled d(x, z), z) for each z strictly between x and y on a geodesic."""
    d = space._scaled[1]
    return [(d[x][z], z) for z in range(space.n)
            if z not in (x, y) and d[x][z] + d[z][y] == d[x][y]]


def _interval_factor(space, x, y):
    """Reduced Betti of the open-interval order complex, raised two degrees."""
    chains = CausalPoset(space, _between(space, x, y)).chains()
    return homology(relative_chain_complex((chains, True))).shifted(2).betti_map()


def framed_betti_prediction(space, a, b, l):
    """Predicted Betti numbers by summing convolved factors over frames."""
    factors = {}
    prediction = {}
    for frame in singular_sequences(space, a, b, l):
        acc = {0: 1}
        for step in zip(frame, frame[1:]):
            if step not in factors:
                factors[step] = _interval_factor(space, *step)
            nxt = {}
            for d1, r1 in acc.items():
                for d2, r2 in factors[step].items():
                    nxt[d1 + d2] = nxt.get(d1 + d2, 0) + r1 * r2
            acc = nxt
        for k, r in acc.items():
            if r:
                prediction[k] = prediction.get(k, 0) + r
    return dict(sorted(prediction.items()))


def thin_frames(space, l):
    """Frames, over all ordered pairs, whose steps have empty open intervals:
    no point lies strictly between a step's ends on a geodesic."""
    l = _as_fraction(l)
    if l < 0:
        raise InvalidLength("negative length %s" % (l,))
    n = space.n
    thin = [{y for y in range(n) if y != x and not _between(space, x, y)}
            for x in range(n)]
    successors = _frame_steps(space, thin)
    return [s for a in range(n) for s in walks(space, a, l, successors=successors)]


@dataclass(frozen=True)
class HasseGraph:
    """Weighted Hasse diagram of the extended face poset of a complex."""

    space: object
    zero: str
    one: str
    l: Fraction
    edges: tuple  # (label, label, weight)


def _simplex_name(simplex):
    return "|".join(simplex)


def hasse_graph(facets):
    """Weighted graph whose 0-to-1 sequences realize the input complex.

    Every cover relation gets weight 1 except the jump from a maximal
    simplex to the top element, which is weighted to level all maximal
    simplices at the same height; endpoints are "0hat" and "1hat" at
    distance (top dimension) + 2.  At that length the 0hat-to-1hat sequence
    homology is the reduced homology of the complex shifted up two
    degrees, so a single vertex realizes to zero homology.
    """
    cleaned = []
    for facet in facets:
        pts = tuple(sorted(str(v) for v in facet))
        if len(set(pts)) != len(pts):
            raise MetricError("facet repeats a vertex: %r" % (facet,))
        if pts:
            cleaned.append(pts)
    if not cleaned:
        raise EmptyComplex("complex has no vertices")
    for pts in cleaned:
        for v in pts:
            if "|" in v or v in ("0hat", "1hat"):
                raise MetricError("reserved vertex name: %r" % (v,))
    faces = set()
    for pts in cleaned:
        for mask in range(1, 1 << len(pts)):
            faces.add(tuple(p for i, p in enumerate(pts) if mask >> i & 1))
    maximal = {s for s in faces if not any(s != t and set(s) < set(t) for t in faces)}
    top_dim = max(len(s) for s in faces) - 1
    edges = []
    for s in sorted(faces):
        if len(s) == 1:
            edges.append(("0hat", _simplex_name(s), Fraction(1)))
        for t in sorted(faces):
            if len(t) == len(s) + 1 and set(s) < set(t):
                edges.append((_simplex_name(s), _simplex_name(t), Fraction(1)))
        if s in maximal:
            edges.append(
                (_simplex_name(s), "1hat", Fraction(top_dim + 2 - len(s)))
            )
    vertices = ["0hat"] + [_simplex_name(s) for s in sorted(faces)] + ["1hat"]
    space = from_weighted_graph(vertices, edges)
    return HasseGraph(
        space=space,
        zero="0hat",
        one="1hat",
        l=Fraction(top_dim + 2),
        edges=tuple(edges),
    )

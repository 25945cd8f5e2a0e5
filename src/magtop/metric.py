"""Finite metric spaces with exact rational distances.

Every classification downstream (smoothness, gates, light-likeness) branches
on exact equalities such as d(x,y) + d(y,z) == d(x,z), so distances are
fractions.Fraction values in the API and floats are rejected outright.  The
hot kernels compare integers instead: each space multiplies its distances
once by their least common denominator (its scale), and a sum of distances
is then an exact integer multiple of 1/scale.

from_weighted_graph is the one routine that completes a distance matrix by
shortest paths; a glued space is the shortest-path metric of its two halves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

INFINITE = math.inf  # marker for "no four-cut exists"; never a rational


class InternalFault(AssertionError):
    """A check the program makes on its own work failed: a defect in the
    program, never a verdict about the input."""


class MetricError(ValueError):
    """A distance matrix violates one of the metric axioms."""


class NegativeDistance(MetricError):
    pass


class NonzeroDiagonal(MetricError):
    pass


class ZeroOffDiagonal(MetricError):
    pass


class AsymmetryError(MetricError):
    pass


class TriangleViolation(MetricError):
    def __init__(self, labels, i, j, k):
        self.witness = (labels[i], labels[j], labels[k])
        super().__init__(
            "triangle inequality fails: d(%s,%s) > d(%s,%s) + d(%s,%s)"
            % (labels[i], labels[k], labels[i], labels[j], labels[j], labels[k])
        )


class NonpositiveWeight(MetricError):
    pass


class DisconnectedGraph(MetricError):
    pass


class EmptyK(MetricError):
    pass


class NotIsometricEmbedding(MetricError):
    pass


class LabelError(KeyError):
    """A point label does not resolve in the given space."""


def _as_fraction(value):
    if isinstance(value, float):
        raise TypeError("floats are not allowed as distances or lengths: %r" % (value,))
    return Fraction(value)


def _scale_matrix(matrix):
    """(scale, integer matrix): the Fractions times their least common
    denominator."""
    scale = math.lcm(*(v.denominator for row in matrix for v in row))
    return scale, tuple(
        tuple(v.numerator * (scale // v.denominator) for v in row) for row in matrix
    )


@dataclass(frozen=True)
class MetricSpace:
    """Finite point set with an exact rational distance matrix.

    _scaled caches (scale, integer matrix) for the kernels, _steps the
    step tables causal.walks builds per endpoint, row by row, on first use,
    and _m_x, once frames first reads it, the four-cut threshold; none
    takes part in equality, hashing or repr.
    """

    labels: tuple
    dist: tuple

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise MetricError("empty metric spaces are rejected")
        if len(set(self.labels)) != n:
            raise MetricError("duplicate labels: %r" % (self.labels,))
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise MetricError("distance matrix shape does not match label count")
        for i in range(n):
            for j in range(n):
                if not isinstance(self.dist[i][j], Fraction):
                    raise MetricError("non-rational distance at (%d,%d)" % (i, j))
        scaled = _scale_matrix(self.dist)
        d = scaled[1]
        for i in range(n):
            if d[i][i] != 0:
                raise NonzeroDiagonal("d(%s,%s) = %s != 0" % (self.labels[i], self.labels[i], self.dist[i][i]))
            for j in range(i + 1, n):
                if d[i][j] < 0 or d[j][i] < 0:
                    raise NegativeDistance("d(%s,%s) < 0" % (self.labels[i], self.labels[j]))
                if d[i][j] == 0:
                    raise ZeroOffDiagonal("distinct points %s, %s at distance 0" % (self.labels[i], self.labels[j]))
                if d[i][j] != d[j][i]:
                    raise AsymmetryError("d(%s,%s) != d(%s,%s)" % (self.labels[i], self.labels[j], self.labels[j], self.labels[i]))
        for i in range(n):
            row_i = d[i]
            for j in range(n):
                d_ij, row_j = row_i[j], d[j]
                for k in range(n):
                    if row_i[k] > d_ij + row_j[k]:
                        raise TriangleViolation(self.labels, i, j, k)
        object.__setattr__(self, "_scaled", scaled)
        object.__setattr__(self, "_steps", {})

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError(label) from None

    def __repr__(self):
        return "MetricSpace(%d points: %s)" % (self.n, ", ".join(self.labels))


def from_distance_matrix(labels, entries):
    """Build a MetricSpace from label list and square matrix of rationals."""
    labels = tuple(labels)
    dist = tuple(tuple(_as_fraction(v) for v in row) for row in entries)
    return MetricSpace(labels, dist)


def from_weighted_graph(vertices, edges):
    """Shortest-path metric of a connected, positively weighted graph.

    edges is an iterable of (u, v, weight) with vertex labels; parallel
    edges keep the lightest weight.  This is the one routine that completes
    a distance matrix: graph documents, Hasse graphs and glued spaces all
    come through it.
    """
    labels = tuple(vertices)
    n = len(labels)
    if n == 0:
        raise MetricError("empty metric spaces are rejected")
    if len(set(labels)) != n:
        raise MetricError("duplicate vertex labels")
    idx = {v: i for i, v in enumerate(labels)}
    lightest = {}  # (i, j) with i < j -> lightest weight of an i-j edge
    for u, v, w in edges:
        if u not in idx or v not in idx:
            raise MetricError("edge endpoint %r is not a listed vertex" % (u if u not in idx else v,))
        w = _as_fraction(w)
        if w <= 0:
            raise NonpositiveWeight("edge (%s,%s) has weight %s" % (u, v, w))
        if u == v:
            raise MetricError("self-loop at %s" % (u,))
        pair = (min(idx[u], idx[v]), max(idx[u], idx[v]))
        if pair not in lightest or w < lightest[pair]:
            lightest[pair] = w
    # shortest paths on the weights times their least common denominator;
    # a shortest path uses no edge twice, so `far` stands for infinity
    scale = math.lcm(*(w.denominator for w in lightest.values()))
    scaled = {pair: w.numerator * (scale // w.denominator) for pair, w in lightest.items()}
    far = sum(scaled.values()) + 1
    d = [[0 if i == j else far for j in range(n)] for i in range(n)]
    for (i, j), w in scaled.items():
        d[i][j] = d[j][i] = w
    for k in range(n):
        row_k = d[k]
        for row_i in d:
            d_ik = row_i[k]
            for j in range(n):
                via = d_ik + row_k[j]
                if via < row_i[j]:
                    row_i[j] = via
    for i in range(n):
        for j in range(n):
            if d[i][j] == far:
                raise DisconnectedGraph("no path between %s and %s" % (labels[i], labels[j]))
    return MetricSpace(labels, tuple(tuple(Fraction(v, scale) for v in row) for row in d))


def restriction(space, indices):
    """Metric subspace on the given point indices."""
    indices = tuple(indices)
    labels = tuple(space.labels[i] for i in indices)
    dist = tuple(tuple(space.dist[i][j] for j in indices) for i in indices)
    return MetricSpace(labels, dist)


def product(x, y):
    """l1-style product: d((a,b),(a',b')) = d_X(a,a') + d_Y(b,b').

    Returns the product space and the map (i, j) -> product point index.
    """
    labels = tuple(
        "(%s,%s)" % (lx, ly) for lx in x.labels for ly in y.labels
    )
    nx, ny = x.n, y.n
    dist = []
    for i in range(nx):
        for j in range(ny):
            row = []
            for k in range(nx):
                for m in range(ny):
                    row.append(x.dist[i][k] + y.dist[j][m])
            dist.append(tuple(row))
    return MetricSpace(labels, tuple(dist)), lambda i, j: i * ny + j


def scaled_length(space, seq):
    """Length of a point-index sequence times the space's scale, an int."""
    d = space._scaled[1]
    return sum(d[x][y] for x, y in zip(seq, seq[1:]))


def scaled_target(space, l):
    """A length l times the space's scale, an int; None when that is not an
    integer, as no sequence of the space then has length l."""
    if not isinstance(l, (int, Fraction)):
        l = _as_fraction(l)
    scale = space._scaled[0]
    if scale % l.denominator:
        return None
    return l.numerator * (scale // l.denominator)


def is_smooth(space, seq, k):
    """True iff dropping seq[k] preserves the length locally.

    Endpoints are never smooth.
    """
    if k <= 0 or k >= len(seq) - 1:
        return False
    d = space._scaled[1]
    return d[seq[k - 1]][seq[k]] + d[seq[k]][seq[k + 1]] == d[seq[k - 1]][seq[k + 1]]


def smooth_points(space, seq):
    """The indices k of seq with is_smooth(space, seq, k), in order."""
    d = space._scaled[1]
    return [
        k for k in range(1, len(seq) - 1)
        if d[seq[k - 1]][seq[k]] + d[seq[k]][seq[k + 1]] == d[seq[k - 1]][seq[k + 1]]
    ]


def four_cuts(space):
    """The threshold m_X: the least length of an obstruction quadruple.

    A quadruple (x0,x1,x2,x3) qualifies when both interior points are
    smooth, dropping either one preserves the total length, and the direct
    distance d(x0,x3) is strictly smaller.  INFINITE if none qualifies.
    """
    scale, d = space._scaled
    n = space.n
    m_x = INFINITE
    for x0 in range(n):
        for x1 in range(n):
            if x1 == x0:
                continue
            for x2 in range(n):
                if x2 == x1:
                    continue
                if d[x0][x1] + d[x1][x2] != d[x0][x2]:
                    continue
                for x3 in range(n):
                    if x3 == x2:
                        continue
                    if d[x1][x2] + d[x2][x3] != d[x1][x3]:
                        continue
                    total = d[x0][x1] + d[x1][x2] + d[x2][x3]
                    if d[x0][x3] < total < m_x:
                        m_x = total
    return m_x if m_x is INFINITE else Fraction(m_x, scale)


@dataclass(frozen=True)
class GluingSpec:
    """Two spaces glued along a common subspace K.

    The glued point list keeps all of g first, then the h points outside
    the image of K; points of K are identified with their g copies.
    Interior-h points are classified by whether they see all of K through
    a single gate in K (biased) or not (neutral).  classes, one small int
    per glued point, is the only record of that split: 0 interior g,
    1 in K, 2 biased, 3 neutral.
    """

    g: MetricSpace
    h: MetricSpace
    k_in_g: tuple
    k_in_h: tuple
    space: MetricSpace
    h_to_x: tuple
    gates: dict  # biased glued index -> glued index of its gate in K
    classes: tuple


def glue(g, h, k_in_g, k_in_h):
    """Glue g and h along K: the shortest-path metric of both halves,
    with every pair distance of each as an edge and K shared.

    Since K sits isometrically in both, d(x, y) for x in g and y in h is
    the least d_g(x, k) + d_h(k, y) over k in K, and each half keeps its
    own distances.
    """
    k_in_g = tuple(k_in_g)
    k_in_h = tuple(k_in_h)
    if len(k_in_g) == 0:
        raise EmptyK("K must be nonempty")
    if len(k_in_g) != len(k_in_h):
        raise MetricError("K index lists differ in length")
    if len(set(k_in_g)) != len(k_in_g) or len(set(k_in_h)) != len(k_in_h):
        raise MetricError("K index lists must be injective")
    m = len(k_in_g)
    for s in range(m):
        for t in range(m):
            if g.dist[k_in_g[s]][k_in_g[t]] != h.dist[k_in_h[s]][k_in_h[t]]:
                raise NotIsometricEmbedding(
                    "K distances differ at positions (%d,%d)" % (s, t)
                )
    k_h_set = set(k_in_h)
    interior_h_idx = [j for j in range(h.n) if j not in k_h_set]
    labels = list(g.labels) + [h.labels[j] for j in interior_h_idx]
    if len(set(labels)) != len(labels):
        raise MetricError("label collision between g and interior of h")
    h_to_x = [None] * h.n
    for t in range(m):
        h_to_x[k_in_h[t]] = k_in_g[t]
    for rank, j in enumerate(interior_h_idx):
        h_to_x[j] = g.n + rank
    h_to_x = tuple(h_to_x)
    # K is isometric in both halves, so a shortest path crosses it once
    edges = [
        (labels[x[i]], labels[x[j]], side.dist[i][j])
        for side, x in ((g, range(g.n)), (h, h_to_x))
        for i in range(side.n)
        for j in range(i + 1, side.n)
    ]
    space = from_weighted_graph(labels, edges)
    kset = frozenset(k_in_g)
    classes = [1 if i in kset else 0 for i in range(g.n)]
    gates = {}
    for j_h in interior_h_idx:
        candidates = [
            t
            for t in range(m)
            if all(
                h.dist[k_in_h[s]][j_h]
                == h.dist[k_in_h[s]][k_in_h[t]] + h.dist[k_in_h[t]][j_h]
                for s in range(m)
            )
        ]
        if len(candidates) == 0:
            classes.append(3)
        else:
            # two distinct gates would force distance zero between them
            if len(candidates) > 1:
                raise InternalFault("non-unique gate for %s" % (h.labels[j_h],))
            classes.append(2)
            gates[h_to_x[j_h]] = k_in_g[candidates[0]]
    return GluingSpec(
        g=g,
        h=h,
        k_in_g=k_in_g,
        k_in_h=k_in_h,
        space=space,
        h_to_x=h_to_x,
        gates=gates,
        classes=tuple(classes),
    )


def random_metric_space(n_points, seed, den_max=6):
    """Seeded random metric with distances in [1, 2].

    Values in [1, 2] satisfy the triangle inequality automatically, and the
    lower bound 1 keeps sequence enumeration budgets small.
    """
    rng = random.Random(seed)
    labels = tuple("x%d" % i for i in range(n_points))
    d = [[Fraction(0)] * n_points for _ in range(n_points)]
    for i in range(n_points):
        for j in range(i + 1, n_points):
            den = rng.randint(1, den_max)
            num = rng.randint(den, 2 * den)
            d[i][j] = d[j][i] = Fraction(num, den)
    return MetricSpace(labels, tuple(tuple(row) for row in d))

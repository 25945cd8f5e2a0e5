"""Causal posets over X x R and the relative order complexes built from them.

A light-like sequence from a to b of length l is a point sequence whose
steps sum to exactly l; its time stamps are the running prefix sums, so the
essential part of the causal interval (the points lying on some light-like
sequence) is a finite poset.  The order complex of that poset relative to
the short chains models the magnitude homotopy type, and all homology in
this package is computed from such pairs or from the sequence chain complex
directly.

An order complex relative to a subcomplex is handed on as (cells,
augmented): the chains outside the subcomplex, and whether the empty
simplex, in degree -1, is a cell too.  It is exactly when the subcomplex is
void, with no simplex at all, and the cells then give the reduced homology
of the complex; a subcomplex of only the empty simplex gives its unreduced
homology.

Lengths in and out of this module are Fractions.  The kernels run on the
space's integer distances, scaled once per space by their least common
denominator: a length l with l * scale not an integer has no sequences at
all.  Chains carry scaled integer times: a vertex of a causal poset or an
order complex is a pair (t, point) with t the time times the scale, so the
posets and complexes compare and hash ints.  seq_time_stamps is the one
Fraction view of those times.

walks, the one sequence kernel, does not recurse.  For an endpoint b it
keeps a step table on the space: for each point x the triples (need, y,
step), y != x, in ascending need, where step is the scaled d(x, y) and
need = step + the scaled d(y, b) (need = step when b is None).  The
table is made the first time b is enumerated, and each point's row the
first time a partial sequence ends there, so a walk that reaches a few
points of a large space sorts only their rows.  The partial sequences
grow one level at a time, and each stops scanning its table at the first
need above the length it has left, so its cost follows its live
extensions, not the number of points.
Steps are positive, so no output is a proper prefix of another, and one
sort of the output gives the depth-first lexicographic order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .metric import InternalFault, _as_fraction, scaled_length, scaled_target


class InvalidLength(ValueError):
    pass


class CausalPoint(NamedTuple):
    # the Fraction view of a chain vertex (t, point): time = t / scale, so the
    # tuple order (time, point index) is the order of the (t, point) pairs
    time: Fraction
    point: int


class _StepTable(dict):
    """The step table toward one endpoint (see the module docstring): a
    point's row is built the first time it is read, so a hit stays a plain
    dict lookup."""

    __slots__ = ("d", "to_end")

    def __init__(self, d, to_end):
        self.d = d
        self.to_end = to_end

    def __missing__(self, x):
        to_end = self.to_end
        row = self[x] = tuple(
            sorted(
                (step + to_end[y], y, step)
                for y, step in enumerate(self.d[x])
                if y != x
            )
        )
        return row


def _step_table(space, b):
    """The step table toward b, made on first use and kept on the space."""
    table = space._steps.get(b)
    if table is None:
        d = space._scaled[1]
        to_end = d[b] if b is not None else [0] * space.n  # d is symmetric
        table = space._steps[b] = _StepTable(d, to_end)
    return table


def walks(space, a, l, b=None, successors=None):
    """All sequences from a whose steps sum to exactly l, lexicographic.

    A sequence ends at b, or at any point when b is None.  successors(seq,
    steps) filters steps, the (need, y, step) triples out of seq's last
    point in ascending need, to those whose y may follow the partial
    sequence seq, keeping their order; by default every point other than
    the last may.
    """
    d = space._scaled[1]
    top = scaled_target(space, l)
    if top is None or top < (0 if b is None else d[a][b]):
        return []
    if top == 0:
        return [(a,)]
    table = _step_table(space, b)
    out = []
    # breadth first: every partial sequence still needs rem > 0, and a step
    # is taken only if it leaves at least the distance on to b
    level = [((a,), top)]
    while level:
        deeper = []
        for seq, rem in level:
            steps = table[seq[-1]]
            if successors is not None:
                steps = successors(seq, steps)
            for need, y, step in steps:
                if need > rem:
                    break
                if step == rem:
                    out.append(seq + (y,))
                else:
                    deeper.append((seq + (y,), rem - step))
        level = deeper
    out.sort()  # the depth-first order, as no output prefixes another
    return out


def lightlike_sequences(space, a, b, l):
    """All sequences a -> b with steps summing to exactly l, lexicographic."""
    return walks(space, a, l, b)


def _reachable_lengths(space, start, budget):
    """Map point -> set of scaled sequence lengths from start, up to budget;
    empty when the budget is negative."""
    scale, d = space._scaled
    budget = math.floor(_as_fraction(budget) * scale)
    if budget < 0:
        return {}
    n = space.n
    seen = {start: {0}}
    frontier = [(start, 0)]
    while frontier:
        x, used = frontier.pop()
        row = d[x]
        for y in range(n):
            if y == x:
                continue
            nl = used + row[y]
            if nl > budget:
                continue
            bucket = seen.setdefault(y, set())
            if nl not in bucket:
                bucket.add(nl)
                frontier.append((y, nl))
    return seen


def _unscaled(space, scaled_lengths):
    scale = space._scaled[0]
    return [Fraction(k, scale) for k in sorted(scaled_lengths)]


def achievable_lengths(space, budget):
    """Sorted list of all sequence lengths <= budget, over all endpoints."""
    out = set()
    for start in range(space.n):
        for bucket in _reachable_lengths(space, start, budget).values():
            out |= bucket
    return _unscaled(space, out)


def pair_achievable_lengths(space, a, b, budget):
    """Sorted list of lengths of sequences from a to b, up to budget."""
    return _unscaled(space, _reachable_lengths(space, a, budget).get(b, ()))


def _pairs_reaching(space, pairs, l):
    """The (a, b) pairs with a sequence of length exactly l, in order: one
    search of lengths per source, where pair_achievable_lengths makes one
    per pair."""
    top = scaled_target(space, l)
    reach = {}
    out = []
    for a, b in pairs:
        if a not in reach:
            reach[a] = _reachable_lengths(space, a, l)
        if top in reach[a].get(b, ()):
            out.append((a, b))
    return out


def _stamps(space, seq):
    """The chain a sequence carries: (t, point) pairs, t the prefix sum of
    its scaled distances."""
    d = space._scaled[1]
    t = 0
    chain = [(0, seq[0])]
    for x, y in zip(seq, seq[1:]):
        t += d[x][y]
        chain.append((t, y))
    return tuple(chain)


def seq_time_stamps(space, seq):
    """The chain of causal points carried by a sequence (prefix-sum times)."""
    scale = space._scaled[0]
    return tuple(CausalPoint(Fraction(t, scale), p) for t, p in _stamps(space, seq))


def order_chains(members, lt):
    """All nonempty chains of the strict order lt on members, each listed
    from its least element up, depth first in the order of members."""
    greater = {u: [v for v in members if lt(u, v)] for u in members}
    out = []
    chain = []

    def extend(u):
        chain.append(u)
        out.append(tuple(chain))
        for v in greater[u]:
            extend(v)
        chain.pop()

    for u in members:
        extend(u)
    return out


class CausalPoset:
    """Finite subposet of X x R under (x,t) <= (y,s) iff d(x,y) <= s - t.

    Its points are (t, point) pairs with t the time times the space's scale.
    """

    __slots__ = ("space", "points")

    def __init__(self, space, points):
        self.space = space
        self.points = tuple(sorted(points))

    def leq(self, u, v):
        return self.space._scaled[1][u[1]][v[1]] <= v[0] - u[0]

    def lt(self, u, v):
        return u != v and self.leq(u, v)

    def chains(self):
        """All nonempty chains, each sorted by (t, point)."""
        return order_chains(self.points, self.lt)

    def __repr__(self):
        scale = self.space._scaled[0]
        body = ", ".join(
            "(%s,%s)" % (self.space.labels[p], Fraction(t, scale))
            for t, p in self.points
        )
        return "CausalPoset[%s]" % body


def essential_poset(space, a, b, l):
    """Causal points lying on some light-like sequence from a to b."""
    pts = set()
    for seq in lightlike_sequences(space, a, b, l):
        pts.update(_stamps(space, seq))
    return CausalPoset(space, pts)


def order_complex_pair(space, a, b, l):
    """Order complex of the essential poset relative to its short chains, as
    (cells, augmented).

    A chain is short when its underlying sequence is shorter than l, and the
    cells, the chains that are not, are exactly the time-stamped light-like
    sequences.  The subcomplex of short chains holds at least the empty
    simplex, so augmented is False: at l = 0 no chain undercuts 0, and the
    cells give the unreduced homology of the complex.
    """
    l = _as_fraction(l)
    # the essential poset, from the stamps the relative-part check reuses
    stamped = {_stamps(space, s) for s in lightlike_sequences(space, a, b, l)}
    poset = CausalPoset(space, set().union(*stamped))
    top = scaled_target(space, l)  # an int whenever the poset has points
    cells = [
        c for c in poset.chains()
        if scaled_length(space, [p for _, p in c]) >= top
    ]
    # the relative part must be exactly the stamped light-like sequences
    if set(cells) != stamped:
        raise InternalFault("relative chains are not the light-like sequences")
    return cells, False


def inner_pair(space, a, b, l):
    """Endpoint-stripped pair, as (cells, augmented): the chains strictly
    between (a,0) and (b,l) that admit no shortcut below l.

    When d(a,b) > l there is nothing.  When d(a,b) == l no chain is short
    and the subcomplex is void, so augmented is True and the cells give the
    reduced homology of the interval; when d(a,b) < l the subcomplex holds
    at least the empty simplex and augmented is False.
    """
    l = _as_fraction(l)
    if l <= 0:
        raise InvalidLength("positive length required, got %s" % (l,))
    poset = essential_poset(space, a, b, l)
    top = scaled_target(space, l)  # an int whenever the poset has points
    ends = {(0, a), (top, b)}
    chains = CausalPoset(space, [p for p in poset.points if p not in ends]).chains()
    cells = [
        c for c in chains
        if scaled_length(space, [a] + [p for _, p in c] + [b]) >= top
    ]
    augmented = space.dist[a][b] == l
    assert not augmented or len(cells) == len(chains), "a chain undercuts l"
    return cells, augmented

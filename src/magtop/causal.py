"""Causal posets over X x R and the simplicial pairs built from them.

A light-like sequence from a to b of length l is a point sequence whose
steps sum to exactly l; its time stamps are the running prefix sums, so the
essential part of the causal interval (the points lying on some light-like
sequence) is a finite poset.  The order complex of that poset relative to
the short chains models the magnitude homotopy type, and all homology in
this package is computed from such pairs or from the sequence chain complex
directly.

Lengths in and out of this module are Fractions.  The kernels run on the
space's integer distances, scaled once per space by their least common
denominator: a length l with l * scale not an integer has no sequences at
all.  Chains carry scaled integer times: a vertex of a causal poset or an
order complex is a pair (t, point) with t the time times the scale, so the
posets and complexes compare and hash ints.  seq_time_stamps is the one
Fraction view of those times.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .metric import InternalFault, scaled_length


class InvalidLength(ValueError):
    pass


class CausalPoint(NamedTuple):
    # the Fraction view of a chain vertex (t, point): time = t / scale, so the
    # tuple order (time, point index) is the order of the (t, point) pairs
    time: Fraction
    point: int


def walks(space, a, l, b=None, successors=None):
    """All sequences from a whose steps sum to exactly l, lexicographic.

    A sequence ends at b, or at any point when b is None.  successors(seq)
    lists, in increasing order, the points that may follow the partial
    sequence seq; by default that is every point other than its last.
    """
    scale, d = space._scaled
    l = Fraction(l) * scale
    if l.denominator != 1:
        return []
    l = l.numerator
    n = space.n
    if successors is None:
        others = [[y for y in range(n) if y != x] for x in range(n)]

        def successors(seq):
            return others[seq[-1]]

    # least length still needed after reaching y; a step is taken only if
    # it leaves at least that much, so rem reaches 0 only at b
    to_end = [0 if b is None else d[y][b] for y in range(n)]
    out = []
    seq = [a]

    def extend(x, rem):
        if rem == 0:
            out.append(tuple(seq))
            return
        for y in successors(seq):
            step = d[x][y]
            if step > rem or to_end[y] > rem - step:
                continue
            seq.append(y)
            extend(y, rem - step)
            seq.pop()

    if to_end[a] <= l:
        extend(a, l)
    return out


def lightlike_sequences(space, a, b, l):
    """All sequences a -> b with steps summing to exactly l, lexicographic."""
    return walks(space, a, l, b)


def _reachable_lengths(space, start, budget):
    """Map point -> set of scaled sequence lengths from start, up to budget;
    empty when the budget is negative."""
    scale, d = space._scaled
    budget = math.floor(Fraction(budget) * scale)
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

    def validate(self):
        # reflexivity / antisymmetry / transitivity on the carrier
        for u in self.points:
            assert self.leq(u, u)
            for v in self.points:
                if self.leq(u, v) and self.leq(v, u):
                    assert u == v
                for w in self.points:
                    if self.leq(u, v) and self.leq(v, w):
                        assert self.leq(u, w)
        return True

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


VOID = "void"
EMPTY = "empty"
NONEMPTY = "nonempty"


class SimplicialComplex:
    """Tri-state finite complex.

    void:  no simplices at all (not even the empty one)
    empty: only the empty simplex
    else:  the empty simplex plus the stored nonempty simplices
    Simplices are tuples of vertices in ascending vertex order.
    """

    __slots__ = ("is_void", "_sims")

    def __init__(self, is_void, sims):
        self.is_void = is_void
        self._sims = frozenset(sims)
        if is_void:
            assert not self._sims
        for s in self._sims:
            assert len(s) > 0 and tuple(sorted(s)) == s
            if len(s) > 1:
                for i in range(len(s)):
                    face = s[:i] + s[i + 1:]
                    assert face in self._sims, "not closed under faces"

    @classmethod
    def void(cls):
        return cls(True, ())

    @classmethod
    def of(cls, simplices):
        """Nonvoid complex on simplices, which must be closed under faces."""
        return cls(False, (tuple(sorted(s)) for s in simplices))

    @property
    def state(self):
        if self.is_void:
            return VOID
        return EMPTY if not self._sims else NONEMPTY

    def __contains__(self, simplex):
        return tuple(sorted(simplex)) in self._sims

    def __len__(self):
        return len(self._sims)

    def simplices(self):
        return sorted(self._sims, key=lambda s: (len(s), s))

    def __le__(self, other):
        if self.is_void:
            return True
        if other.is_void:
            return False
        return self._sims <= other._sims

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.is_void == other.is_void
            and self._sims == other._sims
        )

    def __hash__(self):
        return hash((self.is_void, self._sims))

    def __repr__(self):
        return "SimplicialComplex(%s, %d simplices)" % (self.state, len(self._sims))


class SimplicialPair:
    """A complex together with a subcomplex, with tri-state bookkeeping."""

    __slots__ = ("total", "sub")

    def __init__(self, total, sub):
        assert sub <= total, "sub is not a subcomplex of total"
        self.total = total
        self.sub = sub

    def relative_simplices(self):
        return sorted(self.total._sims - self.sub._sims, key=lambda s: (len(s), s))

    def __repr__(self):
        return "SimplicialPair(total=%s, sub=%s)" % (self.total.state, self.sub.state)


def _chain_pair(chains, is_short, sub_void):
    """Order complex of chains relative to its short chains.

    The chains come ascending and closed under faces, so they are stored as
    they are.  The sub side is void when sub_void, and then no chain may be
    short.
    """
    total = SimplicialComplex(False, chains)
    if sub_void:
        assert not any(map(is_short, chains)), "a chain undercuts l"
        return SimplicialPair(total, SimplicialComplex.void())
    short = [c for c in chains if is_short(c)]
    return SimplicialPair(total, SimplicialComplex(False, short))


def order_complex_pair(space, a, b, l):
    """Order complex of the essential poset, relative to short chains.

    total = all chains; sub = chains whose underlying sequence is shorter
    than l.  The simplices outside sub are exactly the time-stamped
    light-like sequences.  At l = 0 the sub side is void; a void essential
    poset gives the (void, void) pair.
    """
    l = Fraction(l)
    # the essential poset, from the stamps the relative-part check reuses
    stamped = {_stamps(space, s) for s in lightlike_sequences(space, a, b, l)}
    poset = CausalPoset(space, set().union(*stamped))
    if not poset.points:
        return SimplicialPair(SimplicialComplex.void(), SimplicialComplex.void())
    top = int(l * space._scaled[0])  # exact, as sequences of length l exist
    pair = _chain_pair(
        poset.chains(),
        lambda c: scaled_length(space, [p for _, p in c]) < top,
        l == 0,
    )
    # the relative part must be exactly the stamped light-like sequences
    if pair.total._sims - pair.sub._sims != stamped:
        raise InternalFault("relative chains are not the light-like sequences")
    return pair


def inner_pair(space, a, b, l):
    """Endpoint-stripped pair: chains strictly between (a,0) and (b,l),
    relative to the chains that admit a shortcut below l.

    total is void when d(a,b) > l and empty when d(a,b) <= l but no
    interior essential points exist; sub is void when d(a,b) >= l and
    empty when d(a,b) < l with no short chains.
    """
    l = Fraction(l)
    if l <= 0:
        raise InvalidLength("positive length required, got %s" % (l,))
    d_ab = space.dist[a][b]
    if d_ab > l:
        return SimplicialPair(SimplicialComplex.void(), SimplicialComplex.void())
    poset = essential_poset(space, a, b, l)
    top = int(l * space._scaled[0])  # exact whenever the poset has points
    ends = {(0, a), (top, b)}
    mid = [p for p in poset.points if p not in ends]
    mid_poset = CausalPoset(space, mid)
    return _chain_pair(
        mid_poset.chains(),
        lambda c: scaled_length(space, [a] + [p for _, p in c] + [b]) < top,
        d_ab >= l,
    )

"""Verified discrete Morse matchings and the glued-space twist bijection.

Cells are point-index sequences; a face drops one entry.  The magnitude
homotopy type's non-degenerate cells are the time-stamped full-length
sequences, and stamping is a bijection onto the plain sequences that
commutes with dropping an entry, so nothing here stamps a cell: the
`critical-cells` command stamps what it prints.

A partial matching pairs cells with codimension-one faces.  Matched
pairs reverse their Hasse arrow; acyclicity of the resulting digraph is
checked, never assumed.  For a glued space the projecting matching pairs
every sequence that crosses from one side to the other through the common
part with a partner obtained by inserting or deleting a gate point, and
its unmatched full-length sequences are exactly the ones decomposable
into one-sided pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .causal import achievable_lengths, lightlike_sequences
from .homology import VerifyReport
from .metric import InternalFault, glue, seq_length
from .series import format_series, magnitude


class NotAMatching(ValueError):
    pass


class GateMissing(InternalFault):
    pass


class NotASycamoreTwist(ValueError):
    pass


class CriticalCellsMismatch(InternalFault):
    pass


class Matching:
    """Partial pairing (face, coface) with each cell in at most one pair.

    The face is the coface with one entry deleted.
    """

    __slots__ = ("pairs", "_up", "_down")

    def __init__(self, pairs):
        pairs = tuple(sorted(pairs))
        up = {}
        down = {}
        for face, coface in pairs:
            if len(coface) != len(face) + 1 or not any(
                coface[:i] + coface[i + 1 :] == face for i in range(len(coface))
            ):
                raise NotAMatching(
                    "pair is not a codimension-one face relation: %r, %r"
                    % (face, coface)
                )
            for s in (face, coface):
                if s in up or s in down:
                    raise NotAMatching("simplex matched twice: %r" % (s,))
            up[face] = coface
            down[coface] = face
        self.pairs = pairs
        self._up = up
        self._down = down

    def is_matched(self, simplex):
        return simplex in self._up or simplex in self._down

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other):
        return isinstance(other, Matching) and self.pairs == other.pairs

    def __repr__(self):
        return "Matching(%d pairs)" % len(self.pairs)


@dataclass(frozen=True)
class AcyclicReport:
    ok: bool
    cycle: tuple = ()

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class BoundedReport:
    ok: bool
    bounds: dict

    def __bool__(self):
        return self.ok


def _modified_hasse(simplices, matching):
    """The modified Hasse digraph on cell indices.

    Returns the distinct cells, the matched pairs as {face: coface} and the
    successor lists: matched Hasse arrows point up, the rest point down.
    """
    index = {}
    for s in simplices:
        index.setdefault(s, len(index))
    cells = list(index)
    up = {}
    for face, coface in matching:
        f, c = index.get(face), index.get(coface)
        if f is None or c is None:
            raise NotAMatching("matched simplex outside the complex: %r" % (face,))
        up[f] = c
    succ = [[] for _ in cells]
    for key, s in index.items():
        for i in range(len(key)):
            f = index.get(key[:i] + key[i + 1 :])
            if f is None:
                continue
            if up.get(f) == s:
                succ[f].append(s)
            else:
                succ[s].append(f)
    return cells, up, succ


def _kahn(succ):
    """Kahn order of a digraph on indices, and the indegrees it leaves.

    The order covers every node exactly when the digraph is acyclic; the
    nodes it misses keep a positive indegree.
    """
    indeg = [0] * len(succ)
    for outs in succ:
        for t in outs:
            indeg[t] += 1
    order = [s for s, d in enumerate(indeg) if not d]
    for s in order:  # the order grows while it is read
        for t in succ[s]:
            indeg[t] -= 1
            if not indeg[t]:
                order.append(t)
    return order, indeg


def verify_acyclic(simplices, matching):
    """Kahn-style cycle test on the modified Hasse digraph.

    Returns a report carrying a directed cycle as witness on failure: the
    cells in order, each step a matched up-arrow or an unmatched down-arrow.
    """
    cells, _, succ = _modified_hasse(simplices, matching)
    order, indeg = _kahn(succ)
    if len(order) == len(cells):
        return AcyclicReport(True)
    # every node the order missed has a predecessor it missed too
    back = {
        t: s for s, outs in enumerate(succ) if indeg[s] for t in outs if indeg[t]
    }
    trail = {}
    s = next(iter(back))
    while s not in trail:
        trail[s] = len(trail)
        s = back[s]
    cycle = list(trail)[trail[s] :]
    cycle.reverse()
    return AcyclicReport(False, tuple(cells[t] for t in cycle))


def verify_bounded(simplices, matching):
    """Longest alternating descent (down to a free face, up its partner).

    N(a) counts the cells on the longest path from a that alternates an
    unmatched down-arrow with the face's matched up-arrow.  Such a path runs
    forward in the Kahn order of the modified Hasse digraph, so the counts
    fill in from its end; a cycle leaves the order short and the report
    failing.  The counts are returned keyed by cell so callers can inspect
    them.
    """
    cells, up, succ = _modified_hasse(simplices, matching)
    order, _ = _kahn(succ)
    if len(order) < len(cells):
        return BoundedReport(False, {})
    bound = [0] * len(cells)
    for s in reversed(order):
        # a coface is never a matched face, so only down-arrows pass the test
        bound[s] = 1 + max((bound[up[f]] for f in succ[s] if f in up), default=0)
    return BoundedReport(True, dict(zip(cells, bound)))


@dataclass(frozen=True)
class SequenceClass:
    """Classification of a glued-space sequence.

    kind is "sticky" when some crossing run has one end strictly inside g,
    the other end at a biased interior-h point, and everything between in
    K; otherwise "flat" (single one-sided piece) or "twistable" (several
    pieces concatenated at neutral points).
    """

    kind: str
    first_sticky: tuple | None = None
    pieces: tuple = ()
    cuts: tuple = ()


def _first_sticky(gspec, seq):
    kset = gspec.kset
    interior_g = gspec.interior_g
    biased = gspec.biased
    k = len(seq)
    for i in range(k - 1):
        xi = seq[i]
        if xi not in interior_g and xi not in biased:
            continue
        j = i + 1
        while j < k and seq[j] in kset:
            j += 1
        if j == k:
            continue
        xj = seq[j]
        if xi in interior_g and xj in biased:
            return (i, j)
        if xi in biased and xj in interior_g:
            return (i, j)
    return None


def classify_sequence(gspec, seq):
    """Classify and, when sticky-free, decompose into one-sided flat pieces.

    Pieces overlap in single concatenation points, each of which lies in
    the neutral part of interior h; a fully one-sided sequence is a single
    piece with no cuts.
    """
    seq = tuple(seq)
    sticky = _first_sticky(gspec, seq)
    if sticky is not None:
        return SequenceClass("sticky", sticky)
    side_g = gspec.interior_g | gspec.kset | gspec.neutral
    side_h = gspec.side_h()
    neutral = gspec.neutral
    k = len(seq)
    pieces = []
    cuts = []
    start = 0
    while True:
        ok_g = True
        ok_h = True
        end = start
        for m in range(start, k):
            in_g = ok_g and seq[m] in side_g
            in_h = ok_h and seq[m] in side_h
            if not in_g and not in_h:
                break
            ok_g, ok_h = in_g, in_h
            end = m
        if end == k - 1:
            pieces.append((start, end))
            break
        # prefix maximal and strictly one-sided at a proper split
        assert ok_g != ok_h, "ambiguous maximal prefix cannot end properly"
        if ok_g:
            j = max(m for m in range(start, end + 1) if seq[m] not in gspec.kset)
        else:
            j = max(
                m for m in range(start, end + 1) if seq[m] in gspec.interior_h
            )
        assert seq[j] in neutral, "split point must be neutral when sticky-free"
        assert j > start, "decomposition must make progress"
        pieces.append((start, j))
        cuts.append(j)
        start = j
    kind = "flat" if len(pieces) == 1 else "twistable"
    return SequenceClass(kind, None, tuple(pieces), tuple(cuts))


def _partner_sequence(gspec, seq):
    """Partner of a sticky sequence: (face seq, coface seq) under gate moves."""
    sticky = _first_sticky(gspec, seq)
    assert sticky is not None, "only sticky sequences have partners"
    i, j = sticky
    if seq[i] in gspec.biased:
        e, inner = i, i + 1
        gate = gspec.gates.get(seq[i])
    else:
        e, inner = j, j - 1
        gate = gspec.gates.get(seq[j])
    if gate is None:
        raise GateMissing("biased point %r has no gate" % (seq[e],))
    if seq[inner] != gate:
        pos = inner if e == i else j
        bigger = seq[:pos] + (gate,) + seq[pos:]
        return seq, bigger
    smaller = seq[:inner] + seq[inner + 1 :]
    return smaller, seq


def lightlike_simplices(space, l):
    """Full-length sequences between all ordered endpoint pairs."""
    out = []
    for a in range(space.n):
        for b in range(space.n):
            out.extend(lightlike_sequences(space, a, b, l))
    return out


def projecting_matching(gspec, l):
    """Pair every sticky full-length sequence with its gate insert/delete.

    The gate identity keeps insertion length-preserving, so both halves of
    each pair are full-length sequences of the same endpoints.  Length,
    repeats, involution and conflicts are checked; a failure raises
    NotAMatching.
    """
    space = gspec.space
    l = Fraction(l)
    pairs = {}
    for a in range(space.n):
        for b in range(space.n):
            for seq in lightlike_sequences(space, a, b, l):
                if _first_sticky(gspec, seq) is None:
                    continue
                face, coface = _partner_sequence(gspec, seq)
                other = face if seq == coface else coface
                if seq_length(space, other) != l:
                    raise NotAMatching("gate move changed length")
                if any(other[t] == other[t + 1] for t in range(len(other) - 1)):
                    raise NotAMatching("gate move produced a repeated point")
                if _partner_sequence(gspec, other) != (face, coface):
                    raise NotAMatching("gate pairing is not involutive")
                if pairs.setdefault(face, coface) != coface:
                    raise NotAMatching("conflicting partners")
    return Matching(pairs.items())


def critical_cells(gspec, l):
    """Unmatched full-length sequences of the projecting matching, sorted.

    Shorter sequences are never touched by the matching and stay critical;
    only the full-length ones are enumerated here.  The result is checked
    against the independent sticky-free classification.
    """
    space = gspec.space
    l = Fraction(l)
    matching = projecting_matching(gspec, l)
    critical = []
    twistfree = []
    for a in range(space.n):
        for b in range(space.n):
            for seq in lightlike_sequences(space, a, b, l):
                if not matching.is_matched(seq):
                    critical.append(seq)
                if classify_sequence(gspec, seq).kind != "sticky":
                    twistfree.append(seq)
    # both lists keep the order of one enumeration of distinct sequences
    if critical != twistfree:
        raise CriticalCellsMismatch(
            "critical cells differ from sticky-free sequences at length %s" % (l,)
        )
    return sorted(critical)


class SycamoreTwist:
    """A gluing and its re-gluing along a self-isometry of the common part.

    Requires every neutral interior-h point to be at equal distance from
    each common point and its image under the twist; violations are
    rejected with a witness.  tau_h relabels the h side of x: common points
    move along the inverse twist, interior points stay.
    """

    __slots__ = ("g", "h", "k_in_g", "k_in_h", "alpha", "x", "y", "tau_h")

    def __init__(self, g, h, k_in_g, k_in_h, alpha):
        alpha = tuple(alpha)
        m = len(k_in_g)
        # glue checks K first, so the alpha checks index equal-length lists
        x = glue(g, h, k_in_g, k_in_h)
        if sorted(alpha) != list(range(m)):
            raise NotASycamoreTwist("alpha is not a permutation of the common part")
        for s in range(m):
            for t in range(m):
                if (
                    h.dist[k_in_h[alpha[s]]][k_in_h[alpha[t]]]
                    != h.dist[k_in_h[s]][k_in_h[t]]
                ):
                    raise NotASycamoreTwist(
                        "alpha is not a self-isometry at positions (%d,%d)" % (s, t)
                    )
        y = glue(g, h, k_in_g, tuple(k_in_h[alpha[t]] for t in range(m)))
        for glued in sorted(x.neutral):
            j_h = x.h_to_x.index(glued)
            for t in range(m):
                if h.dist[k_in_h[t]][j_h] != h.dist[k_in_h[alpha[t]]][j_h]:
                    raise NotASycamoreTwist(
                        "neutral point %s distinguishes %s from %s"
                        % (
                            h.labels[j_h],
                            h.labels[k_in_h[t]],
                            h.labels[k_in_h[alpha[t]]],
                        )
                    )
        assert x.biased == y.biased and x.neutral == y.neutral, (
            "twist changed the biased/neutral split"
        )
        self.g = g
        self.h = h
        self.k_in_g = tuple(k_in_g)
        self.k_in_h = tuple(k_in_h)
        self.alpha = alpha
        self.x = x
        self.y = y
        common = {k_in_g[alpha[t]]: k_in_g[t] for t in range(m)}
        self.tau_h = {p: common.get(p, p) for p in x.side_h()}

    def reverse(self):
        """Twist mapping y back to x; its map composes with this one to id."""
        inv = [0] * len(self.alpha)
        for t, s in enumerate(self.alpha):
            inv[s] = t
        k_in_h = tuple(self.k_in_h[s] for s in self.alpha)
        return SycamoreTwist(self.g, self.h, self.k_in_g, k_in_h, inv)


def sycamore_tau(twist, seq):
    """Map a sticky-free sequence of the glued space to the twisted one.

    Pieces inside g plus the neutral part are kept pointwise; pieces inside
    h keep interior points and relabel common points along the inverse
    twist.  Concatenation points are neutral, hence fixed by both maps.
    """
    x = twist.x
    cls = classify_sequence(x, seq)
    if cls.kind == "sticky":
        raise ValueError("sticky sequences have no twist image")
    side_flat_g = x.interior_g | x.kset | x.neutral
    out = []
    for start, end in cls.pieces:
        piece = seq[start : end + 1]
        if all(p in side_flat_g for p in piece):
            image = piece
        else:
            image = tuple(twist.tau_h[p] for p in piece)
        if out:
            assert out[-1] == image[0], "piece images disagree at a cut point"
            out.extend(image[1:])
        else:
            out.extend(image)
    return tuple(out)


def _by_dim(cells):
    table = {}
    for s in cells:
        table.setdefault(len(s) - 1, set()).add(s)
    return table


def verify_sycamore(twist, lmax):
    """Check the twist bijection, Euler counts, and magnitude agreement.

    For each achievable length: the twist map carries sticky-free
    sequences bijectively onto those of the twisted space dimension by
    dimension, matched pairs cancel in the alternating count, and the
    truncated magnitude series of the two spaces coincide.
    """
    x, y = twist.x.space, twist.y.space
    lmax = Fraction(lmax)
    rows = []
    problems = []
    lengths = sorted(
        set(achievable_lengths(x, lmax)) | set(achievable_lengths(y, lmax))
    )
    rev = twist.reverse()
    for l in lengths:
        crit_x = _by_dim(critical_cells(twist.x, l))
        crit_y = _by_dim(critical_cells(twist.y, l))
        images = {}
        for k, cells in crit_x.items():
            imgs = set()
            stretched = unreversed = 0
            for seq in cells:
                img = sycamore_tau(twist, seq)
                if seq_length(y, img) != l:
                    stretched += 1
                elif sycamore_tau(rev, img) != seq:
                    unreversed += 1
                imgs.add(img)
            if stretched:
                problems.append(
                    "length %s dim %d: %d twist images change length"
                    % (l, k, stretched)
                )
            if unreversed:
                problems.append(
                    "length %s dim %d: reverse twist fails to invert %d cells"
                    % (l, k, unreversed)
                )
            if len(imgs) != len(cells):
                problems.append(
                    "length %s dim %d: twist map is not injective" % (l, k)
                )
            images[k] = imgs
        dims = sorted(set(crit_x) | set(crit_y) | set(images))
        for k in dims:
            cx = len(crit_x.get(k, ()))
            cy = len(crit_y.get(k, ()))
            same = images.get(k, set()) == crit_y.get(k, set())
            rows.append((l, k, cx, cy, same and cx == cy))
            if not (same and cx == cy):
                problems.append(
                    "length %s dim %d: %d cells vs %d" % (l, k, cx, cy)
                )
        for side, gspec, crit in (("x", twist.x, crit_x), ("y", twist.y, crit_y)):
            cells = lightlike_simplices(gspec.space, l)
            light = _by_dim(cells)
            alt_light = sum((-1) ** k * len(v) for k, v in light.items())
            alt_crit = sum((-1) ** k * len(v) for k, v in crit.items())
            if alt_light != alt_crit:
                problems.append(
                    "length %s in %s: matched pairs fail to cancel in the "
                    "Euler count, %d over all cells vs %d over critical ones"
                    % (l, side, alt_light, alt_crit)
                )
            matching = projecting_matching(gspec, l)
            if not verify_acyclic(cells, matching):
                problems.append("cyclic matching at length %s" % (l,))
            if not verify_bounded(cells, matching):
                problems.append("unbounded matching at length %s" % (l,))
    mag_x = magnitude(x, lmax)
    mag_y = magnitude(y, lmax)
    if mag_x != mag_y:
        problems.append(
            "magnitude differs: %s vs %s"
            % (format_series(mag_x), format_series(mag_y))
        )
    detail = "; ".join(problems) if problems else (
        "bijection, Euler counts, and magnitude agree up to q^%s" % (lmax,)
    )
    return VerifyReport(not problems, detail, tuple(rows))

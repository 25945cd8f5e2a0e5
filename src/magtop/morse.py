"""Verified discrete Morse matchings and the glued-space twist bijection.

Cells are point-index sequences; a face drops one entry.  The magnitude
homotopy type's non-degenerate cells are the time-stamped full-length
sequences, and stamping is a bijection onto the plain sequences that
commutes with dropping an entry, so nothing here stamps a cell: the
`critical-cells` command stamps what it prints.

A partial matching pairs cells with codimension-one faces.  Matched
pairs reverse their Hasse arrow; acyclicity of the resulting digraph is
checked, never assumed.  modified_hasse builds that digraph on cell
indices and its Kahn order once, and verify_acyclic and verify_bounded
both read the one pass.  For a glued space the projecting matching pairs
every sequence that crosses from one side to the other through the common
part with a partner obtained by inserting or deleting a gate point, and
its unmatched full-length sequences are exactly the ones decomposable
into one-sided pieces.  classify_sequence returns those pieces as
(start, end) index pairs, or None for a sticky sequence, in one scan of
the gluing's per-point class tuple, as the sticky scan does.

verify_sycamore holds one length's work at a time, and of it one step at
a time: first the critical cells of both sides and the twist images, then
side x's full-length cells, matching and Hasse pass, then side y's.  Each
step keeps only the counts the next one reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .causal import achievable_lengths, lightlike_sequences
from .homology import VerifyReport
from .metric import InternalFault, _as_fraction, glue, scaled_length, scaled_target
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
    bounds: tuple  # N(cells[s]) at index s of the pass read, () on a cycle

    def __bool__(self):
        return self.ok


class HassePass:
    """The modified Hasse digraph on cell indices and its Kahn order."""

    __slots__ = ("cells", "up", "succ", "order", "indeg")

    def __init__(self, cells, up, succ, order, indeg):
        self.cells = cells  # the distinct cells, in first-seen order
        self.up = up  # matched face index -> coface index
        self.succ = succ  # successor lists: matched arrows up, the rest down
        self.order = order  # Kahn order; it misses the cells a cycle reaches
        self.indeg = indeg  # left by the order: positive on the cells it misses


def modified_hasse(simplices, matching):
    """One pass over the modified Hasse digraph for both verifiers.

    The Kahn order covers every cell exactly when the digraph is acyclic;
    the cells it misses keep a positive indegree.
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
    indeg = [0] * len(cells)
    for key, s in index.items():
        for i in range(len(key)):
            f = index.get(key[:i] + key[i + 1 :])
            if f is None:
                continue
            if up.get(f) == s:
                succ[f].append(s)
                indeg[s] += 1
            else:
                succ[s].append(f)
                indeg[f] += 1
    order = [s for s, d in enumerate(indeg) if not d]
    for s in order:  # the order grows while it is read
        for t in succ[s]:
            indeg[t] -= 1
            if not indeg[t]:
                order.append(t)
    return HassePass(cells, up, succ, order, indeg)


def verify_acyclic(hasse):
    """Cycle test on a modified Hasse pass.

    Returns a report carrying a directed cycle as witness on failure: the
    cells in order, each step a matched up-arrow or an unmatched down-arrow.
    """
    succ, indeg = hasse.succ, hasse.indeg
    if len(hasse.order) == len(succ):
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
    return AcyclicReport(False, tuple(hasse.cells[t] for t in cycle))


def verify_bounded(hasse):
    """Longest alternating descent (down to a free face, up its partner).

    N(a) counts the cells on the longest path from a that alternates an
    unmatched down-arrow with the face's matched up-arrow.  Such a path runs
    forward in the Kahn order of the modified Hasse digraph, so the counts
    fill in from its end; a cycle leaves the order short and the report
    failing.  The counts line up with the pass's cells.
    """
    up, succ = hasse.up, hasse.succ
    if len(hasse.order) < len(succ):
        return BoundedReport(False, ())
    bound = [1] * len(succ)
    for s in reversed(hasse.order):
        # a coface is never a matched face, so only down-arrows pass the test
        tails = [bound[up[f]] for f in succ[s] if f in up]
        if tails:
            bound[s] += max(tails)
    return BoundedReport(True, tuple(bound))


def _first_sticky(gspec, seq):
    """First sticky run (i, j) of seq, or None: consecutive points outside
    K, one strictly inside g and the other biased."""
    classes = gspec.classes
    i, last = 0, 3  # a neutral point starts no sticky run
    for j, p in enumerate(seq):
        c = classes[p]
        if c != 1:
            if c + last == 2:  # one is 0 and the other 2
                return (i, j)
            i, last = j, c
    return None


def classify_sequence(gspec, seq):
    """The one-sided pieces ((start, end), ...) of a sticky-free sequence,
    or None for a sticky one.

    A sequence is sticky when some crossing run has one end strictly inside
    g, the other end at a biased interior-h point, and everything between
    in K.  Pieces overlap in single concatenation points, each of which
    lies in the neutral part of interior h; a fully one-sided sequence is a
    single piece.  A g-side piece avoids the biased points and an h-side
    piece avoids interior g.  One scan over the points outside K finds
    both the sticky runs and the cuts.
    """
    classes = gspec.classes
    pieces = []
    start = 0
    side = None  # the current piece's side: 0 inside g, 2 biased
    for m, p in enumerate(seq):
        c = classes[p]
        if c == 1:
            continue
        if c != 3:
            if c != side and side is not None:
                if last != 3:  # last is of the current side: a sticky run
                    return None
                pieces.append((start, cut))  # the pieces meet at a neutral point
                start = cut
            side = c
        last, cut = c, m  # the last point outside K, by class and index
    pieces.append((start, len(seq) - 1))
    return tuple(pieces)


def _partner_sequence(gspec, seq, sticky):
    """Partner of a sticky sequence: (face seq, coface seq) under gate moves,
    with sticky its first sticky run (i, j) from _first_sticky."""
    i, j = sticky
    if gspec.classes[seq[i]] == 2:
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
    NotAMatching.  Once a pair is checked from one half, the other half,
    whose partner the involution check has just shown to be this pair, is
    skipped.
    """
    space = gspec.space
    l = _as_fraction(l)
    top = scaled_target(space, l)
    pairs = {}
    for a in range(space.n):
        for b in range(space.n):
            done = set()  # checked other halves; a gate move keeps the ends
            for seq in lightlike_sequences(space, a, b, l):
                if seq in done:
                    continue
                sticky = _first_sticky(gspec, seq)
                if sticky is None:
                    continue
                face, coface = _partner_sequence(gspec, seq, sticky)
                other = face if seq == coface else coface
                if scaled_length(space, other) != top:
                    raise NotAMatching("gate move changed length")
                if any(other[t] == other[t + 1] for t in range(len(other) - 1)):
                    raise NotAMatching("gate move produced a repeated point")
                back = _first_sticky(gspec, other)
                if back is None or _partner_sequence(gspec, other, back) != (face, coface):
                    raise NotAMatching("gate pairing is not involutive")
                if pairs.setdefault(face, coface) != coface:
                    raise NotAMatching("conflicting partners")
                done.add(other)
    return Matching(pairs.items())


def critical_cells(gspec, l):
    """Unmatched full-length sequences of the projecting matching, sorted.

    Shorter sequences are never touched by the matching and stay critical;
    only the full-length ones are enumerated here.  The result is checked
    against the independent sticky-free classification.
    """
    space = gspec.space
    l = _as_fraction(l)
    matching = projecting_matching(gspec, l)
    critical = []
    twistfree = []
    for a in range(space.n):
        for b in range(space.n):
            for seq in lightlike_sequences(space, a, b, l):
                if not matching.is_matched(seq):
                    critical.append(seq)
                if classify_sequence(gspec, seq) is not None:
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

    __slots__ = ("alpha", "x", "y", "tau_h")

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
        for j_h in (j for j, p in enumerate(x.h_to_x) if x.classes[p] == 3):
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
        assert x.classes == y.classes, "twist changed the biased/neutral split"
        self.alpha = alpha
        self.x = x
        self.y = y
        common = {k_in_g[alpha[t]]: k_in_g[t] for t in range(m)}
        self.tau_h = {
            p: common.get(p, p) for p, c in enumerate(x.classes) if c != 0
        }

    def reverse(self):
        """Twist mapping y back to x; its map composes with this one to id."""
        inv = [0] * len(self.alpha)
        for t, s in enumerate(self.alpha):
            inv[s] = t
        x = self.x
        k_in_h = tuple(x.k_in_h[s] for s in self.alpha)
        return SycamoreTwist(x.g, x.h, x.k_in_g, k_in_h, inv)


def sycamore_tau(twist, seq):
    """Map a sticky-free sequence of the glued space to the twisted one.

    Pieces inside g plus the neutral part are kept pointwise; pieces inside
    h keep interior points and relabel common points along the inverse
    twist.  Concatenation points are neutral, hence fixed by both maps.
    """
    pieces = classify_sequence(twist.x, seq)
    if pieces is None:
        raise ValueError("sticky sequences have no twist image")
    classes = twist.x.classes
    out = []
    for start, end in pieces:
        piece = seq[start : end + 1]
        if 2 not in [classes[p] for p in piece]:
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


def _alternating(crit):
    return sum((-1) ** k * len(v) for k, v in crit.items())


def _bijection_problems(twist, rev, l, rows, problems):
    """Compare the critical cells of both sides at length l under the
    twist, dimension by dimension; returns their alternating counts.

    The critical-cell sets and twist images die with this call, before any
    side's full complex is built.
    """
    y = twist.y.space
    top_y = scaled_target(y, l)
    crit_x = _by_dim(critical_cells(twist.x, l))
    crit_y = _by_dim(critical_cells(twist.y, l))
    images = {}
    for k, cells in crit_x.items():
        imgs = set()
        stretched = unreversed = 0
        for seq in cells:
            img = sycamore_tau(twist, seq)
            if scaled_length(y, img) != top_y:
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
    for k in sorted(set(crit_x) | set(crit_y) | set(images)):
        cx = len(crit_x.get(k, ()))
        cy = len(crit_y.get(k, ()))
        same = images.get(k, set()) == crit_y.get(k, set())
        rows.append((l, k, cx, cy, same and cx == cy))
        if not (same and cx == cy):
            problems.append(
                "length %s dim %d: %d cells vs %d" % (l, k, cx, cy)
            )
    return _alternating(crit_x), _alternating(crit_y)


def _side_problems(side, gspec, l, alt_crit, problems):
    """Euler cancellation, acyclicity and boundedness of one side's
    projecting matching at length l; its cells, matching and Hasse pass
    die with this call."""
    cells = lightlike_simplices(gspec.space, l)
    # a sequence of k + 1 points is a k-cell
    alt_light = sum(1 if len(s) % 2 else -1 for s in cells)
    if alt_light != alt_crit:
        problems.append(
            "length %s in %s: matched pairs fail to cancel in the "
            "Euler count, %d over all cells vs %d over critical ones"
            % (l, side, alt_light, alt_crit)
        )
    hasse = modified_hasse(cells, projecting_matching(gspec, l))
    if not verify_acyclic(hasse):
        problems.append("length %s in %s: cyclic matching" % (l, side))
    if not verify_bounded(hasse):
        problems.append("length %s in %s: unbounded matching" % (l, side))


def verify_sycamore(twist, lmax):
    """Check the twist bijection, Euler counts, and magnitude agreement.

    For each achievable length: the twist map carries sticky-free
    sequences bijectively onto those of the twisted space dimension by
    dimension, matched pairs cancel in the alternating count, and the
    truncated magnitude series of the two spaces coincide.
    """
    x, y = twist.x.space, twist.y.space
    lmax = _as_fraction(lmax)
    rows = []
    problems = []
    lengths = sorted(
        set(achievable_lengths(x, lmax)) | set(achievable_lengths(y, lmax))
    )
    rev = twist.reverse()
    for l in lengths:
        alt_x, alt_y = _bijection_problems(twist, rev, l, rows, problems)
        _side_problems("x", twist.x, l, alt_x, problems)
        _side_problems("y", twist.y, l, alt_y, problems)
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

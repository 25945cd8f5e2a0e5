"""Plain Fraction views of a space's lengths, for the tests.

The program compares lengths as the space's scaled integers and never
needs a sequence's length as a Fraction, nor the least distance; these
helpers give both from the distance matrix directly.
"""

from fractions import Fraction


def seq_length(space, seq):
    """Total length d(x_0, ..., x_k) of a point-index sequence."""
    return sum((space.dist[x][y] for x, y in zip(seq, seq[1:])), Fraction(0))


def min_positive_distance(space):
    """Smallest off-diagonal distance, or None for a one-point space."""
    return min(
        (space.dist[i][j] for i in range(space.n) for j in range(i + 1, space.n)),
        default=None,
    )

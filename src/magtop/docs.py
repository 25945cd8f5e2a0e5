"""JSON document formats for spaces, gluings, twists, and complexes.

Numbers are bare integers or "p/q" strings; decimal notation is rejected
so equality branching stays exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from .metric import from_distance_matrix, from_weighted_graph, glue
from .morse import SycamoreTwist


class DocumentError(ValueError):
    pass


def parse_rational(value):
    """Exact rational from an int or a "p/q" (or "p") string."""
    if isinstance(value, bool):
        raise DocumentError("booleans are not numbers: %r" % (value,))
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DocumentError("decimal notation is not accepted: %r" % (value,))
    if isinstance(value, str):
        body = value.strip()
        # int() also reads "1_0" and non-ASCII digits such as "١"
        if not body.isascii() or "_" in body:
            raise DocumentError("bad rational %r" % (value,))
        parts = body.split("/")
        try:
            if len(parts) == 1:
                return Fraction(int(parts[0]))
            if len(parts) == 2:
                return Fraction(int(parts[0]), int(parts[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError("bad rational %r" % (value,)) from exc
        raise DocumentError("bad rational %r" % (value,))
    raise DocumentError("bad rational %r" % (value,))


def format_rational(value):
    """"p/q", or "p" when q is 1, for an int or a Fraction."""
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def _check_type(doc, kind):
    if not isinstance(doc, dict) or doc.get("type") != kind:
        raise DocumentError("not a %s document" % (kind,))


def _require(doc, key, kind):
    if key not in doc:
        raise DocumentError("%s document needs %r" % (kind, key))
    return doc[key]


def space_from_doc(doc):
    """MetricSpace from a matrix or graph document."""
    if not isinstance(doc, dict):
        raise DocumentError("space document must be an object")
    kind = doc.get("type")
    if kind == "matrix":
        labels = _require(doc, "labels", "matrix")
        rows = _require(doc, "dist", "matrix")
        if not isinstance(labels, list) or not all(
            isinstance(x, str) for x in labels
        ):
            raise DocumentError("labels must be strings")
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise DocumentError("dist must be a list of rows")
        entries = [[parse_rational(v) for v in row] for row in rows]
        return from_distance_matrix(tuple(labels), entries)
    if kind == "graph":
        vertices = _require(doc, "vertices", "graph")
        edges = _require(doc, "edges", "graph")
        if not isinstance(vertices, list) or not all(
            isinstance(x, str) for x in vertices
        ):
            raise DocumentError("vertices must be strings")
        if not isinstance(edges, list):
            raise DocumentError("edges must be a list of [u, v, weight]")
        parsed = []
        for e in edges:
            if not isinstance(e, list) or len(e) != 3:
                raise DocumentError("edge must be [u, v, weight]: %r" % (e,))
            u, v, w = e
            if not isinstance(u, str) or not isinstance(v, str):
                raise DocumentError("edge endpoints must be labels: %r" % (e,))
            parsed.append((u, v, parse_rational(w)))
        return from_weighted_graph(tuple(vertices), parsed)
    raise DocumentError("unknown space document type %r" % (kind,))


def _k_indices(space, labels, kind):
    if not isinstance(labels, list):
        raise DocumentError("%s must be a label list" % (kind,))
    return tuple(space.index(x) for x in labels)


def _gluing_parts(doc, kind):
    """(g, h, k_in_g, k_in_h) of a gluing or twist document."""
    _check_type(doc, kind)
    g = space_from_doc(_require(doc, "g", kind))
    h = space_from_doc(_require(doc, "h", kind))
    k_in_g = _k_indices(g, _require(doc, "k_in_g", kind), "k_in_g")
    k_in_h = _k_indices(h, _require(doc, "k_in_h", kind), "k_in_h")
    return g, h, k_in_g, k_in_h


def gluing_from_doc(doc):
    """GluingSpec from a gluing document (two spaces plus K label lists)."""
    return glue(*_gluing_parts(doc, "gluing"))


def twist_from_doc(doc):
    """SycamoreTwist from a twist document (gluing data plus permutation)."""
    parts = _gluing_parts(doc, "twist")
    alpha = _require(doc, "alpha", "twist")
    if not isinstance(alpha, list) or not all(
        isinstance(t, int) and not isinstance(t, bool) for t in alpha
    ):
        raise DocumentError("alpha must be a list of positions")
    return SycamoreTwist(*parts, tuple(alpha))


def facets_from_doc(doc):
    """Facet list from a complex document."""
    _check_type(doc, "complex")
    facets = _require(doc, "facets", "complex")
    if not isinstance(facets, list) or any(
        not isinstance(f, list) for f in facets
    ):
        raise DocumentError("facets must be a list of vertex lists")
    for f in facets:
        if not all(isinstance(v, str) for v in f):
            raise DocumentError("facet vertices must be strings")
    return [tuple(f) for f in facets]


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise DocumentError("%s is not UTF-8 text: %s" % (path, exc)) from exc
    except RecursionError as exc:
        raise DocumentError("%s nests too deeply to read" % (path,)) from exc
    except ValueError as exc:
        # a JSONDecodeError, or an integer past the int-string limit
        raise DocumentError("invalid JSON in %s: %s" % (path, exc)) from exc


def load_fixture(name):
    """Parsed JSON for a named fixture shipped with the package; a name that
    is a path, that names no fixture or whose file is not JSON is refused."""
    # a shipped fixture has a plain name: a path would leave the package
    if not any(part in name for part in ("/", "\\", "..")):
        ref = resources.files("magtop").joinpath("fixtures", name + ".json")
        try:
            with ref.open("r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            pass
    raise DocumentError("unknown fixture %r" % (name,))

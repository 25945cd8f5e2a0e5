"""Exact-arithmetic magnitude, sequence homology, and combinatorial
models of the associated homotopy type for finite metric spaces.

The package root exports what the magtop command uses, plus the space
constructors and result types a library caller needs to reproduce it.
Everything else is imported from its module (see README, Library layout).
"""

from .causal import (
    InvalidLength,
    achievable_lengths,
    pair_achievable_lengths,
    seq_time_stamps,
)
from .docs import (
    DocumentError,
    facets_from_doc,
    format_rational,
    gluing_from_doc,
    load_doc,
    load_fixture,
    parse_rational,
    space_from_doc,
    twist_from_doc,
)
from .frames import (
    EmptyComplex,
    FourCutObstruction,
    framed_betti_prediction,
    hasse_graph,
    singular_sequences,
    thin_frames,
)
from .homology import (
    HomologySummary,
    VerifyReport,
    homology,
    magnitude_chain_complex,
    verify_chain_iso,
    verify_kunneth,
    verify_suspension_shift,
)
from .metric import (
    LabelError,
    MetricError,
    MetricSpace,
    from_distance_matrix,
    from_weighted_graph,
    glue,
    product,
    random_metric_space,
    restriction,
)
from .morse import (
    NotASycamoreTwist,
    critical_cells,
    verify_sycamore,
)
from .mv import (
    NotGated,
    verify_mv,
    verify_union,
)
from .series import (
    EulerReport,
    HahnPolynomial,
    euler_check,
    format_series,
    magnitude,
    weighting,
)

__version__ = "0.1.0"

__all__ = [
    "DocumentError",
    "EmptyComplex",
    "EulerReport",
    "FourCutObstruction",
    "HahnPolynomial",
    "HomologySummary",
    "InvalidLength",
    "LabelError",
    "MetricError",
    "MetricSpace",
    "NotASycamoreTwist",
    "NotGated",
    "VerifyReport",
    "achievable_lengths",
    "critical_cells",
    "euler_check",
    "facets_from_doc",
    "format_rational",
    "format_series",
    "framed_betti_prediction",
    "from_distance_matrix",
    "from_weighted_graph",
    "glue",
    "gluing_from_doc",
    "hasse_graph",
    "homology",
    "load_doc",
    "load_fixture",
    "magnitude",
    "magnitude_chain_complex",
    "pair_achievable_lengths",
    "parse_rational",
    "product",
    "random_metric_space",
    "restriction",
    "seq_time_stamps",
    "singular_sequences",
    "space_from_doc",
    "thin_frames",
    "twist_from_doc",
    "verify_chain_iso",
    "verify_kunneth",
    "verify_mv",
    "verify_suspension_shift",
    "verify_sycamore",
    "verify_union",
    "weighting",
]

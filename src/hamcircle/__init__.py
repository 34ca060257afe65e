"""Hamiltonian circle actions on blowups of ruled surfaces over positive-genus curves.

Exact-rational library and CLI: normal forms of blowup-form vectors, decorated
graphs of circle actions with equivalence up to translation and flip, staged
enumeration by equivariant blowups, and closed-form counts plus symplectic
invariants (exceptional-class minima, volume, Gromov width, packing number).
"""

from .enumeration import (
    CountReport,
    TooManyGraphsError,
    count_actions,
    enumerate_actions,
)
from .formulas import (
    count_equal_sizes,
    count_ruled,
    max_count,
    max_count_conditions,
)
from .graphs import (
    Chain,
    DecoratedGraph,
    GraphReport,
    canonical_json,
    class_key,
    flip,
    to_json_dict,
    validate,
)
from .vectors import (
    BlowupVector,
    BundleType,
    ConeReport,
    E,
    EminCase,
    EminResult,
    ExceptionalClass,
    F_minus_E,
    GromovWidth,
    NotBlowupFormError,
    ReduceResult,
    as_q,
    check_cone,
    cremona,
    cremona_move,
    cremona_reduce,
    defect,
    emin,
    exceptional_areas,
    gromov_width,
    is_g_reduced,
    packing_number,
    require_cone,
    sort_deltas,
    swap_bundle,
    volume,
)

__version__ = "0.1.0"

__all__ = [
    "BlowupVector",
    "BundleType",
    "Chain",
    "ConeReport",
    "CountReport",
    "DecoratedGraph",
    "E",
    "EminCase",
    "EminResult",
    "ExceptionalClass",
    "F_minus_E",
    "GraphReport",
    "GromovWidth",
    "NotBlowupFormError",
    "ReduceResult",
    "TooManyGraphsError",
    "as_q",
    "canonical_json",
    "check_cone",
    "class_key",
    "count_actions",
    "count_equal_sizes",
    "count_ruled",
    "cremona",
    "cremona_move",
    "cremona_reduce",
    "defect",
    "emin",
    "enumerate_actions",
    "exceptional_areas",
    "flip",
    "gromov_width",
    "is_g_reduced",
    "max_count",
    "max_count_conditions",
    "packing_number",
    "require_cone",
    "sort_deltas",
    "swap_bundle",
    "to_json_dict",
    "validate",
    "volume",
]

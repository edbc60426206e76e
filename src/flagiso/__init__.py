"""Isomorphism decisions, point counts, and explicit isomorphism witnesses
for finite flag varieties and ind-varieties of generalized flags."""

from .decide import (
    DecisionResult,
    Reason,
    ThresholdError,
    Verdict,
    decide_finite,
    decide_ind,
)
from .descriptors import (
    FiniteFlagVariety,
    FlagDescriptor,
    FormType,
    descriptor_from_json,
    descriptor_to_json,
    dual,
    finite_flag_variety,
    full_chain,
    general_flags,
    min_truncation_width,
    orthogonal_flags,
    parse_descriptor,
    pic_rank,
    render_descriptor,
    symplectic_flags,
    truncate_to_variety,
    validate,
)
from .counting import (
    QPolynomial,
    brute_force_count,
    dimension,
    point_count,
    poincare_polynomial,
)
from .errors import FlagisoError, ResourceLimitError, ValidationError
from .orders import (
    INF,
    WeightedOrder,
    is_isomorphic,
    normalize,
    omega,
    omegastar,
    parse_order,
    render_order,
    reverse,
    seq,
    total_dimension,
    truncate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

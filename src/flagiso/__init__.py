"""Isomorphism decisions, point counts, and explicit isomorphism witnesses
for finite flag varieties and ind-varieties of generalized flags.

The exported names resolve lazily (PEP 562): the first read of a name imports
the module that defines it and caches the value here.  So ``import flagiso``
loads no submodule, and a ``flagiso`` command loads only the modules it runs;
``flagiso decide`` never loads the counting, witness or linear-algebra code.
"""

import importlib

# Each module and the names it exports; the modules are exported under their
# own names too.
_EXPORTS = {
    "counting": ("QPolynomial", "brute_force_count", "dimension", "point_count", "poincare_polynomial"),
    "decide": ("DecisionResult", "Reason", "ThresholdError", "Verdict", "decide_finite", "decide_ind"),
    "descriptors": (
        "FiniteFlagVariety", "FlagDescriptor", "FormType", "descriptor_from_json",
        "descriptor_to_json", "dual", "finite_flag_variety", "full_chain", "general_flags",
        "min_truncation_width", "orthogonal_flags", "parse_descriptor", "pic_rank",
        "render_descriptor", "symplectic_flags", "truncate_to_variety", "validate",
    ),
    "errors": ("FlagisoError", "ResourceLimitError", "ValidationError"),
    "linalg": (),
    "orders": (
        "INF", "WeightedOrder", "is_isomorphic", "normalize", "omega", "omegastar",
        "parse_order", "render_order", "reverse", "seq", "total_dimension", "truncate",
    ),
    "witness": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

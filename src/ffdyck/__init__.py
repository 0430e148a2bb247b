"""Factor-free generalized Dyck words of slope (2m+1)/2.

Exact membership predicates and enumeration for the factor-free Dyck
language D and its core auxiliary language U over the alphabet {a, b} with
valuations h(a) = 2m+1 and h(b) = -2, cross-validated three ways: closed
Bell-polynomial formulas, truncated power series solved one coefficient at
a time, and pruned brute-force search.  Includes the slope-5/2 colored-tree
bijection and cross-bifix-free binary code construction.

The public names and the submodules load on first use (PEP 562): `import
ffdyck` imports no submodule, `ffdyck.count_u` imports `ffdyck.counting`
(and what it needs) and nothing else, and `from ffdyck import *` loads
every module that `__all__` names.
"""

import sys

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "bell": ("bell_partial", "binomial"),
    "codes": ("CodeSet", "build_code", "verify_cross_bifix_free"),
    "counting": (
        "NonIntegerResult",
        "ascent_weight",
        "count_colored_dyck",
        "count_d",
        "count_u",
        "count_u_slope52",
        "u_odd_power_coeff",
    ),
    "grammar": (
        "expand_l_words",
        "generate_d_words",
        "generate_u_words",
        "primitive_u_words",
    ),
    "series": ("d_series", "l_series", "u_series"),
    "trees": (
        "LEAF",
        "ColoredTree",
        "MalformedTree",
        "NotInU",
        "enumerate_trees",
        "tree_to_word",
        "word_to_tree",
    ),
    "words": (
        "CapExceeded",
        "brute_enumerate_d",
        "brute_enumerate_u",
        "from_binary",
        "is_dyck",
        "is_factor_free",
        "is_in_d",
        "is_in_u",
        "is_in_u_lattice",
        "prefix_profile",
        "to_binary",
        "valuation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "selfcheck"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = name if name in _SUBMODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, unlike importlib.import_module, is
    # what -X importtime reports on
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)

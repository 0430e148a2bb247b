"""Factor-free generalized Dyck words of slope (2m+1)/2.

Exact membership predicates and enumeration for the factor-free Dyck
language D and its core auxiliary language U over the alphabet {a, b} with
valuations h(a) = 2m+1 and h(b) = -2, cross-validated three ways: closed
Bell-polynomial formulas, truncated power series solved one coefficient at
a time, and pruned brute-force search.  Includes the slope-5/2 colored-tree
bijection and cross-bifix-free binary code construction.
"""

from .bell import bell_partial, binomial
from .codes import CodeSet, build_code, verify_cross_bifix_free
from .counting import (
    NonIntegerResult,
    ascent_weight,
    count_colored_dyck,
    count_d,
    count_u,
    count_u_slope52,
    u_odd_power_coeff,
)
from .grammar import (
    expand_l_words,
    generate_d_words,
    generate_u_words,
    primitive_u_words,
)
from .series import d_series, l_series, u_series
from .trees import (
    LEAF,
    ColoredTree,
    MalformedTraversal,
    MalformedTree,
    NotInU,
    enumerate_trees,
    tree_to_word,
    word_to_tree,
)
from .words import (
    CapExceeded,
    brute_enumerate_d,
    brute_enumerate_u,
    from_binary,
    is_dyck,
    is_factor_free,
    is_in_d,
    is_in_u,
    is_in_u_lattice,
    prefix_profile,
    to_binary,
    valuation,
)

__all__ = [
    "CapExceeded",
    "CodeSet",
    "ColoredTree",
    "LEAF",
    "MalformedTraversal",
    "MalformedTree",
    "NonIntegerResult",
    "NotInU",
    "ascent_weight",
    "bell_partial",
    "binomial",
    "brute_enumerate_d",
    "brute_enumerate_u",
    "build_code",
    "count_colored_dyck",
    "count_d",
    "count_u",
    "count_u_slope52",
    "d_series",
    "enumerate_trees",
    "expand_l_words",
    "from_binary",
    "generate_d_words",
    "generate_u_words",
    "is_dyck",
    "is_factor_free",
    "is_in_d",
    "is_in_u",
    "is_in_u_lattice",
    "l_series",
    "prefix_profile",
    "primitive_u_words",
    "to_binary",
    "tree_to_word",
    "u_odd_power_coeff",
    "u_series",
    "valuation",
    "verify_cross_bifix_free",
    "word_to_tree",
]

"""Burnside rings of finite groups.

Concrete multiplication-table groups, full subgroup lattices, tables of
marks, exact membership tests for the ghost ring (Dress congruences over
pairs, and triangular marks inversion), and Artin exponents relative to
a family of subgroups, read off Dress's congruences over Weyl groups,
together with a brute-force comparison harness for the closed-form
exponent table.
"""

__version__ = "0.1.0"

from .burnside_ring import (
    Congruence,
    CongruenceCertificate,
    CongruenceViolation,
    GhostVector,
    TableOfMarks,
    cfb_check,
    dress_congruences,
    dress_membership,
    marks_membership,
    minimal_multiplier,
    table_of_marks,
)
from .catalog import (
    GroupSpec,
    MaximalCyclicType,
    SpecParseError,
    build_group,
    classify_maximal_cyclic_2group,
    parse_group_spec,
    standard_catalog,
)
from .exponent import (
    DivisorWitness,
    ExponentResult,
    TheoremReport,
    TheoremRow,
    abelian_closed_form_exponent,
    artin_exponent,
    closed_form_exponent,
    indicator_vector,
    verify_main_theorem,
)
from .groups import (
    CapExceededError,
    FiniteGroup,
    Subgroup,
    direct_product,
    group_from_perm_generators,
    load_permutation_group,
    parse_permutation,
    parse_permutation_file,
)
from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    SubgroupClass,
    SubgroupFamily,
    SubgroupLattice,
    enumerate_subgroups,
    is_elementary_abelian,
    maximal_elementary_abelian,
    select_family,
)

__all__ = [
    "__version__",
    "CapExceededError",
    "Congruence",
    "CongruenceCertificate",
    "CongruenceViolation",
    "DivisorWitness",
    "DEFAULT_ENUMERATION_CAP",
    "ExponentResult",
    "FiniteGroup",
    "GhostVector",
    "GroupSpec",
    "MaximalCyclicType",
    "SpecParseError",
    "SubgroupClass",
    "SubgroupFamily",
    "SubgroupLattice",
    "Subgroup",
    "TableOfMarks",
    "TheoremReport",
    "TheoremRow",
    "abelian_closed_form_exponent",
    "artin_exponent",
    "build_group",
    "cfb_check",
    "classify_maximal_cyclic_2group",
    "closed_form_exponent",
    "direct_product",
    "dress_congruences",
    "dress_membership",
    "enumerate_subgroups",
    "group_from_perm_generators",
    "indicator_vector",
    "is_elementary_abelian",
    "load_permutation_group",
    "marks_membership",
    "maximal_elementary_abelian",
    "minimal_multiplier",
    "parse_group_spec",
    "parse_permutation",
    "parse_permutation_file",
    "select_family",
    "standard_catalog",
    "table_of_marks",
    "verify_main_theorem",
]

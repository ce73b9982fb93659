"""The package's public names: the exact export list, and every name that
the acceptance suite imports or the benchmark harness reads off the package."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import burnside

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = [
    "CapExceededError",
    "Congruence",
    "CongruenceCertificate",
    "CongruenceViolation",
    "DEFAULT_ENUMERATION_CAP",
    "DivisorWitness",
    "ExponentResult",
    "FiniteGroup",
    "GhostVector",
    "GroupSpec",
    "MaximalCyclicType",
    "SpecParseError",
    "Subgroup",
    "SubgroupClass",
    "SubgroupFamily",
    "SubgroupLattice",
    "TableOfMarks",
    "TheoremReport",
    "TheoremRow",
    "__version__",
    "abelian_closed_form_exponent",
    "artin_exponent",
    "build_group",
    "cfb_check",
    "classify_maximal_cyclic_2group",
    "closed_form_exponent",
    "conjugate_subgroup",
    "direct_product",
    "dress_congruences",
    "dress_membership",
    "enumerate_subgroups",
    "generated_subgroup",
    "group_from_perm_generators",
    "indicator_vector",
    "is_closed_subset",
    "is_elementary_abelian",
    "load_permutation_group",
    "marks_membership",
    "maximal_elementary_abelian",
    "minimal_multiplier",
    "normalizer",
    "parse_group_spec",
    "parse_permutation",
    "parse_permutation_file",
    "select_family",
    "standard_catalog",
    "subgroup_from_elements",
    "table_of_marks",
    "verify_group_axioms",
    "verify_main_theorem",
    "weyl_congruences",
]


def test_all_is_pinned():
    assert sorted(burnside.__all__) == EXPORTS
    assert all(hasattr(burnside, name) for name in EXPORTS)


def test_names_used_by_acceptance_suite_and_benchmark_are_exported():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "burnside"
        for alias in node.names
    }
    bench = (ROOT / "bench" / "run.py").read_text(encoding="utf-8")
    read_off_package = set(re.findall(r"\bB\.(\w+)", bench))
    assert len(imported) > 10 and len(read_off_package) > 10
    assert imported | read_off_package <= set(burnside.__all__)

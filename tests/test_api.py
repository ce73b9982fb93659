"""The package's public names: the exact export list, every name that the
acceptance suite imports or the benchmark harness reads off the package,
and no exported name, nor public method or property of an exported
class, that only the tests and ``__init__.py`` use."""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
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


def _names_used(path: Path) -> set[str]:
    """Every name a file reads, as a bare name or an attribute; definitions
    and import lists do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _names_used_outside_the_tests() -> set[str]:
    """The names read by the package (``__init__.py`` aside), the benchmark
    harness and the acceptance suite."""
    package = ROOT / "src" / "burnside"
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += [ROOT / "bench" / "run.py", ROOT / "tests" / "test_acceptance.py"]
    return set().union(*map(_names_used, files))


def test_every_export_is_used_by_the_package_acceptance_suite_or_benchmark():
    used = _names_used_outside_the_tests()
    assert [name for name in burnside.__all__ if name not in used] == []


def test_every_public_method_of_an_export_is_used_outside_the_tests():
    """Methods and properties that only tests call belong in the tests.
    A name also read as a local variable (say ``inv``) passes unseen."""
    used = _names_used_outside_the_tests()
    methods = [
        (name, attr)
        for name in burnside.__all__
        if inspect.isclass(cls := getattr(burnside, name))
        for attr, value in vars(cls).items()
        if not attr.startswith("_")
        and (isinstance(value, (property, classmethod, staticmethod)) or inspect.isfunction(value))
    ]
    assert len(methods) > 10
    assert [(name, attr) for name, attr in methods if attr not in used] == []


def _own_init(cls: type) -> ast.FunctionDef | None:
    """The ``__init__`` defined in the class's own body, if any."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    return next(
        (node for node in tree.body[0].body
         if isinstance(node, ast.FunctionDef) and node.name == "__init__"),
        None,
    )


def _stores_only_attributes(init: ast.FunctionDef) -> bool:
    """Every statement of the body is an assignment to ``self.<attr>``."""
    for stmt in init.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            return False
        for target in targets:
            if not (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                return False
    return True


def test_exported_records_are_named_tuples():
    """An exported class whose constructor only stores attributes is a
    hand-written record: it must be a NamedTuple, which equals its plain
    tuple and needs no ``__slots__``, ``__init__`` or ``__repr__``.
    Constructors that validate or compute are not records."""
    inits = {
        name: init
        for name in burnside.__all__
        if inspect.isclass(cls := getattr(burnside, name)) and (init := _own_init(cls))
    }
    assert {"GhostVector", "Subgroup", "FiniteGroup", "SubgroupLattice"} <= inits.keys()
    assert [name for name, init in inits.items() if _stores_only_attributes(init)] == []

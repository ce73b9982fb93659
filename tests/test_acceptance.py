"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they appear. Criteria 3 and 5 assert the claimed closed-form values for
the exceptional 2-groups and the order-16/27 case-(c) witnesses; exact
computation contradicts those claims (both membership routes agree on
different values), so those two tests fail and document the discrepancy.
"""

from __future__ import annotations

import random
import time
from math import lcm

import pytest

from _oracles import conjugacy_partition, subset_closure_subgroups
from burnside import (
    GhostVector,
    SubgroupFamily,
    artin_exponent,
    build_group,
    cfb_check,
    dress_membership,
    indicator_vector,
    marks_membership,
    maximal_elementary_abelian,
    minimal_multiplier,
    parse_group_spec,
    standard_catalog,
    verify_main_theorem,
)

EA = SubgroupFamily.ELEMENTARY_ABELIAN
VECTOR_SEED = 20250810
VECTORS_PER_GROUP = 1000


def _report(number: int, description: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number:2d} {status}: {description}{suffix}")
    return ok


def _catalog_texts(max_order: int) -> list[str]:
    return [
        spec.text()
        for spec in standard_catalog(max_order)
        if spec.order() is not None and spec.order() <= max_order
    ]


@pytest.fixture(scope="session")
def random_verdicts(lattice_of):
    """Per catalog group of order <= 16: 1000 seeded vectors with both
    membership verdicts and the element-sum congruence check."""
    start = time.perf_counter()
    rng = random.Random(VECTOR_SEED)
    verdicts = {}
    for text in _catalog_texts(16):
        lattice = lattice_of(text)
        n = lattice.class_count
        rows = []
        for _ in range(VECTORS_PER_GROUP):
            vector = GhostVector(lattice, [rng.randint(-5, 5) for _ in range(n)])
            dress = dress_membership(lattice, vector).holds
            marks = marks_membership(lattice, vector)[0]
            rows.append((dress, marks, cfb_check(lattice, vector)))
        verdicts[text] = rows
    return verdicts, time.perf_counter() - start


def test_criterion_01_cyclic_formula(lattice_of):
    start = time.perf_counter()
    failures = []
    for p in (2, 3, 5):
        gamma = 1
        while p**gamma <= 64:
            text = f"C({p}^{gamma})"
            computed = artin_exponent(lattice_of(text), EA).exponent
            if computed != p ** (gamma - 1):
                failures.append((text, computed))
            gamma += 1
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    assert _report(
        1,
        "cyclic p-groups up to order 64 have exponent p^(gamma-1)",
        ok,
        f"{elapsed:.2f}s" + (f", failures: {failures}" if failures else ""),
    )


def test_criterion_02_elementary_abelian(lattice_of):
    start = time.perf_counter()
    failures = []
    for p, kmax in ((2, 5), (3, 3), (5, 2)):
        for k in range(1, kmax + 1):
            text = f"EA({p},{k})"
            computed = artin_exponent(lattice_of(text), EA).exponent
            if computed != 1:
                failures.append((text, computed))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert _report(
        2,
        "elementary abelian groups have exponent 1",
        ok,
        f"{elapsed:.2f}s" + (f", failures: {failures}" if failures else ""),
    )


def test_criterion_03_exceptional_two_groups(lattice_of):
    start = time.perf_counter()
    computed = {
        text: artin_exponent(lattice_of(text), EA).exponent
        for text in ("Q(8)", "Q(16)", "D(8)", "D(16)")
    }
    elapsed = time.perf_counter() - start
    ok = all(value == 2 for value in computed.values()) and elapsed < 10.0
    assert _report(
        3,
        "quaternion and dihedral groups of order 8 and 16 have exponent 2",
        ok,
        f"{elapsed:.2f}s, computed {computed}",
    )


def test_criterion_04_semidihedral_adjudication(lattice_of):
    lattice = lattice_of("SD(16)")
    result = artin_exponent(lattice, EA)
    routes_agree = result.method == "marks+dress"
    report = verify_main_theorem(16)
    row = next(r for r in report.rows if r.spec == "SD(16)")
    verdict = "agrees with" if row.brute_force == 4 else "disagrees with"
    recorded = row.closed_form == 4 and row.brute_force == result.exponent
    ok = routes_agree and recorded
    assert _report(
        4,
        "both routes agree on e(SD(16)) and the verdict is recorded",
        ok,
        f"computed {result.exponent}, {verdict} the claimed value 4, "
        f"report row agree={row.agree}",
    )


def test_criterion_05_generic_nonabelian_case(lattice_of):
    start = time.perf_counter()
    expected = {"M(16)": 8, "ES+(3)": 9, "ES-(3)": 9}
    computed = {
        text: artin_exponent(lattice_of(text), EA).exponent for text in expected
    }
    elapsed = time.perf_counter() - start
    ok = computed == expected and elapsed < 60.0
    assert _report(
        5,
        "modular-16 and extraspecial-27 groups have exponent |G|/p",
        ok,
        f"{elapsed:.2f}s, expected {expected}, computed {computed}",
    )


def test_criterion_06_abelian_formula(lattice_of):
    start = time.perf_counter()
    failures = []
    for text in _catalog_texts(32):
        lattice = lattice_of(text)
        group = lattice.group
        if not group.is_abelian():
            continue
        computed = artin_exponent(lattice, EA).exponent
        predicted = group.order // maximal_elementary_abelian(group).order
        if computed != predicted:
            failures.append((text, computed, predicted))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert _report(
        6,
        "abelian catalog groups up to order 32 follow the index formula",
        ok,
        f"{elapsed:.2f}s" + (f", failures: {failures}" if failures else ""),
    )


def test_criterion_07_oracle_equivalence(random_verdicts):
    verdicts, build_time = random_verdicts
    start = time.perf_counter()
    disagreements = 0
    total = 0
    for rows in verdicts.values():
        for dress, marks, _ in rows:
            total += 1
            if dress != marks:
                disagreements += 1
    elapsed = time.perf_counter() - start + build_time
    ok = disagreements == 0 and elapsed < 60.0
    assert _report(
        7,
        "both membership routes give identical verdicts on random vectors",
        ok,
        f"{total} vectors, {disagreements} disagreements, {elapsed:.2f}s",
    )


def test_criterion_08_ghost_ring_exponent(lattice_of):
    start = time.perf_counter()
    failures = []
    for text in _catalog_texts(32):
        lattice = lattice_of(text)
        n = lattice.class_count
        acc = 1
        for k in range(n):
            unit = GhostVector(lattice, [1 if i == k else 0 for i in range(n)])
            acc = lcm(acc, minimal_multiplier(lattice, unit))
        if acc != lattice.group.order:
            failures.append((text, acc))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    assert _report(
        8,
        "unit-vector multipliers have lcm |G| on every catalog group up to 32",
        ok,
        f"{elapsed:.2f}s" + (f", failures: {failures}" if failures else ""),
    )


def test_criterion_09_necessity_chain(random_verdicts):
    verdicts, _ = random_verdicts
    violations = 0
    members = 0
    for rows in verdicts.values():
        for dress, _, cfb in rows:
            if dress:
                members += 1
                if not cfb:
                    violations += 1
    ok = violations == 0
    assert _report(
        9,
        "every vector passing the congruence test passes the element-sum check",
        ok,
        f"{members} members among the random vectors, {violations} violations",
    )


def test_criterion_10_lattice_oracle(lattice_of):
    start = time.perf_counter()
    failures = []
    for text in _catalog_texts(16):
        lattice = lattice_of(text)
        group = lattice.group
        expected_sets = subset_closure_subgroups(group)
        actual_sets = {frozenset(s.elements) for s in lattice.all_subgroups}
        expected_classes = conjugacy_partition(group, expected_sets)
        actual_classes = {
            frozenset(frozenset(m.elements) for m in cls.members) for cls in lattice.classes
        }
        if actual_sets != expected_sets or actual_classes != expected_classes:
            failures.append(text)
    elapsed = time.perf_counter() - start
    ok = not failures
    assert _report(
        10,
        "enumeration matches the subset-closure oracle up to order 16",
        ok,
        f"{elapsed:.2f}s" + (f", failures: {failures}" if failures else ""),
    )


def test_criterion_11_order_multiple_and_divisibility(lattice_of):
    start = time.perf_counter()
    failures = []
    for text in _catalog_texts(64):
        lattice = lattice_of(text)
        order = lattice.group.order
        scaled = order * indicator_vector(lattice, EA)
        if not dress_membership(lattice, scaled).holds:
            failures.append((text, "order multiple not a member"))
            continue
        if not marks_membership(lattice, scaled)[0]:
            failures.append((text, "marks route rejects the order multiple"))
            continue
        if order % artin_exponent(lattice, EA).exponent:
            failures.append((text, "exponent does not divide the order"))
    elapsed = time.perf_counter() - start
    ok = not failures
    assert _report(
        11,
        "|G| times the indicator is a member and e(G) divides |G|, up to order 64",
        ok,
        f"{elapsed:.2f}s" + (f", failures: {failures}" if failures else ""),
    )

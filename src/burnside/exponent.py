"""Artin exponents relative to a subgroup family, with closed-form comparators.

The exponent of a group relative to a family is the least positive n for
which n times the family's indicator ghost vector is an actual Burnside
ring element. Three routes take part: the integer marks solve gives the
exponent, the Weyl congruences verify it, and the pair congruences give
the divisor witnesses of the certificate, built only when it is read. A
closed-form table (abelian index formula, the quaternion/dihedral/
semidihedral special values, and the order-over-p fallback) is
implemented separately so brute force can be compared against it group
by group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .arith import divisors, prime_power
from .burnside_ring import (
    CongruenceViolation,
    GhostVector,
    dress_membership,
    least_multiplier,
    minimal_multiplier,
    violation_rows,
    weyl_congruences,
)
from .catalog import (
    MaximalCyclicType,
    build_group,
    classify_maximal_cyclic_2group,
    standard_catalog,
)
from .groups import FiniteGroup
from .lattice import (
    SubgroupFamily,
    SubgroupLattice,
    check_enumeration_cap,
    enumerate_subgroups,
    maximal_elementary_abelian,
    select_family,
)


@dataclass(frozen=True)
class DivisorWitness:
    """A congruence violated by divisor*indicator, proving that divisor is too small."""

    divisor: int
    violation: CongruenceViolation


@dataclass(frozen=True)
class ExponentResult:
    """An Artin exponent, verified by two routes when it is computed.

    ``certificate`` holds, for every proper divisor d of the exponent,
    the first pair congruence that d times the indicator violates. It
    needs the whole pair system, so it is built on first access and then
    kept; reading only the exponent never builds it.
    """

    exponent: int
    family: SubgroupFamily
    family_classes: frozenset[int]
    method: str
    lattice: SubgroupLattice = field(repr=False, compare=False)

    @cached_property
    def certificate(self) -> tuple[DivisorWitness, ...]:
        return _divisor_witnesses(self.lattice, self.family, self.exponent)


def indicator_vector(lattice: SubgroupLattice, family: SubgroupFamily) -> GhostVector:
    """Ghost vector with value 1 on the family's classes and 0 elsewhere."""
    selected = select_family(lattice, family)
    return GhostVector(
        lattice, (1 if i in selected else 0 for i in range(lattice.class_count))
    )


def artin_exponent(
    lattice: SubgroupLattice,
    family: SubgroupFamily = SubgroupFamily.ELEMENTARY_ABELIAN,
) -> ExponentResult:
    """Least n with n times the family indicator inside the Burnside ring.

    The marks route gives the exponent directly, as ``minimal_multiplier``
    of the indicator. The Weyl congruences re-derive it as the
    ``least_multiplier`` of the rows the indicator violates; a
    disagreement between the routes raises. The divisor witnesses come
    from the third route, the pair congruences, and only when the
    result's ``certificate`` is read.
    """
    b = indicator_vector(lattice, family)
    exponent = minimal_multiplier(lattice, b)
    order = lattice.group.order
    if order % exponent:
        raise RuntimeError(
            f"computed exponent {exponent} does not divide the group order {order}"
        )
    weyl_violations = violation_rows(weyl_congruences(lattice), b.values)
    _check_route(exponent, weyl_violations, "Weyl congruences")
    return ExponentResult(
        exponent=exponent,
        family=family,
        family_classes=select_family(lattice, family),
        method="marks+dress",
        lattice=lattice,
    )


def _check_route(
    exponent: int, violations: Iterable[tuple[int, int, int, int, int]], route: str
) -> None:
    """Raise unless the ``least_multiplier`` of the violation rows (u, v,
    index, sum, residue) is the marks route's exponent."""
    confirmed = least_multiplier((total, index) for _, _, index, total, _ in violations)
    if confirmed != exponent:
        raise RuntimeError(
            f"membership routes disagree: marks give {exponent}, {route} give {confirmed}"
        )


def _divisor_witnesses(
    lattice: SubgroupLattice, family: SubgroupFamily, exponent: int
) -> tuple[DivisorWitness, ...]:
    """One pass over the pair congruences the indicator violates.

    Their ``least_multiplier`` must give the exponent again, or this
    raises. For every proper divisor d of the exponent the pass records
    the first congruence that d times the indicator violates.
    """
    violations = dress_membership(lattice, indicator_vector(lattice, family)).violations
    _check_route(exponent, violations, "congruences")
    witnesses: list[DivisorWitness] = []
    pending = divisors(exponent)[:-1]
    for u_class, v_class, index, total, _ in violations:
        for d in pending:
            if d * total % index:
                violation = CongruenceViolation(
                    u_class, v_class, index, d * total, d * total % index
                )
                witnesses.append(DivisorWitness(d, violation))
        pending = [d for d in pending if d * total % index == 0]
    witnesses.sort(key=lambda w: w.divisor)
    return tuple(witnesses)


def abelian_closed_form_exponent(group: FiniteGroup) -> int:
    """Exponent of an abelian p-group: the index of its maximal elementary
    abelian subgroup."""
    if not group.is_abelian():
        raise ValueError("closed form by subgroup index needs an abelian group")
    return group.order // maximal_elementary_abelian(group).order


def closed_form_exponent(group: FiniteGroup) -> tuple[int, str]:
    """Closed-form exponent prediction for a p-group, with its case label.

    Case "a": abelian groups, via the maximal elementary abelian index.
    Case "b": quaternion and dihedral 2-groups (value 2) and semidihedral
    2-groups (value 4). Case "c": everything else, |G| / p. The
    prediction is exactly what :func:`verify_main_theorem` compares
    against brute force; it is not assumed correct anywhere.
    """
    order = group.order
    if order == 1:
        return 1, "a"
    pp = prime_power(order)
    if pp is None:
        raise ValueError(f"closed forms apply to p-groups only, got order {order}")
    if group.is_abelian():
        return abelian_closed_form_exponent(group), "a"
    p = pp[0]
    if p == 2:
        shape = classify_maximal_cyclic_2group(group)
        if shape in (MaximalCyclicType.QUATERNION, MaximalCyclicType.DIHEDRAL):
            return 2, "b"
        if shape is MaximalCyclicType.SEMIDIHEDRAL:
            return 4, "b"
    return order // p, "c"


@dataclass(frozen=True)
class TheoremRow:
    spec: str
    order: int
    brute_force: int
    closed_form: int
    case: str

    @property
    def agree(self) -> bool:
        return self.brute_force == self.closed_form


@dataclass(frozen=True)
class TheoremReport:
    max_order: int
    rows: tuple[TheoremRow, ...]

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)

    def disagreements(self) -> tuple[TheoremRow, ...]:
        return tuple(row for row in self.rows if not row.agree)


def verify_main_theorem(
    max_order: int, *, enumeration_cap: int | None = None
) -> TheoremReport:
    """Brute-force exponents versus closed forms over the whole catalog.

    Every catalog group of prime-power order up to ``max_order`` gets a
    row with the exponent computed by the marks solve and verified by the
    Weyl congruences, and the closed-form prediction. Disagreements are
    reported, never suppressed.
    """
    rows = []
    for spec in standard_catalog(max_order):
        order = spec.order()
        if order is None or order > max_order:
            continue
        check_enumeration_cap(order, enumeration_cap)
        group = build_group(spec)
        lattice = enumerate_subgroups(group, cap=enumeration_cap)
        brute = artin_exponent(lattice, SubgroupFamily.ELEMENTARY_ABELIAN).exponent
        predicted, case = closed_form_exponent(group)
        rows.append(
            TheoremRow(
                spec=spec.text(),
                order=order,
                brute_force=brute,
                closed_form=predicted,
                case=case,
            )
        )
    return TheoremReport(max_order=max_order, rows=tuple(rows))


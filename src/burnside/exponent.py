"""Artin exponents relative to a subgroup family, with closed-form comparators.

The exponent of a group relative to a family is the least positive n for
which n times the family's indicator ghost vector is an actual Burnside
ring element. It is computed from the integer marks solve and always
re-derived in one pass over the Dress congruences, where each congruence
of index q and indicator sum s needs q / gcd(s, q) to divide n; the two
must agree. A closed-form table (abelian index formula, the
quaternion/dihedral/semidihedral special values, and the order-over-p
fallback) is implemented separately so brute force can be compared
against it group by group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .arith import divisors, prime_power
from .burnside_ring import (
    CongruenceViolation,
    GhostVector,
    minimal_multiplier,
    violation_rows,
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
    exponent: int
    family: SubgroupFamily
    family_classes: frozenset[int]
    method: str
    certificate: tuple[DivisorWitness, ...]


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
    of the indicator. One pass over the Dress congruences re-derives it:
    a congruence of index q whose indicator sum is s holds for n times the
    indicator exactly when q / gcd(s, q) divides n, so the congruence
    route's exponent is the lcm of those quotients over the congruences
    the indicator itself violates (the others give 1). The same pass
    records, for every proper divisor d of the exponent, the first
    congruence that d times the indicator violates. Any disagreement
    between the routes raises.
    """
    b = indicator_vector(lattice, family)
    exponent = minimal_multiplier(lattice, b)
    order = lattice.group.order
    if order % exponent:
        raise RuntimeError(
            f"computed exponent {exponent} does not divide the group order {order}"
        )
    witnesses: list[DivisorWitness] = []
    confirmed = 1
    pending = divisors(exponent)[:-1]
    for u_class, v_class, index, total, _ in violation_rows(lattice, b.values):
        need = index // gcd(total, index)
        confirmed = lcm(confirmed, need)
        for d in pending:
            if d % need:
                violation = CongruenceViolation(
                    u_class, v_class, index, d * total, d * total % index
                )
                witnesses.append(DivisorWitness(d, violation))
        pending = [d for d in pending if d % need == 0]
    if confirmed != exponent:
        raise RuntimeError(
            f"membership routes disagree: marks give {exponent}, "
            f"congruences give {confirmed}"
        )
    witnesses.sort(key=lambda w: w.divisor)
    return ExponentResult(
        exponent=exponent,
        family=family,
        family_classes=select_family(lattice, family),
        method="marks+dress",
        certificate=tuple(witnesses),
    )


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
    row with the exponent computed by both membership routes and the
    closed-form prediction. Disagreements are reported, never
    suppressed.
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


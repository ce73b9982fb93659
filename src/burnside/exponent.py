"""Artin exponents relative to a subgroup family, with closed-form comparators.

The exponent of a group relative to a family is the least positive n for
which n times the family's indicator ghost vector is an actual Burnside
ring element. Dress's characterisation gives it with no marks solve and
no pair congruences: the Weyl row of each class U over N(U) is summed
straight off the class's kept walk (``SubgroupLattice.walks``) by the
loop that membership queries read (``burnside_ring._weyl_violations``),
with the family indicator as the vector, and the same pass gives the
divisor witnesses of its certificate. No pair record is built and nothing
is cached on the lattice; the tests check the rows against a Weyl-row
oracle, the pair route and a count from the multiplication table. A
closed-form table (abelian index formula, the quaternion/dihedral/
semidihedral special values, and the order-over-p fallback) is
implemented separately so brute force can be compared against it group
by group.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import divisors, prime_power
from .burnside_ring import CongruenceViolation, GhostVector, _weyl_violations, least_multiplier
from .catalog import (
    MaximalCyclicType,
    build_group,
    classify_maximal_cyclic_2group,
    standard_catalog,
)
from .groups import FiniteGroup, check_enumeration_cap
from .lattice import (
    SubgroupFamily,
    SubgroupLattice,
    enumerate_subgroups,
    maximal_elementary_abelian,
    select_family,
)


class DivisorWitness(NamedTuple):
    """A congruence violated by divisor*indicator, proving that divisor is too small.

    A named tuple: it equals the plain tuple (divisor, violation).
    """

    divisor: int
    violation: CongruenceViolation


class ExponentResult(NamedTuple):
    """An Artin exponent, read off the Weyl rows of the family classes.

    ``method`` is the label that the JSON output prints, "marks+dress";
    it stays so, though the marks are not read, because acceptance
    criterion 4 (``tests/test_acceptance.py``) reads it. A named tuple:
    it equals the plain tuple (exponent, family, family_classes, method).
    """

    exponent: int
    family: SubgroupFamily
    family_classes: frozenset[int]
    method: str


def indicator_vector(lattice: SubgroupLattice, family: SubgroupFamily) -> GhostVector:
    """Ghost vector with value 1 on the family's classes and 0 elsewhere."""
    selected = select_family(lattice, family)
    return GhostVector(
        lattice, (1 if i in selected else 0 for i in range(lattice.class_count))
    )


def _certified(
    lattice: SubgroupLattice, family: SubgroupFamily
) -> tuple[ExponentResult, tuple[DivisorWitness, ...]]:
    """The exponent and its certificate, from one pass over the Weyl rows.

    The rows are those the family's indicator violates
    (``burnside_ring._weyl_violations``), each of a class U with v_class
    the class of N(U), index w_U and sum s_U. The exponent is the lcm of
    their quotients w_U / gcd(s_U, w_U), so each proper divisor d of it
    misses one of them; in ascending order, d's witness is the first row
    that d times the indicator still violates.
    """
    selected = select_family(lattice, family)
    rows = _weyl_violations(lattice, [c in selected for c in range(lattice.class_count)])
    exponent = least_multiplier((total, index) for _, _, index, total, _ in rows)
    witnesses = []
    for d in divisors(exponent)[:-1]:
        u_class, v_class, index, total, _ = next(r for r in rows if d * r.lhs_sum % r.index)
        violation = CongruenceViolation(u_class, v_class, index, d * total, d * total % index)
        witnesses.append(DivisorWitness(d, violation))
    return ExponentResult(exponent, family, selected, "marks+dress"), tuple(witnesses)


def artin_exponent(
    lattice: SubgroupLattice,
    family: SubgroupFamily = SubgroupFamily.ELEMENTARY_ABELIAN,
) -> ExponentResult:
    """Least n with n times the family indicator inside the Burnside ring.

    By Dress's characterisation it is the lcm of w_U / gcd(s_U, w_U) over
    the family classes U, with w_U = |N(U) : U| and s_U the cosets gU in
    N(U)/U with <g, U> in the family (``_certified``); the Weyl row of a
    class outside the family sums to 0, as each family is closed under
    subgroups. The ``exponent --certify`` command takes this result and
    its witnesses from the same pass.
    """
    return _certified(lattice, family)[0]


def abelian_closed_form_exponent(group: FiniteGroup) -> int:
    """Exponent of an abelian p-group: the index of its maximal elementary
    abelian subgroup. A nonabelian group raises ValueError
    (``maximal_elementary_abelian``)."""
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


class TheoremRow(NamedTuple):
    """One catalog group: the computed exponent beside the closed form.

    A named tuple: it equals the plain tuple
    (spec, order, brute_force, closed_form, case).
    """

    spec: str
    order: int
    brute_force: int
    closed_form: int
    case: str

    @property
    def agree(self) -> bool:
        return self.brute_force == self.closed_form


class TheoremReport(NamedTuple):
    """Every row of one catalog sweep.

    A named tuple: it equals the plain tuple (max_order, rows).
    """

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
    row with the exponent that ``artin_exponent`` reads off the Weyl
    rows, and the closed-form prediction. Disagreements are
    reported, never suppressed.
    """
    specs = standard_catalog(max_order)
    # every cap is checked before any group is built, so an order over the
    # cap fails at once rather than after the smaller groups
    for spec in specs:
        check_enumeration_cap(spec.order(), enumeration_cap)
    rows = []
    for spec in specs:
        group = build_group(spec, cap=enumeration_cap)
        lattice = enumerate_subgroups(group, cap=enumeration_cap)
        brute = artin_exponent(lattice, SubgroupFamily.ELEMENTARY_ABELIAN).exponent
        predicted, case = closed_form_exponent(group)
        rows.append(
            TheoremRow(
                spec=spec.text(),
                order=group.order,
                brute_force=brute,
                closed_form=predicted,
                case=case,
            )
        )
    return TheoremReport(max_order=max_order, rows=tuple(rows))


"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: subgroups are
found by testing every subset of suitable size for closure, class
structure by conjugating whole element sets, the marks solve by rational
back-substitution, Artin exponents by an ascending divisor search
through the Dress congruences, and marks by counting fixed cosets one at
a time. The closure-based lattice enumeration and Dress congruence
system below are the library's earlier implementations, which rebuild
every join from its generators from scratch; the per-congruence loops
are the earlier Dress route, which reads each congruence's fields and
builds every violation record by keyword. The Weyl-group congruences
are built from explicit normalizers, one closure per coset. The cyclic
census is counted by walking the powers of every group element.
``BurnsideElement``, ``ghost_of`` and ``check_family_closure`` are test
helpers that the library itself never needs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable

from burnside import (
    CapExceededError,
    Congruence,
    CongruenceCertificate,
    CongruenceViolation,
    DivisorWitness,
    FiniteGroup,
    GhostVector,
    Subgroup,
    SubgroupFamily,
    SubgroupLattice,
    artin_exponent,
    conjugate_subgroup,
    dress_congruences,
    dress_membership,
    generated_subgroup,
    indicator_vector,
    is_elementary_abelian,
    minimal_multiplier,
    normalizer,
    table_of_marks,
)
from burnside.arith import divisors, prime_power
from burnside.lattice import DEFAULT_ENUMERATION_CAP, SubgroupClass


class BurnsideElement:
    """Integer coordinates in the transitive-set basis, one per subgroup class."""

    __slots__ = ("lattice", "coefficients")

    def __init__(self, lattice: SubgroupLattice, coefficients: Iterable[int]) -> None:
        coeffs = tuple(int(c) for c in coefficients)
        if len(coeffs) != lattice.class_count:
            raise ValueError(
                f"expected {lattice.class_count} coefficients, got {len(coeffs)}"
            )
        self.lattice = lattice
        self.coefficients = coeffs


def ghost_of(lattice: SubgroupLattice, element: BurnsideElement) -> GhostVector:
    """Image of a Burnside element under the mark homomorphisms, from the
    dense table of marks."""
    if element.lattice is not lattice:
        raise ValueError("element is indexed by a different lattice")
    coeffs = element.coefficients
    return GhostVector(
        lattice,
        (sum(m * c for m, c in zip(row, coeffs)) for row in table_of_marks(lattice).entries),
    )


def check_family_closure(lattice: SubgroupLattice, family: SubgroupFamily) -> bool:
    """When the exponent is 1, family membership must be constant across every
    normal pair of prime-power index; returns True vacuously otherwise."""
    result = artin_exponent(lattice, family)
    if result.exponent != 1:
        return True
    selected = result.family_classes
    return all(
        (c.u_class in selected) == (c.v_class in selected)
        for c in dress_congruences(lattice)
    )


def element_walk_census(lattice: SubgroupLattice) -> tuple[int, ...]:
    """counts[k] = number of group elements generating a class-k cyclic
    subgroup, by walking the powers of every element."""
    group = lattice.group
    table = group.mul_table
    counts = [0] * lattice.class_count
    for g in group.elements():
        elems = {0}
        y = g
        while y != 0:
            elems.add(y)
            y = table[y][g]
        counts[lattice.class_index_of(elems)] += 1
    return tuple(counts)


def subset_closure_subgroups(group: FiniteGroup) -> set[frozenset[int]]:
    """Every subgroup, found by checking closure of each candidate subset.

    Candidates are the subsets containing the identity whose size divides
    the group order. Exponential; usable up to order 16 or so.
    """
    n = group.order
    table = group.mul_table
    others = list(range(1, n))
    found: set[frozenset[int]] = set()
    for size in divisors(n):
        for combo in combinations(others, size - 1):
            candidate = frozenset((0,) + combo)
            closed = True
            for a in candidate:
                row = table[a]
                for b in candidate:
                    if row[b] not in candidate:
                        closed = False
                        break
                if not closed:
                    break
            if closed:
                found.add(candidate)
    return found


def conjugacy_partition(
    group: FiniteGroup, subgroup_sets: set[frozenset[int]]
) -> set[frozenset[frozenset[int]]]:
    """Partition subgroup element-sets into conjugacy orbits."""
    table = group.mul_table
    inv = group.inv_table
    remaining = set(subgroup_sets)
    orbits: set[frozenset[frozenset[int]]] = set()
    while remaining:
        start = min(remaining, key=sorted)
        orbit = set()
        for g in range(group.order):
            grow = table[g]
            gi = inv[g]
            orbit.add(frozenset(table[grow[u]][gi] for u in start))
        remaining -= orbit
        orbits.add(frozenset(orbit))
    return orbits


def fixed_coset_count(group: FiniteGroup, u: Subgroup, v: Subgroup) -> int:
    """Number of cosets gV in G/V with U contained in g V g^-1, by direct scan."""
    table = group.mul_table
    inv = group.inv_table
    uset = u.member_set
    seen = bytearray(group.order)
    count = 0
    for g in group.elements():
        if seen[g]:
            continue
        grow = table[g]
        coset = [grow[x] for x in v.elements]
        for c in coset:
            seen[c] = 1
        gi = inv[g]
        conj = frozenset(table[grow[x]][gi] for x in v.elements)
        if uset <= conj:
            count += 1
    return count


def mark(lattice: SubgroupLattice, i: int, j: int) -> int:
    """The mark of class i on the transitive set of class j.

    Counts cosets fixed by the class-i representative; the count does not
    depend on which representative is used.
    """
    classes = lattice.classes
    return fixed_coset_count(
        lattice.group, classes[i].representative, classes[j].representative
    )


def fraction_marks_solve(
    lattice: SubgroupLattice, x: GhostVector
) -> tuple[bool, tuple[Fraction, ...]]:
    """Solve marks * c = x by back-substitution over the rationals.

    Returns (is_member, coefficients), membership being integrality of
    every coefficient.
    """
    entries = table_of_marks(lattice).entries
    n = len(entries)
    coeffs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        row = entries[i]
        acc = Fraction(x.values[i])
        for j in range(i + 1, n):
            acc -= row[j] * coeffs[j]
        coeffs[i] = acc / row[i]
    return all(c.denominator == 1 for c in coeffs), tuple(coeffs)


def fraction_minimal_multiplier(lattice: SubgroupLattice, x: GhostVector) -> int:
    """Least n with n*x a member: the lcm of the rational coefficients' denominators."""
    return lcm(*(c.denominator for c in fraction_marks_solve(lattice, x)[1]))


def divisor_search_exponent(
    lattice: SubgroupLattice, family: SubgroupFamily
) -> tuple[int, tuple[DivisorWitness, ...]]:
    """Artin exponent and certificate by trying the divisors d of |G| in turn.

    The exponent is the first d for which d times the family indicator
    passes every Dress congruence. The certificate holds, for each proper
    divisor of the exponent, the first congruence that d times the
    indicator violates.
    """
    b = indicator_vector(lattice, family)
    failed = []
    for d in divisors(lattice.group.order):
        certificate = dress_membership(lattice, d * b)
        if certificate.holds:
            witnesses = (
                DivisorWitness(f, violation) for f, violation in failed if d % f == 0
            )
            return d, tuple(witnesses)
        failed.append((d, certificate.violations[0]))
    raise AssertionError("|G| times any indicator is a Burnside ring element")


def loop_dress_membership(
    lattice: SubgroupLattice, x: GhostVector
) -> CongruenceCertificate:
    """Every Dress congruence checked in its own loop, with one
    keyword-built record per violated congruence."""
    values = x.values
    violations = []
    for cong in dress_congruences(lattice):
        total = 0
        for cls, count in cong.terms:
            total += count * values[cls]
        residue = total % cong.index
        if residue:
            violations.append(
                CongruenceViolation(
                    u_class=cong.u_class,
                    v_class=cong.v_class,
                    index=cong.index,
                    lhs_sum=total,
                    residue=residue,
                )
            )
    return CongruenceCertificate(holds=not violations, violations=tuple(violations))


def loop_dress_exponent(
    lattice: SubgroupLattice, family: SubgroupFamily
) -> tuple[int, tuple[DivisorWitness, ...]]:
    """Congruence-route exponent and certificate by a per-congruence loop.

    Each congruence of index q and indicator sum s needs q / gcd(s, q) to
    divide the exponent; for every proper divisor d of the marks-route
    exponent, the witness is the first congruence that d times the
    indicator violates.
    """
    b = indicator_vector(lattice, family)
    values = b.values
    confirmed = 1
    pending = divisors(minimal_multiplier(lattice, b))[:-1]
    witnesses = []
    for cong in dress_congruences(lattice):
        total = 0
        for cls, count in cong.terms:
            total += count * values[cls]
        index = cong.index
        need = index // gcd(total, index)
        if need == 1:
            continue
        confirmed = lcm(confirmed, need)
        for d in pending:
            if d % need:
                violation = CongruenceViolation(
                    u_class=cong.u_class,
                    v_class=cong.v_class,
                    index=index,
                    lhs_sum=d * total,
                    residue=d * total % index,
                )
                witnesses.append(DivisorWitness(d, violation))
        pending = [d for d in pending if d % need == 0]
    witnesses.sort(key=lambda w: w.divisor)
    return confirmed, tuple(witnesses)


def closure_enumerate_subgroups(
    group: FiniteGroup, *, cap: int | None = None
) -> SubgroupLattice:
    """Every subgroup by repeated joins with cyclic subgroups, each join
    closed from its generators from scratch; classes in canonical order."""
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if group.order > limit:
        raise CapExceededError(
            f"group order {group.order} exceeds the enumeration cap {limit}"
        )
    table = group.mul_table
    cyclics: list[tuple[frozenset[int], int]] = []
    seen_cyclic: set[frozenset[int]] = set()
    for g in group.elements():
        elems = {0}
        y = g
        while y != 0:
            elems.add(y)
            y = table[y][g]
        fs = frozenset(elems)
        if fs not in seen_cyclic:
            seen_cyclic.add(fs)
            cyclics.append((fs, g))
    gens_of: dict[frozenset[int], tuple[int, ...]] = {}
    for fs, g in cyclics:
        gens_of.setdefault(fs, (g,) if len(fs) > 1 else ())
    gens_of.setdefault(frozenset({0}), ())
    frontier = list(gens_of)
    while frontier:
        fresh: list[frozenset[int]] = []
        for current in frontier:
            base_gens = gens_of[current]
            for cyc_set, cyc_gen in cyclics:
                if cyc_set <= current:
                    continue
                joined = generated_subgroup(group, base_gens + (cyc_gen,)).member_set
                if joined not in gens_of:
                    gens_of[joined] = base_gens + (cyc_gen,)
                    fresh.append(joined)
        frontier = fresh

    abelian = group.is_abelian()
    remaining = set(gens_of)
    orbits: list[list[frozenset[int]]] = []
    for fs in sorted(remaining, key=lambda s: (len(s), sorted(s))):
        if fs not in remaining:
            continue
        if abelian:
            orbit = {fs}
        else:
            sub = Subgroup(fs)
            orbit = {
                conjugate_subgroup(group, sub, g).member_set for g in group.elements()
            }
        remaining -= orbit
        orbits.append(sorted(orbit, key=sorted))

    staged = []
    for orbit in orbits:
        members = tuple(Subgroup(fs) for fs in orbit)
        rep = members[0]
        is_cyclic = any(group.element_order(x) == rep.order for x in rep.elements)
        staged.append(
            (
                rep.order,
                -len(members),
                rep.elements,
                members,
                is_cyclic,
                is_elementary_abelian(group, rep),
            )
        )
    staged.sort(key=lambda item: item[:3])
    classes = tuple(
        SubgroupClass(idx, members, is_cyclic=is_cyc, is_elementary_abelian=is_ea)
        for idx, (_, _, _, members, is_cyc, is_ea) in enumerate(staged)
    )
    return SubgroupLattice(group, classes)


def closure_dress_congruences(lattice: SubgroupLattice) -> tuple[Congruence, ...]:
    """The Dress congruences by scanning every subgroup for each class of V
    and closing <U, v> from U's elements for every coset vU."""
    group = lattice.group
    table = group.mul_table
    inv = group.inv_table
    abelian = group.is_abelian()
    joins: dict[tuple[frozenset[int], int], int] = {}
    out: list[Congruence] = []
    for cls in lattice.classes:
        v_rep = cls.representative
        if v_rep.order == 1:
            continue
        vset = v_rep.member_set
        velems = v_rep.elements
        nv_elems = () if abelian else normalizer(group, v_rep).elements
        seen_orbit: set[frozenset[int]] = set()
        for sub in lattice.all_subgroups:
            if sub.order >= v_rep.order:
                continue
            if prime_power(v_rep.order // sub.order) is None:
                continue
            sset = sub.member_set
            if not sset <= vset or sset in seen_orbit:
                continue
            if not abelian:
                if any(
                    table[table[v][s]][inv[v]] not in sset
                    for v in velems
                    for s in sub.elements
                ):
                    continue
                for g in nv_elems:
                    seen_orbit.add(
                        frozenset(table[table[g][s]][inv[g]] for s in sub.elements)
                    )
            else:
                seen_orbit.add(sset)
            counts: dict[int, int] = {}
            covered: set[int] = set()
            for v in velems:
                if v in covered:
                    continue
                coset = [table[v][s] for s in sub.elements]
                covered.update(coset)
                key = (sset, min(coset))
                if key not in joins:
                    joined = generated_subgroup(group, sub.elements + (min(coset),))
                    joins[key] = lattice.class_index_of(joined)
                cls_idx = joins[key]
                counts[cls_idx] = counts.get(cls_idx, 0) + 1
            out.append(
                Congruence(
                    u_class=lattice.class_index_of(sub),
                    v_class=cls.class_index,
                    index=v_rep.order // sub.order,
                    terms=tuple(sorted(counts.items())),
                )
            )
    return tuple(out)


def closure_weyl_congruences(
    lattice: SubgroupLattice,
) -> tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]:
    """The Weyl-group congruences by computing every normalizer and closing
    <g, U> from U's elements for every coset gU in N(U)/U, one at a time;
    each row is (class of U, class of N(U), index, terms)."""
    group = lattice.group
    out = []
    for cls in lattice.classes:
        rep = cls.representative
        norm = normalizer(group, rep)
        index = norm.order // rep.order
        if index == 1:
            continue
        counts: dict[int, int] = {}
        covered: set[int] = set()
        for g in norm.elements:
            if g in covered:
                continue
            covered.update(group.mul_table[g][u] for u in rep.elements)
            joined = generated_subgroup(group, rep.elements + (g,))
            cls_idx = lattice.class_index_of(joined)
            counts[cls_idx] = counts.get(cls_idx, 0) + 1
        out.append(
            (cls.class_index, lattice.class_index_of(norm), index, tuple(sorted(counts.items())))
        )
    return tuple(out)

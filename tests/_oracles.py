"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: subgroups are
found by testing every subset of suitable size for closure, class
structure by conjugating whole element sets, the marks solve by rational
back-substitution, and Artin exponents by an ascending divisor search
through the Dress congruences. The closure-based lattice enumeration and
Dress congruence system below are the library's earlier implementations,
which rebuild every join from its generators from scratch.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from burnside import (
    CapExceededError,
    Congruence,
    DivisorWitness,
    FiniteGroup,
    GhostVector,
    Subgroup,
    SubgroupFamily,
    SubgroupLattice,
    conjugate_subgroup,
    dress_membership,
    generated_subgroup,
    indicator_vector,
    is_elementary_abelian,
    normalizer,
    table_of_marks,
)
from burnside.arith import divisors, prime_power
from burnside.lattice import DEFAULT_ENUMERATION_CAP, SubgroupClass


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

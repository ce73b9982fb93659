"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: subgroups are
found by testing every subset of suitable size for closure, class
structure by conjugating whole element sets, the marks solve by rational
back-substitution, and Artin exponents by an ascending divisor search
through the Dress congruences.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from burnside import (
    DivisorWitness,
    FiniteGroup,
    GhostVector,
    SubgroupFamily,
    SubgroupLattice,
    dress_membership,
    indicator_vector,
    table_of_marks,
)
from burnside.arith import divisors


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

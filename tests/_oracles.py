"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: subgroups are
found by testing every subset of suitable size for closure, class
structure by conjugating whole element sets, the marks solve by rational
back-substitution, Artin exponents by an ascending divisor search
through the pair congruences, and marks by counting fixed cosets one at
a time. The closure-based lattice enumeration and Dress congruence
system below are the library's earlier implementations, which rebuild
every join from its generators from scratch; the per-congruence loops
are the earlier Dress route, which reads each congruence's fields and
builds every violation record by keyword; ``record_violation_rows`` is
the earlier shared loop over ``Congruence`` records, which the tests run
over the pair records and over the Weyl records; and
``scan_dress_congruences`` is the earlier pair system over the lattice's
walks, which filters U's whole walk by V's mask and tests the index for
every pair. Normalizers are found by conjugating a subgroup by every
group element, and the Weyl-group congruences and each subgroup's walk
over its normalizer (``closure_walk``) are built from them, one closure
per coset. ``weyl_congruences`` is the package's earlier Weyl route,
which keeps one ``Congruence`` record per class, read off the lattice's
walks, where the package sums each class's row straight off its kept
walk, for membership and the exponent alike, with no record. The
lattice of ``closure_enumerate_subgroups`` keeps walks closed the same
way (``_closure_joins``). The cyclic census is counted by walking
the powers of every group element.
Subgroups generated by a seed are closed by a word search
(``generated_subgroup``), a second closure beside the library's
coset-wise joins, and associativity is checked exhaustively or by
Light's test (``verify_group_axioms``). ``BurnsideElement``,
``ghost_of`` and ``check_family_closure`` are test helpers that the
library itself never needs. The ``loop_*`` group builders are the
catalog's earlier constructions, which fill every multiplication table
entry by entry in nested loops and validate each partial product of an
abelian group, and ``pairwise_is_abelian`` is the earlier abelian test,
which compares ab with ba for every pair of elements. ``loop_power`` and
``loop_element_order`` multiply one factor at a time, where the library
reads each element's recorded powers, and ``loop_perm_table`` composes
two permutations point by point for every entry of a permutation
group's table, where the library gathers each column from its parent's
column in the closure. ``search_maximal_cyclic_2group`` is the earlier
classifier of 2-groups with a cyclic subgroup of index 2, which tries
every pair (g, h) against the four two-generator relation sets, where
the library counts involutions, and ``class_index_of`` looks a
subgroup's class up by its elements, which only tests need.
``scan_table_of_marks`` is the earlier table of marks, which tests every
member of a class against the smaller classes' representatives, where
the library reads each representative's down-set, and
``per_cell_marks_text`` the earlier ``marks`` text, which formats every
cell with its own f-string, where the library formats each distinct
mark once.
``family_rows`` counts each family class's Weyl row (w_U, s_U) from the
multiplication table by a rule for each family, where the library sums
the walks; ``family_violated_rows`` keeps the rows that the indicator
violates, with the class of N(U) found by ``normalizer``, and
``family_witnesses`` reads the exponent's certificate off them.
``partition_filter_catalog`` is the earlier ``standard_catalog``, which
lists every partition of n for each p^n and filters out the shapes of
more than two parts above order 32, where the library lists only the
two-part shapes there.
``ea_class_search`` finds the elementary abelian classes and their rows
(w_U, s_U) from the multiplication table alone, extending each class by
elements of order p in its centralizer, with no enumeration read.
``pair_congruences`` keeps each lattice's pair records for the oracles
that sum them per vector, as the lattice itself does not cache them, and
``member_walk`` walks any member over its normalizer with the package's
``_walk``, as the lattice keeps only one walked member's walk per class.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence
from weakref import WeakKeyDictionary

from burnside import (
    CapExceededError,
    Congruence,
    CongruenceCertificate,
    CongruenceViolation,
    DivisorWitness,
    FiniteGroup,
    GhostVector,
    GroupSpec,
    MaximalCyclicType,
    Subgroup,
    SubgroupFamily,
    SubgroupLattice,
    artin_exponent,
    build_group,
    dress_congruences,
    indicator_vector,
    is_elementary_abelian,
    table_of_marks,
)
from burnside.arith import divisors, is_prime, partitions, prime_power
from burnside.groups import IDENTITY, subgroup_mask
from burnside.lattice import (
    DEFAULT_ENUMERATION_CAP,
    SubgroupClass,
    Walk,
    _walk,
    conjugate_mask,
    left_cosets,
)


def pairwise_is_abelian(group: FiniteGroup) -> bool:
    """True iff ab = ba for every pair of elements a < b."""
    table = group.mul_table
    return all(
        table[a][b] == table[b][a]
        for a in range(group.order)
        for b in range(a + 1, group.order)
    )


def loop_power(group: FiniteGroup, x: int, k: int) -> int:
    """x^k by k multiplications (by x^-1 when k < 0)."""
    if k < 0:
        x = group.inv_table[x]
        k = -k
    acc = IDENTITY
    for _ in range(k):
        acc = group.mul_table[acc][x]
    return acc


def loop_element_order(group: FiniteGroup, x: int) -> int:
    """The order of x, by multiplying by x until the identity returns."""
    n = 1
    y = x
    while y != IDENTITY:
        y = group.mul_table[y][x]
        n += 1
    return n


def loop_perm_table(
    degree: int, generators: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The multiplication table of the permutations that ``generators``
    generate, with the ids of ``group_from_perm_generators`` (breadth-first
    closure from the identity, generators in input order), each entry found
    by composing the two permutations point by point."""
    gens = [tuple(g) for g in generators]
    identity = tuple(range(degree))
    perms = [identity]
    index = {identity: 0}
    for base in perms:  # grows as the closure finds permutations
        for g in gens:
            nxt = tuple(base[p] for p in g)
            if nxt not in index:
                index[nxt] = len(perms)
                perms.append(nxt)
    n = len(perms)
    table = [[0] * n for _ in range(n)]
    for i, p in enumerate(perms):
        row = table[i]
        for j, q in enumerate(perms):
            row[j] = index[tuple(p[x] for x in q)]
    return table


def loop_direct_product(
    g1: FiniteGroup, g2: FiniteGroup, *, name: str | None = None
) -> FiniteGroup:
    """Direct product with element ids packed as a*|G2| + b."""
    o1, o2 = g1.order, g2.order
    t1, t2 = g1.mul_table, g2.mul_table
    n = o1 * o2
    table = [[0] * n for _ in range(n)]
    for a1 in range(o1):
        r1 = t1[a1]
        for b1 in range(o2):
            row = table[a1 * o2 + b1]
            r2 = t2[b1]
            for a2 in range(o1):
                base = r1[a2] * o2
                col = a2 * o2
                for b2 in range(o2):
                    row[col + b2] = base + r2[b2]
    return FiniteGroup(name or f"{g1.name}x{g2.name}", table)


def loop_cyclic_group(m: int, name: str) -> FiniteGroup:
    table = [[(a + b) % m for b in range(m)] for a in range(m)]
    return FiniteGroup(name, table)


def loop_abelian_product_group(orders: Sequence[int], name: str) -> FiniteGroup:
    if not orders:
        return loop_cyclic_group(1, name)
    group = loop_cyclic_group(orders[0], name)
    for m in orders[1:]:
        group = loop_direct_product(group, loop_cyclic_group(m, f"C{m}"), name=name)
    return group


def loop_two_generator_2group(order: int, r: int, quaternion: bool, name: str) -> FiniteGroup:
    # Normal form g^a h^b with a mod M, b mod 2, where M = order/2.
    # The conjugation relation h g h^-1 = g^r folds into (a,b)(c,d) =
    # (a + r^b c [+ M/2 for the quaternion h^2 correction], b + d).
    m = order // 2
    table = [[0] * order for _ in range(order)]
    for a in range(m):
        for b in range(2):
            row = table[a + m * b]
            for c in range(m):
                for d in range(2):
                    t = (a + (c if b == 0 else (c * r) % m)) % m
                    e = b + d
                    if quaternion and e == 2:
                        t = (t + m // 2) % m
                    row[c + m * d] = t + m * (e % 2)
    return FiniteGroup(name, table)


def loop_extraspecial_plus_group(p: int, name: str) -> FiniteGroup:
    # Upper unitriangular 3x3 matrices over F_p, exponent p for odd p.
    n = p ** 3

    def enc(x: int, y: int, z: int) -> int:
        return (x * p + y) * p + z

    table = [[0] * n for _ in range(n)]
    for x1 in range(p):
        for y1 in range(p):
            for z1 in range(p):
                row = table[enc(x1, y1, z1)]
                for x2 in range(p):
                    for y2 in range(p):
                        for z2 in range(p):
                            row[enc(x2, y2, z2)] = enc(
                                (x1 + x2) % p,
                                (y1 + y2) % p,
                                (z1 + z2 + x1 * y2) % p,
                            )
    return FiniteGroup(name, table)


def loop_extraspecial_minus_group(p: int, name: str) -> FiniteGroup:
    # Normal form g^a h^b with g of order p^2, h of order p, h g h^-1 = g^(1+p).
    p2 = p * p
    n = p2 * p
    r = 1 + p
    rpow = [pow(r, b, p2) for b in range(p)]
    table = [[0] * n for _ in range(n)]
    for a in range(p2):
        for b in range(p):
            row = table[a + p2 * b]
            rb = rpow[b]
            for c in range(p2):
                t = (a + c * rb) % p2
                for d in range(p):
                    row[c + p2 * d] = t + p2 * ((b + d) % p)
    return FiniteGroup(name, table)


# h g h^-1 = g^twist(m) in the two-generator 2-groups, g of order m = |G|/2
_TWISTS = {
    "dihedral": lambda m: m - 1,
    "quaternion": lambda m: m - 1,
    "semidihedral": lambda m: m // 2 - 1,
    "modular": lambda m: m // 2 + 1,
}


def loop_build_group(spec: GroupSpec) -> FiniteGroup:
    """The group of a spec, built by the ``loop_*`` constructions; the
    perm-file kind, which has no loop builder here, comes from
    ``build_group``."""
    name, params = spec.text(), spec.params
    if spec.kind == "cyclic":
        p, n = params
        return loop_cyclic_group(p ** n, name)
    if spec.kind == "elementary_abelian":
        p, k = params
        return loop_abelian_product_group([p] * k, name)
    if spec.kind == "abelian_product":
        return loop_abelian_product_group(params, name)
    if spec.kind in _TWISTS:
        (order,) = params
        twist = _TWISTS[spec.kind](order // 2)
        return loop_two_generator_2group(order, twist, spec.kind == "quaternion", name)
    if spec.kind == "extraspecial_plus":
        return loop_extraspecial_plus_group(*params, name)
    if spec.kind == "extraspecial_minus":
        return loop_extraspecial_minus_group(*params, name)
    if spec.kind == "direct_product":
        a, b = params
        return loop_direct_product(loop_build_group(a), loop_build_group(b), name=name)
    return build_group(spec)


def conjugate(group: FiniteGroup, g: int, x: int) -> int:
    """Return g*x*g^-1."""
    return group.mul_table[group.mul_table[g][x]][group.inv_table[g]]


def generated_subgroup(group: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of ``group`` containing ``seed``.

    The empty seed yields the trivial subgroup. Closure is a word search
    over the generators; inverses come for free in a finite group.
    """
    table = group.mul_table
    gens = sorted({int(g) for g in seed})
    for g in gens:
        if not 0 <= g < group.order:
            raise ValueError(f"element id {g} out of range")
    found = [IDENTITY]
    seen = {IDENTITY}
    for g in gens:
        if g not in seen:
            seen.add(g)
            found.append(g)
    i = 0
    while i < len(found):
        x = found[i]
        row = table[x]
        for g in gens:
            y = row[g]
            if y not in seen:
                seen.add(y)
                found.append(y)
        i += 1
    return Subgroup(seen)


def conjugate_subgroup(group: FiniteGroup, sub: Subgroup, g: int) -> Subgroup:
    """The subgroup g*U*g^-1; always has the same order as U."""
    table = group.mul_table
    gi = group.inv_table[g]
    grow = table[g]
    return Subgroup(table[grow[u]][gi] for u in sub.elements)


def is_closed_subset(group: FiniteGroup, elements: Iterable[int]) -> bool:
    """True iff the set contains the identity and is closed under products."""
    elems = frozenset(elements)
    if IDENTITY not in elems:
        return False
    table = group.mul_table
    for a in elems:
        row = table[a]
        for b in elems:
            if row[b] not in elems:
                return False
    return True


def subgroup_from_elements(group: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Build a Subgroup after checking closure; raises ValueError otherwise."""
    elems = frozenset(int(x) for x in elements) | {IDENTITY}
    if not is_closed_subset(group, elems):
        raise ValueError("element set is not closed under the group operation")
    return Subgroup(elems)


def verify_group_axioms(group: FiniteGroup, *, generators: Sequence[int] | None = None) -> None:
    """Check associativity exhaustively, or via Light's test when generators are given.

    Light's test only needs the triples (a, g, b) with g a generator,
    provided the generators actually generate the group; that closure is
    checked first. Raises ValueError on any failure.
    """
    table = group.mul_table
    n = group.order
    if generators is not None:
        gen = generated_subgroup(group, generators)
        if gen.order != n:
            raise ValueError("given generators do not generate the group")
        probes: Iterable[int] = generators
    else:
        probes = range(n)
    for g in probes:
        grow = table[g]
        for a in range(n):
            ag = table[a][g]
            arow = table[a]
            agrow = table[ag]
            for b in range(n):
                if agrow[b] != arow[grow[b]]:
                    raise ValueError(f"associativity fails at ({a}, {g}, {b})")


def normalizer(group: FiniteGroup, sub: Subgroup) -> Subgroup:
    """N(U) as {g : gUg^-1 = U}, testing every element of the group."""
    return Subgroup(g for g in group.elements() if conjugate_subgroup(group, sub, g) == sub)


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


# lattice -> its pair congruences, dropped with the lattice
_PAIRS: WeakKeyDictionary[SubgroupLattice, tuple[Congruence, ...]] = WeakKeyDictionary()


def pair_congruences(lattice: SubgroupLattice) -> tuple[Congruence, ...]:
    """``dress_congruences``, built once per lattice: the oracles that sum
    the pair records for every vector or divisor read them from here. The
    memo holds the lattice weakly, so it keeps no lattice alive."""
    pairs = _PAIRS.get(lattice)
    if pairs is None:
        pairs = _PAIRS[lattice] = dress_congruences(lattice)
    return pairs


def member_walk(lattice: SubgroupLattice, sub: Subgroup) -> Walk:
    """The walk of any member U over N(U), walked now by the package's
    ``_walk`` over the normalizer the lattice recorded, as rows (mask of
    <v, U>, its class, coset count) sorted by class, U's own row first:
    the form the lattice keeps for each class's walked member
    (``SubgroupLattice.walks``)."""
    class_of = lattice._class_by_mask
    rows = _walk(lattice.group, sub.elements, lattice.normalizer(sub).elements)
    masks = [(subgroup_mask(joined), count) for joined, count, _ in rows]
    return tuple(sorted(((m, class_of[m], count) for m, count in masks), key=itemgetter(1)))


def check_family_closure(lattice: SubgroupLattice, family: SubgroupFamily) -> bool:
    """When the exponent is 1, family membership must be constant across every
    normal pair of prime-power index; returns True vacuously otherwise."""
    result = artin_exponent(lattice, family)
    if result.exponent != 1:
        return True
    selected = result.family_classes
    return all(
        (c.u_class in selected) == (c.v_class in selected)
        for c in pair_congruences(lattice)
    )


def class_index_of(lattice: SubgroupLattice, sub: Subgroup | Iterable[int]) -> int:
    """The class of a subgroup of the lattice, given as a Subgroup or its elements."""
    if isinstance(sub, Subgroup):
        mask = sub.mask
    else:
        ids = {int(x) for x in sub}
        # range-checked first: the mask of a huge id would be huge
        in_range = all(0 <= x < lattice.group.order for x in ids)
        mask = subgroup_mask(ids) if in_range else -1
    try:
        return lattice._class_by_mask[mask]
    except KeyError:
        raise ValueError("subgroup does not belong to this lattice") from None


def search_maximal_cyclic_2group(group: FiniteGroup) -> MaximalCyclicType:
    """Identify which of the four two-generator relation sets a 2-group satisfies.

    Cyclic groups report CYCLIC. A nonabelian group of order 2^n with an
    element g of order 2^(n-1) is matched against the quaternion,
    dihedral, modular, and semidihedral relations over all candidate
    (g, h) pairs. Everything else is NOT_MAXIMAL_CYCLIC. Groups of odd
    order are rejected.
    """
    n = group.order
    if n == 1:
        return MaximalCyclicType.CYCLIC
    pp = prime_power(n)
    if pp is None or pp[0] != 2:
        raise ValueError(f"classification needs a group of 2-power order, got {n}")
    if max(map(len, group.powers)) == n:
        return MaximalCyclicType.CYCLIC
    if group.is_abelian():
        return MaximalCyclicType.NOT_MAXIMAL_CYCLIC
    exp = pp[1]
    half = n // 2
    quarter = half // 2
    table = group.mul_table
    for g, powers in enumerate(group.powers):
        if len(powers) != half:
            continue
        in_cyc = frozenset(powers)
        g_inv = powers[half - 1]
        g_quarter = powers[quarter]
        g_mod = powers[(1 + quarter) % half]
        g_semi = powers[(quarter - 1) % half]
        for h in group.elements():
            if h in in_cyc:
                continue
            hh = table[h][h]
            conj = table[table[h][g]][group.inv_table[h]]
            if hh == g_quarter and conj == g_inv:
                return MaximalCyclicType.QUATERNION
            if hh == 0 and conj == g_inv:
                return MaximalCyclicType.DIHEDRAL
            if exp >= 4 and hh == 0 and conj == g_mod:
                return MaximalCyclicType.MODULAR
            if exp >= 4 and hh == 0 and conj == g_semi:
                return MaximalCyclicType.SEMIDIHEDRAL
    return MaximalCyclicType.NOT_MAXIMAL_CYCLIC


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
        counts[class_index_of(lattice, elems)] += 1
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
    uset = frozenset(u.elements)
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


def scan_table_of_marks(lattice: SubgroupLattice) -> tuple:
    """The table of marks' rows by the earlier scan: every member of class
    j is tested against each representative of a smaller class, and each
    conjugate of V_j containing U_i adds |N(V_j) : V_j| fixed cosets.
    The rows have the form of ``TableOfMarks.rows``."""
    classes = lattice.classes
    order = lattice.group.order
    orders = [cls.order for cls in classes]
    reps = [cls.representative.mask for cls in classes]
    tails: list[list[tuple[int, int]]] = [[] for _ in classes]
    diagonal = []
    for j, cls_j in enumerate(classes):
        masks = [m.mask for m in cls_j.members]
        per_conjugate = order // (len(masks) * orders[j])
        diagonal.append(per_conjugate)
        below = reps[:bisect_left(orders, orders[j])]  # the classes of smaller order
        contained = [i for mask in masks for i, r in enumerate(below) if r & mask == r]
        for i, conjugates in Counter(contained).items():
            tails[i].append((j, conjugates * per_conjugate))
    return tuple(zip(diagonal, map(tuple, tails)))


def per_cell_marks_text(matrix: Sequence[Sequence[int]]) -> list[str]:
    """The ``marks`` command's text lines, one f-string per cell, right
    aligned to the widest mark."""
    width = max(len(str(v)) for row in matrix for v in row)
    return [" ".join(f"{v:>{width}}" for v in row) for row in matrix]


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


def divisor_search_exponent(lattice: SubgroupLattice, family: SubgroupFamily) -> int:
    """Artin exponent by trying the divisors d of |G| in turn: the first d
    for which d times the family indicator passes every pair congruence
    (``loop_dress_membership``)."""
    b = indicator_vector(lattice, family)
    for d in divisors(lattice.group.order):
        if loop_dress_membership(lattice, d * b).holds:
            return d
    raise AssertionError("|G| times any indicator is a Burnside ring element")


def family_rows(
    lattice: SubgroupLattice, family: SubgroupFamily
) -> tuple[tuple[int, int, int], ...]:
    """(class, w_U, s_U) for every class U of the family, counted from the
    multiplication table alone, with neither the walks nor the marks.

    w_U = |N(U) : U| counts the elements g with gUg^-1 = U, tried one by
    one, and s_U is the number of cosets gU in N(U)/U with <g, U> in the
    family. Whether U is in the family is decided from element orders and
    commutation, not from the class flags. The count follows one rule per
    family:

    * elementary abelian, U = 1: the elements of order 1 or of prime order;
    * elementary abelian, U of exponent p: <g, U> is elementary abelian
      exactly when g centralizes U and g^p = 1, and then so is every element
      of gU, so s_U = #{g in C(U) : g^p = 1} / |U|;
    * cyclic, U = <u>: <g, U> is cyclic exactly when g centralizes u and
      |<g> meet <u>| = gcd(|g|, |u|), since the abelian group <g, u> has
      order |g| |u| / |<g> meet <u>| and exponent lcm(|g|, |u|), and the
      whole coset gU qualifies with g, so s_U = #{such g in C(u)} / |U|;
    * all subgroups: s_U = w_U.

    By Dress's characterisation the family's Artin exponent is the lcm of
    w_U / gcd(s_U, w_U) over these rows.
    """
    group = lattice.group
    table = group.mul_table
    inv = group.inv_table
    cyclic = []  # the element set of <g>, for each g
    for g in group.elements():
        powers, y = {IDENTITY}, g
        while y != IDENTITY:
            powers.add(y)
            y = table[y][g]
        cyclic.append(frozenset(powers))
    rows = []
    for cls in lattice.classes:
        u = cls.representative.elements
        u_set = set(u)
        orders = {len(cyclic[x]) for x in u[1:]}
        gens = [x for x in u if len(cyclic[x]) == len(u)]
        if family is SubgroupFamily.CYCLIC and not gens:
            continue
        if family is SubgroupFamily.ELEMENTARY_ABELIAN and (
            len(orders) > 1 or any(table[x][y] != table[y][x] for x in u for y in u)
        ):
            continue
        normalizing = sum(
            all(table[table[g][x]][inv[g]] in u_set for x in u) for g in group.elements()
        )
        w = normalizing // len(u)
        centralizer = [
            g for g in group.elements() if all(table[g][x] == table[x][g] for x in u)
        ]
        if family is SubgroupFamily.ALL:
            s = w
        elif family is SubgroupFamily.CYCLIC:
            c = cyclic[gens[0]]
            s = sum(len(cyclic[g] & c) == gcd(len(cyclic[g]), len(c)) for g in centralizer)
            s //= len(u)
        elif not orders:  # U = 1
            s = sum(len(c) == 1 or is_prime(len(c)) for c in cyclic)
        else:
            (p,) = orders
            s = sum(p % len(cyclic[g]) == 0 for g in centralizer) // len(u)
        rows.append((cls.class_index, w, s))
    return tuple(rows)


def ea_class_search(group: FiniteGroup) -> tuple[tuple[int, int, int], ...]:
    """(|U|, w_U, s_U) for every class of elementary abelian subgroups U,
    found from the multiplication table alone, with no enumeration read.

    The row of U = 1 is read directly; the search starts from the cyclic
    subgroups of prime order p, and extends each class's first member U by
    every element g of order p in C(U) outside U: <U, g> is U times the
    powers of g, again elementary abelian. Each new subgroup's orbit under
    conjugation is one class; every elementary abelian V > 1 of rank k + 1
    contains a conjugate of a class member of rank k, so extending one
    member per class finds every class. w_U = |N(U) : U| counts the g with
    gUg^-1 = U, and s_U is #{g in C(U) : g^p = 1} / |U|, with, for U = 1,
    the elements of order 1 or of any prime. The exponent induced from the
    family is the lcm of w_U / gcd(s_U, w_U) over the rows.
    """
    table = group.mul_table
    inv = group.inv_table
    elements = group.elements()
    order_of = [loop_element_order(group, g) for g in elements]
    abelian = pairwise_is_abelian(group)
    found: set[frozenset[int]] = set()
    classes: list[tuple[frozenset[int], tuple[int, ...]]] = []  # (U, generators)

    def add_class(sub: frozenset[int], gens: tuple[int, ...]) -> None:
        if abelian:  # every orbit is {U}
            found.add(sub)
        else:
            found.update(frozenset(table[table[g][u]][inv[g]] for u in sub) for g in elements)
        classes.append((sub, gens))

    for g in elements:
        if is_prime(order_of[g]):
            cyclic = frozenset(loop_power(group, g, k) for k in range(order_of[g]))
            if cyclic not in found:
                add_class(cyclic, (g,))
    rows = [(1, len(elements), sum(k == 1 or is_prime(k) for k in order_of))]  # U = 1
    for sub, gens in classes:  # grows as the extensions find classes
        w = sum(
            all(table[table[g][u]][inv[g]] in sub for u in gens) for g in elements
        ) // len(sub)
        p = order_of[gens[0]]
        exact = [  # g in C(U) with g^p = 1
            g for g in elements
            if p % order_of[g] == 0 and all(table[g][u] == table[u][g] for u in gens)
        ]
        rows.append((len(sub), w, len(exact) // len(sub)))
        covered = set(sub)
        for g in exact:
            if g not in covered:
                joined = frozenset(
                    table[u][loop_power(group, g, k)] for u in sub for k in range(p)
                )
                covered.update(joined)
                if joined not in found:
                    add_class(joined, gens + (g,))
    return tuple(rows)


def family_violated_rows(
    lattice: SubgroupLattice, family: SubgroupFamily
) -> tuple[tuple[int, int, int, int], ...]:
    """(class of U, class of N(U), w_U, s_U) for every row of
    ``family_rows`` with s_U not divisible by w_U, in class order. N(U) is
    found by conjugating U by every element (``normalizer``), and its
    class looked up by its elements."""
    group = lattice.group
    return tuple(
        (u, class_index_of(lattice, normalizer(group, lattice.classes[u].representative)), w, s)
        for u, w, s in family_rows(lattice, family)
        if s % w
    )


def family_witnesses(
    lattice: SubgroupLattice, family: SubgroupFamily
) -> tuple[DivisorWitness, ...]:
    """The certificate from the rows of ``family_violated_rows``: for each
    proper divisor d of the lcm of their quotients w_U / gcd(s_U, w_U), the
    first row in class order with d*s_U not divisible by w_U, as the
    violation (U, class of N(U), w_U, d*s_U, d*s_U mod w_U)."""
    rows = family_violated_rows(lattice, family)
    witnesses = []
    for d in divisors(lcm(*(w // gcd(s, w) for _, _, w, s in rows)))[:-1]:
        u_class, v_class, w, s = next(row for row in rows if d * row[3] % row[2])
        violation = CongruenceViolation(u_class, v_class, w, d * s, d * s % w)
        witnesses.append(DivisorWitness(d, violation))
    return tuple(witnesses)


def loop_dress_membership(
    lattice: SubgroupLattice, x: GhostVector
) -> CongruenceCertificate:
    """Every Dress congruence checked in its own loop, with one
    keyword-built record per violated congruence."""
    values = x.values
    violations = []
    for cong in pair_congruences(lattice):
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


def record_violation_rows(
    congruences: Iterable[Congruence], values: Sequence[int]
) -> list[tuple[int, int, int, int, int]]:
    """The earlier congruence-sum loop over the ``Congruence`` records: each
    term's coset count times its class's value, as plain tuples (u_class,
    v_class, index, sum, residue) for the congruences violated, in order."""
    rows = []
    append = rows.append
    for u_class, v_class, index, terms in congruences:
        total = 0
        for cls, count in terms:
            total += count * values[cls]
        residue = total % index
        if residue:
            append((u_class, v_class, index, total, residue))
    return rows


def loop_dress_exponent(lattice: SubgroupLattice, family: SubgroupFamily) -> int:
    """Congruence-route exponent by a per-congruence loop: each pair
    congruence of index q and indicator sum s needs q / gcd(s, q) to
    divide the exponent, which is the lcm of those needs."""
    values = indicator_vector(lattice, family).values
    confirmed = 1
    for cong in pair_congruences(lattice):
        total = 0
        for cls, count in cong.terms:
            total += count * values[cls]
        confirmed = lcm(confirmed, cong.index // gcd(total, cong.index))
    return confirmed


def closure_enumerate_subgroups(
    group: FiniteGroup, *, cap: int | None = None
) -> SubgroupLattice:
    """Every subgroup by repeated joins with cyclic subgroups, each join
    closed from its generators from scratch; classes in canonical order,
    normalizers by ``normalizer``."""
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
                joined = frozenset(generated_subgroup(group, base_gens + (cyc_gen,)).elements)
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
                frozenset(conjugate_subgroup(group, sub, g).elements) for g in group.elements()
            }
        remaining -= orbit
        orbits.append(sorted(orbit, key=sorted))

    staged = []
    for orbit in orbits:
        members = tuple(Subgroup(fs) for fs in orbit)
        rep = members[0]
        is_cyclic = any(loop_element_order(group, x) == rep.order for x in rep.elements)
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
    by_elements = {m.elements: m for cls in classes for m in cls.members}
    normalizers = {
        m.mask: by_elements[normalizer(group, m).elements] for m in by_elements.values()
    }
    walks = [_closure_joins(group, cls.representative) for cls in classes]
    return SubgroupLattice(group, classes, normalizers, walks)


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
        vset = frozenset(v_rep.elements)
        velems = v_rep.elements
        nv_elems = () if abelian else normalizer(group, v_rep).elements
        seen_orbit: set[frozenset[int]] = set()
        for sub in lattice.all_subgroups:
            if sub.order >= v_rep.order:
                continue
            if prime_power(v_rep.order // sub.order) is None:
                continue
            sset = frozenset(sub.elements)
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
                    joins[key] = class_index_of(lattice, joined)
                cls_idx = joins[key]
                counts[cls_idx] = counts.get(cls_idx, 0) + 1
            out.append(
                Congruence(
                    u_class=class_index_of(lattice, sub),
                    v_class=cls.class_index,
                    index=v_rep.order // sub.order,
                    terms=tuple(sorted(counts.items())),
                )
            )
    return tuple(out)


def _terms_within(rows: Walk, v_mask: int) -> tuple[tuple[int, int], ...]:
    """The rows whose join lies in V, summed by class as sorted
    (class_index, coset_count) pairs: the cosets vU of V/U by <v, U>."""
    counts: dict[int, int] = {}
    for joined, cls, count in rows:
        if joined & v_mask == joined:
            counts[cls] = counts.get(cls, 0) + count
    return tuple(sorted(counts.items()))


def scan_dress_congruences(lattice: SubgroupLattice) -> tuple[Congruence, ...]:
    """The reference scan for ``dress_congruences``: every pair reads a walk
    of U made here, not the lattice's kept one.

    Pairs (U, V) with U normal in V and (V : U) a prime power above 1 are
    enumerated with V running over class representatives and U over the
    smaller subgroups contained in V (bitmask tests over the order-sorted
    subgroup list), deduplicated by conjugacy under the normalizer of V;
    simultaneously conjugate pairs yield identical congruences. U is
    normal in V iff V lies in the normalizer N(U) the lattice recorded,
    and the terms are the rows of U's walk over N(U) whose join lies in V:
    each U is walked once per scan (``member_walk``), walked member or not.
    """
    group = lattice.group
    abelian = group.is_abelian()
    subgroups = lattice.all_subgroups
    class_of = lattice._class_by_mask
    normalizer_of = lattice._normalizers
    sub_orders = [sub.order for sub in subgroups]
    walks: dict[int, Walk] = {}  # U's mask -> its walk, made at its first pair
    out: list[Congruence] = []
    for cls in lattice.classes:
        v_rep = cls.representative
        v_order = v_rep.order
        if v_order == 1:
            continue
        v_mask = v_rep.mask
        # g and gv conjugate a subgroup normal in V alike, so one g per
        # left coset of V in N(V) sweeps each orbit
        conjugators = () if abelian else [
            g for g, _ in left_cosets(group, normalizer_of[v_mask].elements, v_rep.elements)
        ]
        seen_orbit: set[int] = set()
        below = bisect_left(sub_orders, v_order)
        for sub in [s for s in subgroups[:below] if s.mask & v_mask == s.mask]:
            index = v_order // sub.order
            u_mask = sub.mask
            if prime_power(index) is None or u_mask in seen_orbit:
                continue
            if normalizer_of[u_mask].mask & v_mask != v_mask:
                continue
            for g in conjugators:
                seen_orbit.add(conjugate_mask(group, sub.elements, g))
            if u_mask not in walks:
                walks[u_mask] = member_walk(lattice, sub)
            terms = _terms_within(walks[u_mask], v_mask)
            out.append(Congruence(class_of[u_mask], cls.class_index, index, terms))
    return tuple(out)


def _closure_joins(group: FiniteGroup, sub: Subgroup) -> list[tuple[int, int]]:
    """(mask of <U, g>, coset count) per join, sorted: every coset gU of
    N(U)/U, with N(U) brute-force, counted at <U, g> closed from U's
    elements and g. Distinct cyclic subgroups <gU> of N(U)/U give
    distinct joins. U's own mask, a subset of every join's, comes first."""
    counts: dict[int, int] = {}
    covered: set[int] = set()
    for g in normalizer(group, sub).elements:
        if g in covered:
            continue
        covered.update(group.mul_table[g][u] for u in sub.elements)
        mask = generated_subgroup(group, sub.elements + (g,)).mask
        counts[mask] = counts.get(mask, 0) + 1
    return sorted(counts.items())


def closure_walk(lattice: SubgroupLattice, sub: Subgroup) -> tuple[tuple[int, int, int], ...]:
    """U's walk over its brute-force normalizer N(U), from scratch, as
    sorted rows (mask of <U, g>, its class, coset count) (``_closure_joins``)."""
    return tuple(
        (mask, lattice._class_by_mask[mask], count)
        for mask, count in _closure_joins(lattice.group, sub)
    )


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
            cls_idx = class_index_of(lattice, joined)
            counts[cls_idx] = counts.get(cls_idx, 0) + 1
        out.append(
            (cls.class_index, class_index_of(lattice, norm), index, tuple(sorted(counts.items())))
        )
    return tuple(out)


def weyl_congruences(lattice: SubgroupLattice) -> tuple[Congruence, ...]:
    """Dress's characterisation by Weyl groups, one congruence per class.

    x is in the Burnside ring iff, for every class U, sum over gU in
    N(U)/U of x(<g, U>) is 0 mod |N(U) : U|: the congruence of the pair
    (U, N(U)), with v_class the class of N(U), summing the kept walk of
    the class's walked member (``SubgroupLattice.walks``) by class.
    Conjugates give the same row. The index is |G| / (|class| * |U|);
    classes of index 1 give no row. A walk whose coset counts do not sum
    to the index raises RuntimeError. Nothing is cached on the lattice.
    """
    order = lattice.group.order
    rows = []
    for cls, walk in zip(lattice.classes, lattice.walks):
        index = order // (len(cls.members) * cls.order)
        if index == 1:
            continue
        counts: dict[int, int] = {}
        for _, joined_class, count in walk:
            counts[joined_class] = counts.get(joined_class, 0) + count
        if (cosets := sum(counts.values())) != index:
            raise RuntimeError(f"class {cls.class_index}'s walk counts {cosets} of {index} cosets")
        norm_class = lattice._class_by_mask[lattice._normalizers[walk[0][0]].mask]
        rows.append(Congruence(cls.class_index, norm_class, index, tuple(counts.items())))
    return tuple(rows)


def partition_filter_catalog(max_order: int) -> tuple[GroupSpec, ...]:
    """``standard_catalog`` as it was: every partition of n is listed for
    each p^n up to ``max_order``, and shapes of more than two parts are
    dropped above order 32."""
    specs: list[GroupSpec] = []
    if max_order >= 1:
        specs.append(GroupSpec("cyclic", (2, 0)))
    for p in (2, 3, 5):
        n = 1
        while p ** n <= max_order:
            specs.append(GroupSpec("cyclic", (p, n)))
            n += 1
        for n in range(2, 64):
            order = p ** n
            if order > max_order:
                break
            for shape in partitions(n):
                if len(shape) < 2:
                    continue
                if order > 32 and len(shape) > 2:
                    continue
                if all(part == 1 for part in shape):
                    specs.append(GroupSpec("elementary_abelian", (p, n)))
                else:
                    specs.append(GroupSpec("abelian_product", tuple(p ** e for e in shape)))
    for order in (8, 16, 32, 64, 128):
        if order > max_order:
            break
        specs += [GroupSpec("dihedral", (order,)), GroupSpec("quaternion", (order,))]
        if order >= 16:
            specs += [GroupSpec("semidihedral", (order,)), GroupSpec("modular", (order,))]
    for p in (3, 5):
        if p ** 3 <= max_order:
            specs += [GroupSpec("extraspecial_plus", (p,)), GroupSpec("extraspecial_minus", (p,))]
    return tuple(sorted(specs, key=lambda s: (s.order(), s.text())))

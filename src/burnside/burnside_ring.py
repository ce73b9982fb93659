"""Marks, tables of marks, and exact membership tests for the Burnside ring.

A ghost vector assigns one integer to each subgroup conjugacy class.
Two independent routes decide whether it comes from an actual virtual
G-set:

* the Weyl congruences of Dress's characterisation
  (``dress_membership``): one row per class U, summing x over the
  subgroups <g, U> for the cosets gU in N(U)/U, modulo |N(U) : U|, read
  straight off the walk of U over N(U) that the lattice keeps for the
  class (``SubgroupLattice.walks``). The row for U = 1 is the
  Cauchy-Frobenius-Burnside relation, which ``cfb_check`` sums;
* the marks solve: the triangular table of marks is solved for the
  coefficients c, and membership read off from their integrality. Every
  entry of |G| times the inverse table of marks is an integer, so the
  solve runs on y = |G|*c in plain ints, with every division checked to
  be exact; x is a member exactly when |G| divides every y_i.

Both are expected to agree on every input, and with a third route that
the tests keep, the pair congruences (``dress_congruences``): one per
class of pairs U normal in V with prime-power index, summing x over the
subgroups <v, U> for the cosets vU in V/U, modulo |V : U|. On EA(2,6)
they are 92881 records against 2825 Weyl rows. They are ``Congruence``
records, read off the kept walks of the classes' walked members
(``SubgroupLattice.walks``), or for another member U off a walk of U
over V made for the pair and not kept; they are built anew on each call
and not cached. The package exports them and the membership benchmark
builds them, but no command or query reads them. The Artin exponent
(``exponent``) reads the Weyl rows through the same loop as
``dress_membership`` (``_weyl_violations``), with the family
indicator as the vector. ``least_multiplier`` turns sums into the least
multiplier that satisfies them, for the rows and the solve alike.

The table of marks is stored once per lattice as sparse rows, which the
solve reads directly; the dense matrix is only built when asked for (the
``marks`` command). The table is cached on the lattice through
``lattice_cached``, and so are the down-sets (the subgroups inside each
class representative) that it and the pair congruences read; a ghost
vector keeps its own solve y, which ``marks_membership`` and
``minimal_multiplier`` both read. A Weyl-row query caches nothing.

The small tuples that the table keeps are shared, one object per
distinct value in a lattice: each marks entry (j, mark) is made through
one dict per column keyed by the mark. A shared tuple equals the one it
replaces, so every value and order stays. On EA(2,6) the 92881 marks
entries are 2824 tuples. The pair congruences are not kept, so their
terms (class, coset count) are plain tuples, one per term: while they
are built, EA(2,5)'s 5395 records take 1.23 MB instead of the 0.89 MB
that shared terms took (tracemalloc, after a full collection). The
membership benchmark's three lattices, after its set-up (which builds
and drops the pair congruences) and one query answered, keep 1.02 MiB
(tracemalloc, after a full collection; EA(2,5) 0.39 MiB), against
2.18 MiB when the lattice cached the pair records. The pair build reads
each walked member's kept walk as (mask of <v, U>, term) rows, made once
per class and filtered by V's mask, and that made it about 7% faster
(``tools/ab_inproc.py --stages pairs``, median ratios 0.921 and 0.936
over two sets of 20 pairs; Python 3.11.7 on a 2-CPU x86-64 host).

The three queries, ``dress_membership``, ``marks_membership`` and
``minimal_multiplier``, run with the cyclic garbage collector paused
(``lattice._collector_paused``), as the builders do. A random vector
breaks most Weyl rows (at most one per class, 374 on EA(2,5)), and each
broken one is a record the collector tracks, as are the marks solve's
coefficients, so with it on a stream of queries whose answers are kept
starts young collections that free nothing, as the queries make no
reference cycles; the pause makes such a stream about 3% faster (see
``_collector_paused`` for the figures). The caller's young objects move
to the oldest generation with the query's. With no full collection during a stream of
queries, CPython's free lists, which it empties, stay full (about 1 MB
more peak memory in the membership benchmark).

All arithmetic is exact (Python ints, with fractions only to present the
coefficients); nothing here uses floating point.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import partial
from math import gcd, lcm
from operator import attrgetter, index
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .arith import divisors, prime_power
from .groups import Subgroup, subgroup_mask
from .lattice import (
    SubgroupLattice,
    _collector_paused,
    _walk,
    conjugate_mask,
    lattice_cached,
    left_cosets,
)

if TYPE_CHECKING:
    from fractions import Fraction


class GhostVector:
    """One integer per subgroup class, in the lattice's canonical class order.

    Values and scalars are taken through ``operator.index``, so a float or
    a fraction raises TypeError instead of being truncated. The first marks
    solve y of the vector is kept in a private slot, tied to the lattice and
    ``values`` it solved, and read by ``marks_membership`` and
    ``minimal_multiplier``; copies and pickles leave it out.
    """

    __slots__ = ("lattice", "values", "_solved")

    def __init__(self, lattice: SubgroupLattice, values: Iterable[int]) -> None:
        vals = tuple(map(index, values))
        if len(vals) != lattice.class_count:
            raise ValueError(
                f"expected {lattice.class_count} values, got {len(vals)}"
            )
        self.lattice = lattice
        self.values = vals
        self._solved: tuple = ()  # (lattice, values, y) once solved

    def __reduce__(self):
        return GhostVector, (self.lattice, self.values)

    def __mul__(self, n: int) -> "GhostVector":
        if not isinstance(n, int):
            return NotImplemented
        return GhostVector(self.lattice, (n * v for v in self.values))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GhostVector)
            and other.lattice is self.lattice
            and other.values == self.values
        )

    def __hash__(self) -> int:
        return hash((id(self.lattice), self.values))

    def __repr__(self) -> str:
        return f"GhostVector({self.values})"


class TableOfMarks(NamedTuple):
    """The table of marks, kept as its nonzero entries row by row.

    Entry (i, j) is the number of cosets in G/U_j fixed by U_i. It is
    nonzero only when U_i is conjugate into U_j, so under the canonical
    class order an entry survives only when i <= j; row 0 holds the
    indices |G : U_j| and the diagonal holds |N(U_j) : U_j|. ``rows[i]``
    is (diagonal mark, ((j, mark), ...)) with the nonzero marks right of
    the diagonal in ascending j, the form the triangular solve reads; the
    entries of equal j and mark are one tuple. A named tuple: it equals
    the plain tuple (rows,)."""

    rows: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense square matrix, zeros included, built anew on each access."""
        n = len(self.rows)
        dense = []
        for i, (diag, tail) in enumerate(self.rows):
            row = [0] * n
            row[i] = diag
            for j, m in tail:
                row[j] = m
            dense.append(tuple(row))
        return tuple(dense)


class CongruenceViolation(NamedTuple):
    """One failed Dress congruence: the coset sum for (U, V) misses divisibility.

    In the Weyl rows that ``dress_membership`` and the exponent's
    witnesses report, V is N(U) and v_class its class; in a pair
    congruence, V is any subgroup in which U is normal of prime-power
    index. A named tuple: it equals the plain tuple
    (u_class, v_class, index, lhs_sum, residue).
    """

    u_class: int
    v_class: int
    index: int
    lhs_sum: int
    residue: int


class CongruenceCertificate(NamedTuple):
    """Outcome of the full Dress congruence system; holds iff no violations.

    A named tuple: it equals the plain tuple (holds, violations).
    """

    holds: bool
    violations: tuple[CongruenceViolation, ...]


class Congruence(NamedTuple):
    """One pair congruence: sum over cosets vU in V/U of x(class of <v, U>)
    mod (V:U), with U normal in V and V/U of prime-power order.

    ``terms`` aggregates the cosets by the class of the generated
    subgroup, as (class_index, coset_count) pairs. A named tuple: it
    equals the plain tuple (u_class, v_class, index, terms).
    """

    u_class: int
    v_class: int
    index: int
    terms: tuple[tuple[int, int], ...]


@lattice_cached
def _down_sets(lattice: SubgroupLattice) -> tuple[list[Subgroup], ...]:
    """Per class, the subgroups of smaller order inside its representative,
    in ``all_subgroups`` order: one bitmask scan of the order-sorted list
    per class, read by the table of marks and the pair congruences alike."""
    subgroups = lattice.all_subgroups
    sub_orders = [len(sub.elements) for sub in subgroups]
    down = []
    for cls in lattice.classes:
        v_rep = cls.members[0]
        v_mask = v_rep.mask
        below = subgroups[:bisect_left(sub_orders, len(v_rep.elements))]
        down.append([s for s in below if s.mask & v_mask == s.mask])
    return tuple(down)


@lattice_cached
def table_of_marks(lattice: SubgroupLattice) -> TableOfMarks:
    """The table of marks, computed once per lattice and cached.

    Equivalent to coset-by-coset fixed point counting: U_i fixes gV_j iff
    g^-1 U_i g lies in V_j, and each conjugate of U_i is g^-1 U_i g for
    |N(U_i)| = |G| / |class i| elements g, so the mark is the number of
    members of class i inside V_j, read off V_j's down-set (``_down_sets``),
    times |G| / (|class i| |V_j|). The diagonal is |N(V_j) : V_j| =
    |G| / (|class j| |V_j|). Both divisions are asserted exact, and a
    remainder raises RuntimeError. Columns
    are filled in ascending order, so every row's nonzero marks come out
    sorted without a dense row ever existing. A column makes one entry
    (j, mark) per distinct mark, which every row with that mark shares.
    """
    classes = lattice.classes
    order = lattice.group.order
    class_of = lattice._class_by_mask.__getitem__
    mask_of = attrgetter("mask")
    sizes = [len(cls.members) for cls in classes]
    tails: list[list[tuple[int, int]]] = [[] for _ in classes]
    diagonal = []
    for cls, down in zip(lattice.classes, _down_sets(lattice)):
        j, v_order = cls.class_index, len(cls.members[0].elements)
        diag, r = divmod(order, sizes[j] * v_order)
        if r:
            raise RuntimeError(f"inexact diagonal mark of class {j}: remainder {r}")
        diagonal.append(diag)
        column: dict[int, tuple[int, int]] = {}  # mark -> its one entry (j, mark)
        for i, conjugates in Counter(map(class_of, map(mask_of, down))).items():
            mark, r = divmod(conjugates * order, sizes[i] * v_order)
            if r:
                raise RuntimeError(f"inexact mark of class {i} in class {j}: remainder {r}")
            tails[i].append(column.get(mark) or column.setdefault(mark, (j, mark)))
    return TableOfMarks(tuple(zip(diagonal, map(tuple, tails))))


def _check_vector(lattice: SubgroupLattice, x: GhostVector) -> None:
    if x.lattice is not lattice or len(x.values) != lattice.class_count:
        raise ValueError("ghost vector does not match this lattice")


@_collector_paused
def dress_congruences(lattice: SubgroupLattice) -> tuple[Congruence, ...]:
    """All Dress congruences for the lattice, one per conjugacy class of pairs.

    The pair system is the cross-check of the Weyl rows that membership
    queries and the exponent read (``dress_membership``); no command builds
    it, and it is built anew on each call, with the cyclic collector paused,
    and not cached on the lattice. Pairs (U, V) with U normal in V and
    (V : U) a prime power above 1 are enumerated with V running over class
    representatives and U over the smaller subgroups contained in V (V's
    down-set, ``_down_sets``), deduplicated by conjugacy under the
    normalizer of V; simultaneously conjugate pairs yield identical
    congruences. U is normal in V iff V lies in the normalizer N(U) the
    lattice recorded. A U whose class has one member is normal in G, so it
    is normal in V and its own orbit under N(V): it needs neither the test
    nor the sweep of its orbit, and in an abelian group no U does. The
    left-coset representatives of V in N(V), which sweep the orbits of the
    other U, are made when the first of them needs them.

    A pair of prime index p has the terms ((U, 1), (V, p - 1)), with no
    walk read. Kept for speed: with those terms read off the walk, as the
    other pairs' are, the pair congruences took 14% longer to build on
    EA(2,5), C8xC8xC2 and S5, and on ``standard_catalog(128)``
    (``tools/ab_inproc.py --stages pairs``, median ratios 1.142 and
    1.143 over 30 pairs; Python 3.11.7 on a 2-CPU x86-64 host). Any other
    pair's terms are the rows of U's walk over N(U) whose join lies in V,
    summed by class in class order. For the class's walked member that
    walk is the kept one (``SubgroupLattice.walks``), read once into
    (mask of <v, U>, term) rows, kept while the build runs, and a pair
    picks the rows inside V; only a walk in which a class has several
    rows (never in an abelian group) sums the picked counts by class.
    Another member U is walked over V itself (``_walk``), whose rows are
    the same ones, and the walk is dropped with the pair (2 walks on S5,
    none on the catalog to 128). The terms are plain (class, count)
    tuples, shared by no two records: nothing keeps the records, so
    sharing their terms would save no kept memory.
    """
    group = lattice.group
    normal_in_g = [cls.is_normal for cls in lattice.classes]
    class_of = lattice._class_by_mask
    normalizer_of = lattice._normalizers
    record = partial(tuple.__new__, Congruence)
    powers = {d: prime_power(d) for d in divisors(group.order)}
    # U's class -> its walked member's kept walk as (mask of <v, U>, term)
    # rows, and whether a class has several rows, whose counts a pair sums
    term_rows: dict[int, tuple[list[tuple[int, tuple[int, int]]], bool]] = {}
    out: list[Congruence] = []
    for cls, down in zip(lattice.classes, _down_sets(lattice)):
        v_rep = cls.representative
        v_order, v_mask = v_rep.order, v_rep.mask
        conjugators = None
        seen_orbit: set[int] = set()
        for sub in down:
            index = v_order // len(sub.elements)
            u_mask = sub.mask
            if powers[index] is None or u_mask in seen_orbit:
                continue
            u_class = class_of[u_mask]
            if not normal_in_g[u_class]:
                if normalizer_of[u_mask].mask & v_mask != v_mask:
                    continue
                # g and gv conjugate a subgroup normal in V alike, so one g
                # per left coset of V in N(V) sweeps each orbit
                if conjugators is None:
                    cosets = left_cosets(group, normalizer_of[v_mask].elements, v_rep.elements)
                    conjugators = [g for g, _ in cosets]
                for g in conjugators:
                    seen_orbit.add(conjugate_mask(group, sub.elements, g))
            if powers[index][1] == 1:
                pair_terms = ((u_class, 1), (cls.class_index, index - 1))
            else:
                if lattice.walks[u_class][0][0] != u_mask:  # not the walked member
                    walked = _walk(group, sub.elements, v_rep.elements)  # U over V
                    picked = sorted((class_of[subgroup_mask(j)], k) for j, k, _ in walked)
                    repeats = True
                else:
                    if u_class not in term_rows:
                        walk = lattice.walks[u_class]
                        repeats = len({c for _, c, _ in walk}) < len(walk)
                        term_rows[u_class] = [(j, (c, k)) for j, c, k in walk], repeats
                    rows, repeats = term_rows[u_class]
                    picked = [t for joined, t in rows if joined & v_mask == joined]
                if repeats:
                    counts: dict[int, int] = {}
                    for c, k in picked:
                        counts[c] = counts.get(c, 0) + k
                    picked = counts.items()
                pair_terms = tuple(picked)
            # tuple.__new__ skips the Python-level Congruence.__new__: built
            # with Congruence(...), the records took 1.04-1.06x as long
            out.append(record((u_class, cls.class_index, index, pair_terms)))
    return tuple(out)


def least_multiplier(pairs: Iterable[tuple[int, int]]) -> int:
    """Least n >= 1 with q dividing n*s for every pair (s, q): the lcm of
    the quotients q / gcd(s, q). Over the violation rows of x (s the sum,
    q the index) it is the least n whose n*x satisfies those congruences;
    over the pairs (y_i, |G|) of the marks solve, the least n making every
    coefficient n*y_i/|G| integral."""
    return lcm(*(q // gcd(s, q) for s, q in pairs))


def _weyl_violations(
    lattice: SubgroupLattice, values: Sequence[int]
) -> list[CongruenceViolation]:
    """The Weyl rows that the values violate, in class order: for each
    class U, the sum of count * x(class of <v, U>) over the rows of the
    kept walk of U over N(U) (``SubgroupLattice.walks``), modulo the index
    |N(U) : U| = |G| / (|class| * |U|), as a ``CongruenceViolation`` with
    v_class the class of N(U) when the residue is nonzero. A walk whose
    coset counts do not sum to the index raises RuntimeError."""
    order = lattice.group.order
    violations = []
    for cls, walk in zip(lattice.classes, lattice.walks):
        index = order // (len(cls.members) * cls.order)
        total = cosets = 0
        for _, c, count in walk:
            cosets += count
            total += count * values[c]
        if cosets != index:
            raise RuntimeError(f"class {cls.class_index}'s walk counts {cosets} of {index} cosets")
        if residue := total % index:
            v_class = lattice._class_by_mask[lattice.normalizer(cls.representative).mask]
            violations.append(CongruenceViolation(cls.class_index, v_class, index, total, residue))
    return violations


@_collector_paused
def dress_membership(lattice: SubgroupLattice, x: GhostVector) -> CongruenceCertificate:
    """Decide membership by Dress's Weyl congruences, one per class U.

    The certificate lists every violated Weyl row (``_weyl_violations``)
    in class order, each with its sum and nonzero residue = sum % index;
    it holds exactly when the list is empty.
    """
    _check_vector(lattice, x)
    violations = tuple(_weyl_violations(lattice, x.values))
    return CongruenceCertificate(holds=not violations, violations=violations)


def _scaled_solve(lattice: SubgroupLattice, x: GhostVector) -> tuple[int, ...]:
    """The integer vector y = |G|*c with marks * c = x, by back-substitution.

    Each step divides by a diagonal mark; the quotient is an integer
    because |G| times the inverse table of marks is integral, and a
    nonzero remainder raises instead of being assumed away. The result is
    kept on x, and read back while x keeps the lattice and values it solved.
    """
    values = x.values
    if (kept := x._solved) and kept[0] is lattice and kept[1] is values:
        return kept[2]
    rows = table_of_marks(lattice).rows
    order = lattice.group.order
    y = [0] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        diag, tail = rows[i]
        acc = order * values[i]
        for j, m in tail:
            acc -= m * y[j]
        q, r = divmod(acc, diag)
        if r:
            raise RuntimeError(
                f"inexact division by the mark {diag} of class {i}: remainder {r}"
            )
        y[i] = q
    x._solved = kept = (lattice, values, tuple(y))
    return kept[2]


@_collector_paused
def marks_membership(
    lattice: SubgroupLattice, x: GhostVector
) -> tuple[bool, tuple[Fraction, ...]]:
    """Decide membership by the integer triangular solve of marks * c = x.

    Returns (is_member, coefficients); the vector is a member exactly
    when every coefficient is an integer, that is when |G| divides every
    entry of y = |G|*c. The matrix is always invertible because the
    diagonal is positive. The solve y is the one kept on x, shared with
    ``minimal_multiplier``.
    """
    # imported here: fractions loads decimal, which no other command needs
    from fractions import Fraction

    _check_vector(lattice, x)
    y = _scaled_solve(lattice, x)
    order = lattice.group.order
    # a Fraction costs a gcd: build one per distinct value of y
    coefficient = {v: Fraction(v, order) for v in set(y)}
    return (
        all(v % order == 0 for v in coefficient),
        tuple(map(coefficient.__getitem__, y)),
    )


def cfb_check(lattice: SubgroupLattice, x: GhostVector) -> bool:
    """Cauchy-Frobenius-Burnside relation: the sum of x(<g>) over all group
    elements g must vanish mod |G|. It sums the walk of U = 1 alone.
    Necessary for membership, not sufficient."""
    _check_vector(lattice, x)
    return sum(count * x.values[c] for _, c, count in lattice.walks[0]) % lattice.group.order == 0


@_collector_paused
def minimal_multiplier(lattice: SubgroupLattice, x: GhostVector) -> int:
    """Least n >= 1 with n*x in the Burnside ring, read off the pairs
    (y_i, |G|) of the integer marks solve by ``least_multiplier``, one
    pair per distinct y_i. The solve y is the one kept on x, shared with
    ``marks_membership``. Rejects the zero vector.
    """
    _check_vector(lattice, x)
    if not any(x.values):
        raise ValueError("minimal multiplier of the zero vector is not defined")
    order = lattice.group.order
    return least_multiplier((y, order) for y in set(_scaled_solve(lattice, x)))

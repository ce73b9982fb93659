"""Marks, tables of marks, and exact membership tests for the Burnside ring.

A ghost vector assigns one integer to each subgroup conjugacy class.
Two independent routes decide whether it comes from an actual virtual
G-set:

* the pair congruences (``dress_congruences``): one per class of pairs
  U normal in V with prime-power index, summing x over the subgroups
  <v, U> for the cosets vU in V/U, modulo |V : U|; a U normal in G needs
  no normality test and no orbit sweep, the same in every group;
* the marks solve: the triangular table of marks is solved for the
  coefficients c, and membership read off from their integrality. Every
  entry of |G| times the inverse table of marks is an integer, so the
  solve runs on y = |G|*c in plain ints, with every division checked to
  be exact; x is a member exactly when |G| divides every y_i.

Both are expected to agree on every input, and with a third route that
the tests keep, the Weyl congruences of Dress's characterisation (one
per class U, over N(U)/U, modulo |N(U) : U|; the row for U = 1 is the
Cauchy-Frobenius-Burnside relation, which ``cfb_check`` sums). The
Artin exponent (``exponent``) sums the Weyl rows of the family classes
straight off the walks; the marks solve serves the ``marks`` and
``member`` commands. The pair congruences are ``Congruence`` records,
read off the walks of subgroups U over N(U) that the lattice keeps
(``SubgroupLattice.walk``: enumeration walked one member of every class,
and any other member is walked on demand); ``least_multiplier`` turns
sums into the least multiplier that satisfies them, for the congruences
and the solve alike. ``dress_membership``, which membership queries
repeat, reads the pair congruences through a plan of positions
(``_dress_plan``): the values are extended once by their multiples by
each coset count above 1, so that every term is one list read, with no
pair to unpack and no multiply. The plan is made on the first query
that reads it, not with the records, so a lattice never queried holds
none: for the 5395 pair congruences of EA(2,5) it takes about 3 ms
(Python 3.11 on x86-64), one and a half passes of the record loop it
replaces, and 0.8 MB.

The table of marks is stored once per lattice as sparse rows, which the
solve reads directly; the dense matrix is only built when asked for (the
``marks`` command). The table and the pair congruences are cached on the
lattice through ``lattice_cached``, and so are the pair plan and the
down-sets (the subgroups inside each class representative) that the
table and the pair congruences both read; a ghost vector keeps its own
solve y, which ``marks_membership`` and ``minimal_multiplier`` both read.

The three queries, ``dress_membership``, ``marks_membership`` and
``minimal_multiplier``, run with the cyclic garbage collector paused
(``lattice._collector_paused``), as the builders do. A random vector
breaks most pair congruences (about 3600 of EA(2,5)'s 5395), and each
broken one is a record the collector tracks, so with it on a stream of
queries whose answers are kept starts nearly one young collection per
query and a full one about every 200, each freeing nothing, as the
queries make no reference cycles. The pause costs about 0.1 us per call,
and the caller's young objects move to the oldest generation with the
query's. With no full collection during a stream of queries, CPython's
free lists, which it empties, stay full (about 1 MB more peak memory in
the membership benchmark).

All arithmetic is exact (Python ints, with fractions only to present the
coefficients); nothing here uses floating point.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import partial
from math import gcd, lcm
from operator import attrgetter, index
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .arith import divisors, prime_power
from .groups import Subgroup
from .lattice import (
    SubgroupLattice,
    _collector_paused,
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
    the diagonal in ascending j, the form the triangular solve reads. A
    named tuple: it equals the plain tuple (rows,)."""

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

    A named tuple: it equals the plain tuple
    (u_class, v_class, index, lhs_sum, residue).
    """

    u_class: int
    v_class: int
    index: int
    lhs_sum: int
    residue: int


# builds a violation from a plain 5-tuple without a Python-level call
_violation_from_row = partial(tuple.__new__, CongruenceViolation)


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
    times |G| / (|class i| |V_j|). That division is asserted exact, and a
    remainder raises RuntimeError. The diagonal is |N(V_j) : V_j|. Columns
    are filled in ascending order, so every row's nonzero marks come out
    sorted without a dense row ever existing.
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
        diagonal.append(order // (sizes[j] * v_order))
        for i, conjugates in Counter(map(class_of, map(mask_of, down))).items():
            mark, r = divmod(conjugates * order, sizes[i] * v_order)
            if r:
                raise RuntimeError(f"inexact mark of class {i} in class {j}: remainder {r}")
            tails[i].append((j, mark))
    return TableOfMarks(tuple(zip(diagonal, map(tuple, tails))))


def _check_vector(lattice: SubgroupLattice, x: GhostVector) -> None:
    if x.lattice is not lattice or len(x.values) != lattice.class_count:
        raise ValueError("ghost vector does not match this lattice")


@lattice_cached
def dress_congruences(lattice: SubgroupLattice) -> tuple[Congruence, ...]:
    """All Dress congruences for the lattice, one per conjugacy class of pairs.

    Pairs (U, V) with U normal in V and (V : U) a prime power above 1 are
    enumerated with V running over class representatives and U over the
    smaller subgroups contained in V (V's down-set, ``_down_sets``),
    deduplicated by conjugacy under the normalizer of V;
    simultaneously conjugate pairs yield identical congruences. U is
    normal in V iff V lies in the normalizer N(U) the lattice recorded. A
    U whose class has one member is normal in G, so it is normal in V and
    its own orbit under N(V): it needs neither the test nor the sweep of
    its orbit, and in an abelian group no U does. The left-coset
    representatives of V in N(V), which sweep the orbits of the other U,
    are made when the first of them needs them.

    A pair of prime index p has the terms ((U, 1), (V, p - 1)), with no
    walk read. Kept for speed: with those terms read off the walk, as the
    other pairs' are, the pair congruences took 14% longer to build on
    EA(2,5), C8xC8xC2 and S5, and on ``standard_catalog(128)``
    (``tools/ab_inproc.py --stages pairs``, median ratios 1.142 and
    1.143 over 30 pairs; Python 3.11.7 on a 2-CPU x86-64 host). Any other
    pair's terms are the rows of U's walk over N(U)
    (``SubgroupLattice.walk``) whose join lies in V, summed by class in
    the walk's class order.
    """
    group = lattice.group
    normal_in_g = [cls.is_normal for cls in lattice.classes]
    class_of = lattice._class_by_mask
    normalizer_of = lattice._normalizers
    record = partial(tuple.__new__, Congruence)
    powers = {d: prime_power(d) for d in divisors(group.order)}
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
                terms = ((u_class, 1), (cls.class_index, index - 1))
            else:
                counts: dict[int, int] = {}
                for joined, joined_class, count in lattice.walk(sub):
                    if joined & v_mask == joined:
                        counts[joined_class] = counts.get(joined_class, 0) + count
                terms = tuple(counts.items())
            # made in the order the membership loop reads them, adjacent in memory
            out.append(record((u_class, cls.class_index, index, terms)))
    return tuple(out)


@lattice_cached
def _dress_plan(lattice: SubgroupLattice) -> tuple:
    """The pair congruences as ``dress_membership`` sums them, made on first
    use: (scales, rows), the coset counts above 1 in the order first met,
    and per congruence (u_class, v_class, index, positions). The positions
    index the n values followed by one copy of them times each scale: term
    (c, k) reads c when k = 1, else n * (s + 1) + c for k = scales[s].
    A count-1 term keeps its class index c, an int the lattice already
    holds: read as c + 0, a new int for each c above 256, the plan of
    EA(2,5) took 137 KB more (tracemalloc) and membership-batch peak RSS
    rose 0.14 MB, in 9 of 10 pairs. Each row is built as a list and then
    made a tuple of its exact size; from a generator, C8xC8xC2's plan
    took 226 KB against 171 KB."""
    n = lattice.class_count
    offsets = {1: 0}
    rows = []
    for u_class, v_class, index, terms in dress_congruences(lattice):
        positions = tuple([
            c if k == 1 else offsets.setdefault(k, n * len(offsets)) + c for c, k in terms
        ])
        rows.append((u_class, v_class, index, positions))
    return tuple(offsets)[1:], tuple(rows)


def least_multiplier(pairs: Iterable[tuple[int, int]]) -> int:
    """Least n >= 1 with q dividing n*s for every pair (s, q): the lcm of
    the quotients q / gcd(s, q). Over the violation rows of x (s the sum,
    q the index) it is the least n whose n*x satisfies those congruences;
    over the pairs (y_i, |G|) of the marks solve, the least n making every
    coefficient n*y_i/|G| integral."""
    return lcm(*(q // gcd(s, q) for s, q in pairs))


@_collector_paused
def dress_membership(lattice: SubgroupLattice, x: GhostVector) -> CongruenceCertificate:
    """Decide membership by checking every Dress congruence.

    The certificate lists every violated congruence in the deterministic
    enumeration order, each with its sum and nonzero residue = sum % index;
    it holds exactly when the list is empty. The congruences are read
    through their plan (``_dress_plan``): the values are extended once by
    their multiples by each scale, and each term is one list read.
    """
    _check_vector(lattice, x)
    scales, rows = _dress_plan(lattice)
    values = x.values
    extended = list(values)
    for k in scales:
        extended += map(k.__mul__, values)
    violations = []
    append = violations.append
    for u_class, v_class, index, positions in rows:
        total = 0
        for at in positions:
            total += extended[at]
        residue = total % index
        if residue:
            append(_violation_from_row((u_class, v_class, index, total, residue)))
    return CongruenceCertificate(holds=not violations, violations=tuple(violations))


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
    rows = lattice.walk(lattice.classes[0].representative)
    return sum(count * x.values[cls] for _, cls, count in rows) % lattice.group.order == 0


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

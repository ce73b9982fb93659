"""Full subgroup lattices: enumeration, conjugacy classes, and family selection.

The class order is canonical so that everything indexed by it (ghost
vectors, tables of marks) is byte-stable across runs: ascending subgroup
order, ties broken by descending class size, then by the representative's
sorted element list. Class 0 is the trivial subgroup and the last class
is the whole group.

Enumeration joins one member H of each conjugacy class; the orbit pass
that first finds a class registers every other member, conjugates are
never joined. A normal H, found by conjugating its generators, skips the
orbit pass. The orbit pass also yields N(H), and H is joined with the
elements of N(H) by walking it (``_walk``): one row per cyclic subgroup
of N(H)/H, each the union of the cosets v^k H, with no closure. Only the
double cosets HgH outside N(H) are joined by closure (``_coset_join``),
and in a group whose order makes it solvable not even those. The walks
are the lattice's cyclic data: kept as plain rows in class order on the
lattice, they give the pair congruences their terms and the Artin
exponent its Weyl rows, and a conjugate that was not walked is walked on
demand. The trivial subgroup's walk also counts, for each cyclic U, the
phi(|U|) elements that generate it, so no totient is computed. Each
subgroup is one ``Subgroup``, built once with its bitmask when its class
is found and shared by the classes and the lattice; every member's
normalizer is a reference to the lattice's own ``Subgroup``.

Enumeration, every builder of the lattice's derived data
(``lattice_cached``) and the three membership queries of
``burnside_ring`` run with CPython's cyclic garbage collector paused
(``_collector_paused``). The builders allocate tens of thousands of
long-lived objects, and a query one record per broken congruence; none
makes a reference cycle, so the collector's passes over them would free
nothing. Reference counting frees all they drop, and what they keep (and
the caller's young objects with it) goes to the oldest generation
unscanned; the pause costs about 0.1 us per call.
"""

from __future__ import annotations

import gc
from enum import Enum
from functools import wraps
from itertools import filterfalse
from math import gcd
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from .arith import factorize, prime_power
from .groups import (  # DEFAULT_ENUMERATION_CAP is re-exported
    DEFAULT_ENUMERATION_CAP,
    IDENTITY,
    FiniteGroup,
    Subgroup,
    check_enumeration_cap,
    entries_at,
    subgroup_mask,
)

T = TypeVar("T")


class SubgroupFamily(Enum):
    """Conjugation-invariant families of subgroups used for indicator vectors."""

    ELEMENTARY_ABELIAN = "ea"
    CYCLIC = "cyclic"
    ALL = "all"


class SubgroupClass(NamedTuple):
    """One conjugacy class of subgroups, its members sorted by elements and
    the first the representative. A named tuple: it equals the plain tuple
    (class_index, members, is_cyclic, is_elementary_abelian)."""

    class_index: int
    members: tuple[Subgroup, ...]
    is_cyclic: bool
    is_elementary_abelian: bool

    @property
    def representative(self) -> Subgroup:
        return self.members[0]

    @property
    def order(self) -> int:
        return self.members[0].order

    @property
    def is_normal(self) -> bool:
        return len(self.members) == 1


# a walk is its rows, a row (mask of <v, U>, its class, coset count)
Row = tuple[int, int, int]
Walk = tuple[Row, ...]


class SubgroupLattice:
    """All subgroups of a group, partitioned into conjugacy classes.

    ``all_subgroups`` holds the classes' Subgroup objects, sorted by order
    and then elements; a subgroup's bitmask finds its class, and its
    normalizer, through one dict lookup each. ``normalizers`` maps every
    subgroup's mask to its normalizer, one of the classes' own Subgroup
    objects.

    ``walks`` maps the mask of a subgroup U to its walk over N(U): one row
    (mask of <v, U>, class of <v, U>, coset count) per cyclic subgroup
    <vU> of N(U)/U, the count being the cosets that generate it, in class
    order with U itself first (rows of one class stay in walk order). The
    rows of prime index over U are covers of U in the lattice, and in a
    p-group, where every maximal subgroup is normal of index p, they are
    all of its covers. The constructor takes a dict of walks as (mask,
    count) rows, resolves and sorts them in place and keeps the dict;
    ``walk`` reads one, walking a subgroup whose walk is not kept yet.
    Data derived from the whole lattice (the table of marks, the pair
    congruences, the down-sets both share, the plan that sums the pair
    congruences) is built on first use and kept in one cache, filled only
    through ``lattice_cached``. Nothing the lattice keeps refers back to it, so
    reference counting frees it.
    """

    __slots__ = (
        "group",
        "all_subgroups",
        "classes",
        "walks",
        "_class_by_mask",
        "_normalizers",
        "_derived",
        "__weakref__",
    )

    def __init__(
        self,
        group: FiniteGroup,
        classes: tuple[SubgroupClass, ...],
        normalizers: dict[int, Subgroup],
        walks: dict[int, Iterable[tuple[int, int]]],
    ) -> None:
        self.group = group
        self.classes = classes
        subs = [m for cls in classes for m in cls.members]
        self.all_subgroups = tuple(sorted(subs, key=lambda s: (len(s.elements), s.elements)))
        self._class_by_mask = {m.mask: c.class_index for c in classes for m in c.members}
        self._normalizers = normalizers
        # resolved in place, so each raw walk is dropped once it is resolved
        for u_mask, rows in walks.items():
            walks[u_mask] = self._resolved(rows)
        self.walks: dict[int, Walk] = walks
        self._derived: dict[Callable, object] = {}

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def normalizer(self, sub: Subgroup) -> Subgroup:
        """N(U), the largest subgroup in which U is normal, as recorded when
        the lattice was built: one of the lattice's own Subgroup objects."""
        try:
            return self._normalizers[sub.mask]
        except KeyError:
            raise ValueError("subgroup does not belong to this lattice") from None

    def walk(self, sub: Subgroup) -> Walk:
        """U's walk over N(U) (see ``walks``): the kept one, else walked now
        and kept, as for a conjugate of the member that enumeration joined."""
        try:
            return self.walks[sub.mask]
        except KeyError:
            pass
        rows = _walk(self.group, sub.elements, self.normalizer(sub).elements)
        walk = self.walks[sub.mask] = self._resolved(
            [(subgroup_mask(j), count) for j, count, _ in rows]
        )
        return walk

    def _resolved(self, rows: Iterable[tuple[int, int]]) -> Walk:
        """Walk rows given as (mask of <v, U>, coset count), with the class of
        <v, U> put in between, sorted by class. The sort is stable, and U's
        class is the least in its walk, so U stays first."""
        class_of = self._class_by_mask
        walk = [(j, class_of[j], count) for j, count in rows]
        walk.sort(key=itemgetter(1))
        return tuple(walk)

    def __repr__(self) -> str:
        return (
            f"SubgroupLattice({self.group.name!r}, subgroups={len(self.all_subgroups)}, "
            f"classes={self.class_count})"
        )


def _collector_paused(build: Callable[..., T]) -> Callable[..., T]:
    """Run a bulk builder or a membership query with CPython's cyclic
    garbage collector paused.

    The builders allocate tens of thousands of long-lived tuples, sets and
    records, and a query one record per broken congruence (about 3600 of
    the 5395 pair congruences of EA(2,5) on a random vector). Every few
    hundred allocations the collector would rescan them, and about every
    200 queries whose answers are kept it would rescan all the lattices
    hold, freeing nothing. That is safe to skip: the package makes no
    reference cycles (``tests/test_kernels.py`` builds and drops the whole
    pipeline with the collector off and asserts that ``gc.collect()``
    finds nothing), so reference counting alone frees what a build or a
    query drops.
    The collector is switched off only if it was on at entry, and back on
    in a ``finally``; a nested build, or a caller that switched it off,
    leaves the state alone.

    A paused collector still counts allocations, so the first allocation
    after a build would start a young-generation pass over everything the
    build kept, which frees nothing either. Before switching the collector
    back on, ``gc.freeze()`` then ``gc.unfreeze()`` move every tracked
    object to the oldest generation unscanned and reset that count. The
    caller's young objects move too, so a cycle among them is freed by
    the next full collection rather than a young one; and as a full
    collection also empties CPython's free lists, those stay full through
    a run of queries (about 1 MB of peak memory in the membership
    benchmark). When the caller has
    frozen objects (``gc.get_freeze_count()``) the move is skipped, as
    ``gc.unfreeze()`` would release them. A call costs about 0.1 us more
    than the function it wraps (Python 3.11 on x86-64), so about 0.35 us
    per query of the three routes, which take about 1 ms together.

    The state is per interpreter, not per thread: if another thread calls
    ``gc.disable()`` while a build runs, the build's exit switches the
    collector back on, and a ``gc.freeze()`` from another thread between
    the build's two calls is undone.
    """

    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()

    return paused


def lattice_cached(
    build: Callable[[SubgroupLattice], T]
) -> Callable[[SubgroupLattice], T]:
    """Make a function of a lattice alone compute once per lattice: its
    value is kept in the lattice's cache, keyed by the decorated function,
    the one its module exports, so a lattice with a filled cache pickles.
    The value is built with the cyclic collector paused
    (``_collector_paused``); a cache hit does not touch the collector."""
    build = _collector_paused(build)

    @wraps(build)
    def get(lattice: SubgroupLattice) -> T:
        value = lattice._derived.get(get, get)  # get itself marks a miss
        if value is get:
            value = lattice._derived[get] = build(lattice)
        return value

    return get


def conjugate_mask(group: FiniteGroup, elements: Iterable[int], g: int) -> int:
    """Bitmask of g*U*g^-1 for the subgroup U with the given elements."""
    table = group.mul_table
    grow = table[g]
    gi = group.inv_table[g]
    return subgroup_mask([table[grow[u]][gi] for u in elements])


def _coset_join(
    columns: Sequence[Sequence[int]],
    rows: Sequence[Sequence[int]],
    elements: Sequence[int],
    gens: tuple[int, ...],
) -> frozenset[int]:
    """The element set of <H, gens> for a subgroup H given by its elements.

    Dimino's coset-wise closure: the join is a union of right cosets Hx,
    and right multiplication by the generators permutes those cosets, so
    it suffices to add each newly reached coset whole and follow every
    coset representative times every generator. ``gens`` must generate
    the join together with H, and should include a generating set of H.
    ``columns`` is the transposed multiplication table.
    """
    right_coset = entries_at(elements)
    seen = set(elements)
    reps = [0]
    for r in reps:
        row = rows[r]
        for s in gens:
            y = row[s]
            if y not in seen:
                reps.append(y)
                seen.update(right_coset(columns[y]))
    return frozenset(seen)


def _walk(
    group: FiniteGroup, elements: Sequence[int], within: Iterable[int]
) -> list[tuple[frozenset[int], int, int]]:
    """The walk of U, given by its elements, over a subgroup N in which it
    is normal, given by its elements in ascending order.

    One row (elements of <v, U>, coset count, v) per cyclic subgroup <vU>
    of N/U, U itself first with v the identity. No join is closed from
    generators: <v, U> is the union of the cosets v^k U up to the first
    power v^m inside U, and the phi(m) cosets v^k U with k prime to m all
    generate it, so they are counted in one row and never walked again.

    A v of order 2 over U (v^2 in U) has the one coset vU for its row,
    added with no list of powers. Kept for speed: with such a v sent
    through the general path, enumerating ``standard_catalog(128)`` took
    6.6% longer (``tools/ab_inproc.py --stages enumerate``, median ratio
    over 30 pairs, slower in 25; Python 3.11.7 on a 2-CPU x86-64 host).
    """
    table = group.mul_table
    powers = group.powers
    coset_of = entries_at(elements)  # row x of the table -> xU
    u_set = frozenset(elements)
    rows = [(u_set, 1, IDENTITY)]
    covered = set(elements)
    for v in filterfalse(covered.__contains__, within):
        # vU has order m, the least m >= 1 with v^m in U
        cycle = powers[v]
        m = 2  # v is not in U
        while cycle[m % len(cycle)] not in u_set:
            m += 1
        if m == 2:  # vU alone generates <vU>: one coset, counted once
            coset = coset_of(table[v])
            covered.update(coset)
            rows.append((u_set.union(coset), 1, v))
            continue
        cosets = [coset_of(table[p]) for p in cycle[1:m]]
        count = 0
        for e, coset in enumerate(cosets, 1):
            if gcd(e, m) == 1:
                count += 1
                covered.update(coset)
        rows.append((u_set.union(*cosets), count, v))
    return rows


@_collector_paused
def enumerate_subgroups(
    group: FiniteGroup, *, cap: int | None = None
) -> SubgroupLattice:
    """Enumerate every subgroup of the group and classify up to conjugacy.

    Layered construction: starting from the trivial subgroup, each new
    subgroup H is joined with every element g, until nothing new appears.
    Every subgroup is the join of its own cyclic subgroups, so the layers
    exhaust the lattice. Only one member of each conjugacy class is
    joined: when a join first finds H, the orbit pass registers every
    conjugate gHg^-1 as found, and only H joins further. That loses no
    class, since if K = <H, c> and R = xHx^-1 is the member of H's class
    that joins, then xKx^-1 = <R, xcx^-1>. The orbit pass also gives
    N(H), the set of elements fixing H under conjugation. It is skipped
    when H is normal (its orbit is {H} and N(H) = G): always when the
    group is abelian, and else when s h s^-1 is in H for every h in the
    generators H was found from and every s in one generator of each
    cyclic subgroup (read off the trivial subgroup's walk, below), which
    together generate G. Kept for speed: with every H sent through the
    orbit pass, enumerating ``standard_catalog(128)`` took 5.9% longer
    (``tools/ab_inproc.py --stages enumerate``, median ratio over 30
    pairs, slower in 23; Python 3.11.7 on a 2-CPU x86-64 host).

    The joins with g in N(H) are read off H's walk over N(H) (``_walk``),
    with no closure: <H, g> is the preimage of the cyclic subgroup <gH> of
    N(H)/H, and the walk gives one row per such subgroup. The trivial
    subgroup joins first, and its walk over G yields the cyclic subgroups,
    one generator each. For g outside N(H), <H, g> = <H, c> for the walked
    generator c of <g>, which is outside N(H) too, and <H, c> = <H, hch'>
    for all h, h' in H; N(H) is a union of double cosets HgH, so one
    candidate per double coset outside N(H) is tried, replaced by an
    element y of largest order in Hc. That join is built coset-wise (see
    ``_coset_join``) from the elements of H or of <y>, whichever is
    larger. A normal H (N(H) = G) has no such double coset, and a
    solvable group tries none: there every K != 1 is solvable, so K/K' is
    a nontrivial abelian group and K has a normal subgroup H of prime
    index p; for the member R = xHx^-1 that joins, xKx^-1 <= N(R) is
    <R, v> for any v in xKx^-1 outside R, a row of R's walk, so by
    induction on |K| the walks alone find every class. Solvability is
    read off the order alone: an odd order (Feit-Thompson) or one with at
    most two prime factors (Burnside's p^a q^b theorem). A solvable group
    of another order, such as S4 x C5, still joins. Kept for speed:
    with the double cosets tried in every group, enumeration took 8.7%
    longer on ``standard_catalog(128)`` (slower in 26 of 30 pairs) and
    11.5% on D(8)xC3xQ(8), Q(8)xQ(8)xC2, D(8)xC3 and D(128) (29 of 30),
    measured as above. The dedupe key of
    the joins is the element set, kept only while the enumeration runs.
    Each joining member's walk is kept on the lattice
    (``SubgroupLattice.walks``), so every class has a walked member. N(H)
    may be found after H, so every member's normalizer is looked up once
    the joins are done. Groups larger than the cap are rejected. A found
    set whose size does not divide |G| (Lagrange) raises RuntimeError, and
    so do cyclic classes whose generators, |class|*phi(|U|) summed, are
    not the |G| elements, each generating exactly one cyclic subgroup:
    only a table that skipped the public checks breaks either. phi(|U|)
    is the count of U's row in the trivial subgroup's walk, the elements
    of U that generate it.
    """
    check_enumeration_cap(group.order, cap)
    order = group.order
    table = group.mul_table
    abelian = group.is_abelian()
    columns = group.columns  # the transposed table
    inv = group.inv_table
    powers = group.powers
    element_order = [len(p) for p in powers]
    exponent = max(element_order)  # the largest element order
    everything = range(order)
    # element set -> the subgroup, for every subgroup found
    found: dict[frozenset[int], Subgroup] = {}
    # per class: the member H that joins, {gHg^-1: the first such g},
    # N(H)'s elements in ascending order, and generators of H
    orbits: list[
        tuple[frozenset[int], dict[frozenset[int], int], Sequence[int], tuple[int, ...]]
    ] = []

    def find_class(fs: frozenset[int], gens: tuple[int, ...]) -> Subgroup:
        """Register H and every conjugate gHg^-1 as found; queue H to join."""
        if order % len(fs):  # Lagrange, asserted: one modulo per class
            raise RuntimeError(
                f"a subgroup of order {len(fs)} does not divide {order}: not a group"
            )
        sub = found[fs] = Subgroup._of(fs)
        orbit = {fs: 0}
        fixing: Sequence[int] = everything  # N(H) = G when H is normal
        # H is normal iff s h s^-1 is in H for s and h in generating sets
        # of G and H; the candidates generate G (none yet for H = 1)
        if not abelian and not all(
            fs.issuperset(map(conj, map(row, gens))) for row, conj in conjugators
        ):
            # gHg^-1 depends only on the left coset gH, and the cosets
            # that fix H make up N(H)
            fixing = []
            for g, coset in left_cosets(group, everything, sub.elements):
                # gHg^-1 is the left coset gH times g^-1
                conj = frozenset(map(columns[inv[g]].__getitem__, coset))
                if conj not in orbit:
                    orbit[conj] = g
                    found[conj] = Subgroup._of(conj)
                if conj == fs:
                    fixing.extend(coset)
            fixing.sort()
        orbits.append((fs, orbit, fixing, gens))
        return sub

    candidates: list[int] = []  # one generator of each cyclic subgroup but 1
    # (row s, column s^-1) of each candidate s: x -> sx and x -> x s^-1
    conjugators: list[tuple[Callable[[int], int], Callable[[int], int]]] = []
    # in a solvable group the walks alone find every class (see the
    # docstring); an odd order (Feit-Thompson) or one with at most two
    # prime factors (Burnside's p^a q^b theorem) makes the group solvable
    solvable = order % 2 == 1 or len(factorize(order)) <= 2
    find_class(frozenset((IDENTITY,)), ())
    # joining member's mask -> its walk, as (mask of <v, H>, coset count)
    walks: dict[int, list[tuple[int, int]]] = {}
    for fs, _, within, gens in orbits:  # grows as the joins find classes
        sub = found[fs]
        rows = _walk(group, sub.elements, within)
        if not gens:  # H = 1, walked over G: one row per cyclic subgroup
            candidates = [v for _, _, v in rows[1:]]
            conjugators = [
                (table[s].__getitem__, columns[inv[s]].__getitem__) for s in candidates
            ]
        walk = walks[sub.mask] = []
        for joined, count, v in rows:
            known = found.get(joined)
            if known is None:
                known = find_class(joined, gens + (v,))
            walk.append((known.mask, count))
        if solvable or len(within) == order:
            continue
        elements = sub.elements
        left_coset = entries_at(elements)
        # N(H), then every double coset HgH already joined
        done = set(within)
        for g in candidates:
            if g in done:
                continue
            # mark HgH, the union of the left cosets xH over x in Hg
            right = left_coset(columns[g])
            for x in right:
                if x not in done:
                    done.update(left_coset(table[x]))
            # <H, y> = <H, g> for every y in Hg; a y of larger order
            # leaves fewer cosets to add to H, or to <y> when larger
            y = g
            if element_order[g] < exponent:
                y = max(right, key=element_order.__getitem__)
            base = max(elements, powers[y], key=len)
            joined = _coset_join(columns, table, base, gens + (y,))
            if joined not in found:
                find_class(joined, gens + (y,))

    # the trivial subgroup's walk has one row per cyclic subgroup U, whose
    # count is phi(|U|), the elements generating U
    phi = dict(walks[1])
    # N(H) may be found after H; the first g giving each member gHg^-1
    # gives its normalizer g N(H) g^-1
    normalizers: dict[int, Subgroup] = {}
    staged = []
    # each element generates exactly one cyclic subgroup U, as one of its
    # phi(|U|) generators, so these sum to |G| over the cyclic classes
    generators = 0
    whole = found[frozenset(everything)]
    for fs, orbit, fixing, _ in orbits:
        norm = whole if len(fixing) == order else found[frozenset(fixing)]
        for conj, g in orbit.items():
            if g:  # g = 0, the first coset's representative, gives H
                coset = map(table[g].__getitem__, norm.elements)
                conj_norm = frozenset(map(columns[inv[g]].__getitem__, coset))
                normalizers[found[conj].mask] = found[conj_norm]
        normalizers[found[fs].mask] = norm
        members = tuple(sorted((found[m] for m in orbit), key=attrgetter("elements")))
        rep = members[0]
        # 0 for a class that is not cyclic; cyclicity is invariant under conjugation
        cyclic_generators = phi.get(found[fs].mask, 0)
        generators += len(members) * cyclic_generators
        staged.append(
            (
                rep.order,
                -len(members),
                rep.elements,
                members,
                cyclic_generators > 0,
                is_elementary_abelian(group, rep),
            )
        )
    if generators != order:
        raise RuntimeError(
            f"the cyclic subgroups have {generators} generators, not {order}: not a group"
        )
    staged.sort(key=lambda item: item[:3])
    classes = tuple(
        SubgroupClass(
            idx,
            members,
            is_cyclic=is_cyc,
            is_elementary_abelian=is_ea,
        )
        for idx, (_, _, _, members, is_cyc, is_ea) in enumerate(staged)
    )
    if classes[0].order != 1 or classes[-1].order != group.order:
        raise RuntimeError("subgroup enumeration lost the trivial subgroup or the group")
    return SubgroupLattice(group, classes, normalizers, walks)


def left_cosets(
    group: FiniteGroup, within: Iterable[int], sub_elements: Sequence[int]
) -> list[tuple[int, tuple[int, ...]]]:
    """The left cosets xU of U inside ``within`` (a union of such cosets),
    as (representative, coset elements) pairs in order of first element."""
    table = group.mul_table
    coset_of = entries_at(sub_elements)
    seen: set[int] = set()
    out = []
    for x in within:
        if x not in seen:
            coset = coset_of(table[x])
            seen.update(coset)
            out.append((x, coset))
    return out


def is_elementary_abelian(group: FiniteGroup, sub: Subgroup) -> bool:
    """True iff the subgroup is abelian of prime exponent (or trivial).

    Then its elements other than 1 share one order p. Conversely, if they
    share one order, it is a prime p, since x^a has order q/a for a
    proper divisor a of the order q of x, and by Cauchy's theorem the
    subgroup is a p-group. It is then abelian when the group is, or when
    p = 2 (xy = (xy)^-1 = y^-1 x^-1 = yx); else every pair is tested.
    """
    elems = sub.elements  # elems[0] is the identity
    orders = set(map(len, map(group.powers.__getitem__, elems[1:])))
    if len(orders) > 1:
        return False
    if group.is_abelian() or orders == {2}:
        return True
    table = group.mul_table
    for i, a in enumerate(elems):
        row = table[a]
        for b in elems[i + 1 :]:
            if row[b] != table[b][a]:
                return False
    return True


def maximal_elementary_abelian(group: FiniteGroup) -> Subgroup:
    """For an abelian p-group, the subgroup of all elements of order dividing p."""
    if not group.is_abelian():
        raise ValueError(
            "maximal elementary abelian subgroup is only defined here for abelian groups"
        )
    if group.order == 1:
        return Subgroup([0])
    pp = prime_power(group.order)
    if pp is None:
        raise ValueError(f"group order {group.order} is not a prime power")
    p = pp[0]
    return Subgroup(x for x in group.elements() if group.power(x, p) == 0)


def select_family(lattice: SubgroupLattice, family: SubgroupFamily) -> frozenset[int]:
    """Class indices whose members lie in the family.

    The predicates are conjugation-invariant, so membership of the
    representative decides the whole class.
    """
    if family is SubgroupFamily.ALL:
        return frozenset(range(lattice.class_count))
    if family is SubgroupFamily.CYCLIC:
        return frozenset(c.class_index for c in lattice.classes if c.is_cyclic)
    if family is SubgroupFamily.ELEMENTARY_ABELIAN:
        return frozenset(
            c.class_index for c in lattice.classes if c.is_elementary_abelian
        )
    raise ValueError(f"unknown family {family!r}")

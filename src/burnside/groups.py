"""Concrete finite groups backed by full multiplication tables.

Elements are integer ids in ``range(order)`` and id 0 is always the
identity. The public constructors (``FiniteGroup``, ``Subgroup`` and
``group_from_perm_generators``) take an entry that is not an int only
when it equals its int, and raise ValueError on 1.5 or '1'
(``_exact_ints``). The public ``FiniteGroup`` constructor validates its
table; package builders hand over tables valid by construction, which
tests check. A group records the powers of each element once, when it is
built, and element orders and powers are read off them. A ``Subgroup``
is its sorted element ids and their bitmask. Groups and subgroups do
not change after construction. A ``SubgroupLattice`` built from a group
is not immutable, but it fills only its one lazy cache (the table of
marks and the down-sets it is read from) on first use; the walks it
keeps, one per class, come from enumeration and are never extended, and
the pair congruences are built anew on each call. The only other cache
is a ghost vector's first marks solve; an ``ExponentResult`` keeps no
lattice, and the exponent, its certificate and a membership query's
Weyl rows are read off the kept walks, with nothing cached. A lattice
copies and pickles with its cache, a vector without. The values are
deterministic, so threads sharing a lattice or a vector see the same
results, but concurrent first calls may each compute them. Enumeration
and the lattice's builders pause the cyclic garbage collector, whose
switch all threads share: a build that found it on switches it back on
as it ends, even if another thread switched it off while the build ran
(see ``lattice._collector_paused``).
"""

from __future__ import annotations

import re
from contextlib import suppress
from itertools import chain, compress
from math import prod
from operator import itemgetter, ne
from typing import Callable, Iterable, Sequence

# default order cap of subgroup enumeration and of permutation closure, one
# value so that a permutation group closed under it is one enumeration takes
DEFAULT_ENUMERATION_CAP = 256

IDENTITY = 0


class CapExceededError(ValueError):
    """A computation would exceed a configured order cap."""


def check_enumeration_cap(
    order: int | Sequence[tuple[int, int]] | None, cap: int | None = None
) -> int:
    """Reject an order above the cap (default DEFAULT_ENUMERATION_CAP) before
    any table is built, and return the cap applied; an unknown order (None)
    passes. Given as (base, exponent) pairs, the order is not multiplied out
    once above the cap, and one too long for decimal is named by its powers,
    as in 2^10000000."""
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if order is None or isinstance(order, int) and order <= limit:
        return limit
    powers = ((order, 1),) if isinstance(order, int) else order
    # b**e > limit once b > limit or e >= limit.bit_length() (b >= 2), so
    # clamping both keeps the product's side of the cap and bounds its size
    if prod(min(b, limit + 1) ** min(e, limit.bit_length()) for b, e in powers) > limit:
        # over 14300 bits, which e*(bits of b - 1) bound from below, an int
        # has over 4300 digits, more than str() converts by default
        text = "*".join(f"{b}^{e}" if e != 1 else str(b) for b, e in powers)
        if sum(e * (b.bit_length() - 1) for b, e in powers) <= 14300:
            with suppress(ValueError):
                text = str(prod(b**e for b, e in powers))
        raise CapExceededError(f"group order {text} exceeds the enumeration cap {limit}")
    return limit


def _exact_ints(entries: Iterable) -> tuple[int, ...]:
    """The entries as a tuple of ints: as given when all are ints, else each
    copied through ``int`` if it equals its int, as a bool, an integral
    float or a whole fraction does; any other entry, such as 1.5, '1' or
    Fraction(3, 2), raises a ValueError naming it."""
    entries = tuple(entries)
    if set(map(type, entries)) <= {int}:
        return entries
    for x in entries:
        try:
            exact = int(x) == x
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise ValueError(f"entry {x!r} is not an integer")
    return tuple(map(int, entries))


def _validated_table(mul_table: Sequence[Sequence[int]]) -> tuple[tuple, tuple]:
    """The table as int tuples (``_exact_ints``, so rows of int tuples are
    kept) and its columns, once checked; a ValueError names the first
    fault."""
    order = len(mul_table)
    if order == 0:
        raise ValueError("multiplication table is empty")
    table = tuple(map(_exact_ints, mul_table))
    full = frozenset(range(order))
    for i, row in enumerate(table):
        if len(row) != order:
            raise ValueError(f"row {i} has length {len(row)}, expected {order}")
        if frozenset(row) != full:
            raise ValueError(f"row {i} is not a permutation of the elements")
    columns = tuple(zip(*table))
    for j, column in enumerate(columns):
        if frozenset(column) != full:
            raise ValueError(f"column {j} is not a permutation of the elements")
    ids = tuple(range(order))
    if table[IDENTITY] != ids or columns[IDENTITY] != ids:
        raise ValueError("element 0 does not act as the identity")
    # row x holds the right inverse of x, column x its left inverse
    for x, column in enumerate(columns):
        if column[table[x].index(IDENTITY)] != IDENTITY:
            raise ValueError(f"element {x} has no two-sided inverse")
    _check_associative(table)
    return table, columns


def _check_associative(table: tuple) -> None:
    """Light's test: (x g) y = x (g y) for all x, y and every g of a set
    whose left-to-right products reach every element. The g that pass are
    closed under products, so the table is associative. The set is greedy:
    an element not reached from the identity joins it, so a group needs at
    most log2 of its order. Per x and g, the row of xg is compared with row
    x read at the positions of row g."""
    reached, gens = {IDENTITY}, []
    for x in range(len(table)):
        if x not in reached:
            gens.append(x)
            frontier = set(reached)
            while frontier:
                frontier = {table[h][g] for h in frontier for g in gens} - reached
                reached |= frontier
    for g in gens:
        right = itemgetter(*table[g])
        for x, row in enumerate(table):
            if (left := table[row[g]]) != (product := right(row)):
                y = next(y for y, (a, b) in enumerate(zip(left, product)) if a != b)
                raise ValueError(f"associativity fails at ({x}, {g}, {y})")


class FiniteGroup:
    """Finite group defined by a complete multiplication table.

    The public constructor validates the table for shape, identity behaviour,
    cancellation (each row and column is a permutation), two-sided inverses
    and associativity (Light's test). Entries are kept as given when they
    are all ints, else copied through ``int`` when each equals its int
    (``_exact_ints``). Package builders pass int tables valid by
    construction to ``_from_valid_table``, which checks nothing. Tests run
    the public checks on each catalog table up to order 256 and on sample
    perm closures and products. ``columns`` is the
    transposed table, kept for enumeration's right cosets and conjugates;
    the group is abelian iff it equals the table, and then it is the table
    object itself. ``powers[x]`` is the tuple (1, x, x^2, ...) of the
    elements of <x>, up to x^(n-1) = x^-1 for the order n of x, walked
    once down column x (y -> yx); the walk returns to 1 as the column is
    a permutation, and one that has not within |G| steps raises
    RuntimeError.
    """

    __slots__ = ("name", "order", "mul_table", "columns", "inv_table", "powers", "_abelian")

    def __init__(self, name: str, mul_table: Sequence[Sequence[int]]) -> None:
        self._fill(name, *_validated_table(mul_table))

    @classmethod
    def _from_valid_table(cls, name: str, table: list, columns: tuple | None = None) -> FiniteGroup:
        """A builder that holds the columns as tuples hands them over."""
        group, table = cls.__new__(cls), tuple(table)
        group._fill(name, table, tuple(zip(*table)) if columns is None else columns)
        return group

    def _fill(self, name: str, table: tuple, columns: tuple) -> None:
        self.name = str(name)
        self.order = order = len(table)
        self.mul_table = table
        self._abelian = columns == table
        self.columns = table if self._abelian else columns
        powers = []
        for x, column in enumerate(columns):
            walk, y = [IDENTITY], column[IDENTITY]
            for _ in range(order):
                if y == IDENTITY:
                    break
                walk.append(y)
                y = column[y]
            else:
                raise RuntimeError(f"the powers of element {x} never reach the identity")
            powers.append(tuple(walk))
        self.powers = tuple(powers)
        self.inv_table = tuple(cycle[-1] for cycle in powers)

    def power(self, x: int, k: int) -> int:
        """x^k for any integer k; negative k gives a power of x^-1."""
        cycle = self.powers[x]
        return cycle[k % len(cycle)]

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return self._abelian

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def subgroup_mask(elements: Iterable[int]) -> int:
    """The bitmask of a set of element ids: bit x is set iff x is in the set.
    Raises ValueError on a negative id."""
    return sum(map((1).__lshift__, set(elements)))


def entries_at(positions: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A C-speed callable taking a table row to the tuple of its entries at
    ``positions``; with a subgroup's elements as positions, row x of the
    multiplication table gives the left coset xU, column y the right coset Uy."""
    if len(positions) == 1:
        (only,) = positions
        return lambda row: (row[only],)
    return itemgetter(*positions)


class Subgroup:
    """A subgroup stored as its sorted element ids and their bitmask (bit x
    set iff x is a member), so that containment is one integer AND. The
    constructor takes ids that equal ints (``_exact_ints``)."""

    __slots__ = ("elements", "mask")

    def __init__(self, elements: Iterable[int]) -> None:
        members = set(_exact_ints(elements))
        self.mask = subgroup_mask(members)
        self.elements = tuple(sorted(members))

    @classmethod
    def _of(cls, members: frozenset[int]) -> Subgroup:
        """The subgroup with the given element ids, known to be nonnegative
        ints, as enumeration finds them: no id is converted or checked."""
        sub = cls.__new__(cls)
        sub.elements = tuple(sorted(members))
        sub.mask = sum(map((1).__lshift__, members))
        return sub

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x >= 0 and self.mask >> x & 1 == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subgroup) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, elements={self.elements})"


def product_table(
    t1: Sequence[Sequence[int]], t2: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """The multiplication table of G1 x G2, given those of G1 and G2, with
    element ids packed as a*|G2| + b. Row (a1, b1) is the concatenation,
    over a2, of row b1 of G2's table shifted by t1[a1][a2]*|G2|."""
    o2 = len(t2)
    # shifted[b][x]: row b of G2's table plus x*|G2|
    shifted = [[tuple(map((x * o2).__add__, r2)) for x in range(len(t1))] for r2 in t2]
    return [tuple(chain.from_iterable(map(s.__getitem__, r1))) for r1 in t1 for s in shifted]


def direct_product(g1: FiniteGroup, g2: FiniteGroup, *, name: str | None = None) -> FiniteGroup:
    """Direct product with element ids packed as a*|G2| + b."""
    table = product_table(g1.mul_table, g2.mul_table)
    return FiniteGroup._from_valid_table(name or f"{g1.name}x{g2.name}", table)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_DEGREE_RE = re.compile(r"degree\s+(\d+)\s*$")


def parse_permutation(text: str, degree: int) -> tuple[int, ...]:
    """Parse one permutation in zero-based disjoint-cycle notation, e.g. ``(0 1 2)(3 4)``."""
    stripped = text.strip()
    rest = _CYCLE_RE.sub("", stripped)
    if rest.strip():
        raise ValueError(f"unexpected text {rest.strip()!r} in permutation {stripped!r}")
    perm = list(range(degree))
    used: set[int] = set()
    for m in _CYCLE_RE.finditer(stripped):
        try:  # ``point`` is left at the token that int() refused
            points = [int(point := tok) for tok in m.group(1).split()]
        except ValueError:
            message = f"point {point!r} is not an integer in permutation {stripped!r}"
            raise ValueError(message) from None
        if not points:
            continue
        for p in points:
            if not 0 <= p < degree:
                raise ValueError(f"point {p} out of range for degree {degree}")
            if p in used:
                raise ValueError(f"point {p} repeated; cycles must be disjoint")
            used.add(p)
        for i, p in enumerate(points):
            perm[p] = points[(i + 1) % len(points)]
    return tuple(perm)


def parse_permutation_file(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Parse a generator file: first line ``degree n``, then one cycle expression per line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty generator file")
    m = _DEGREE_RE.match(lines[0].strip())
    if not m:
        raise ValueError(f"first line must be 'degree n', got {lines[0].strip()!r}")
    degree = int(m.group(1))
    if degree < 1:
        raise ValueError("degree must be at least 1")
    gens = [parse_permutation(ln, degree) for ln in lines[1:]]
    return degree, gens


def group_from_perm_generators(
    degree: int,
    generators: Sequence[Sequence[int]],
    *,
    order_cap: int = DEFAULT_ENUMERATION_CAP,
    name: str | None = None,
) -> FiniteGroup:
    """Close a set of permutations of ``{0..degree-1}`` into a multiplication table.

    Element ids follow the breadth-first closure order from the
    generators in input order, with the identity first, so tables are
    reproducible. Raises CapExceededError if the closure would exceed
    ``order_cap``. A generator's entries must equal ints
    (``_exact_ints``), and it is a bijection when it has ``degree``
    entries and maps the points it moves onto themselves. Every element
    fixes the points no generator moves, so the closure acts on the moved
    points alone, relabelled 0, 1, ...; relabelling keeps every product,
    so the table is the same. The closure composes each element with each
    generator once; the table is read off the Cayley graph it finds, with
    no further composing or hashing of permutations.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    points = range(degree)
    given: list[tuple[int, ...]] = []
    moved: set[int] = set()
    for k, g in enumerate(generators):
        perm = _exact_ints(g)
        own = list(compress(points, map(ne, perm, points)))
        if len(perm) != degree or set(map(perm.__getitem__, own)) != set(own):
            raise ValueError(f"generator {k} is not a bijection on 0..{degree - 1}")
        given.append(perm)
        moved.update(own)
    label = {p: i for i, p in enumerate(moved)}
    gens = [tuple(label[perm[p]] for p in label) for perm in given]
    identity = tuple(range(len(label)))
    perms: list[tuple[int, ...]] = [identity]
    index: dict[tuple[int, ...], int] = {identity: 0}
    # moves[i][k]: the id of element k times generator i; parents[q - 1]:
    # (q', i) for the element q' and generator i whose product found q
    moves: list[list[int]] = [[] for _ in gens]
    parents: list[tuple[int, int]] = []
    for k, base in enumerate(perms):  # grows as the closure finds elements
        for i, g in enumerate(gens):
            nxt = tuple(base[p] for p in g)
            j = index.get(nxt)
            if j is None:
                if len(perms) >= order_cap:
                    raise CapExceededError(
                        f"closure exceeds the order cap {order_cap}"
                    )
                j = index[nxt] = len(perms)
                perms.append(nxt)
                parents.append((k, i))
            moves[i].append(j)
    # row p, column q: the permutation (p[q[0]], p[q[1]], ...). Column q
    # holds x*q for every x; for q = q' g, x*q = (x*q')*g, so it is column
    # q' read through the moves of g, one gather per element
    columns = [tuple(range(len(perms)))]
    for k, i in parents:
        columns.append(entries_at(columns[k])(moves[i]))
    name = name or f"perm-group(degree {degree})"
    return FiniteGroup._from_valid_table(name, list(zip(*columns)), tuple(columns))


def load_permutation_group(
    path: str,
    *,
    order_cap: int = DEFAULT_ENUMERATION_CAP,
    name: str | None = None,
) -> FiniteGroup:
    """Read a generator file (see :func:`parse_permutation_file`) and close it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read generator file {path!r}: {exc}") from exc
    degree, gens = parse_permutation_file(text)
    return group_from_perm_generators(
        degree, gens, order_cap=order_cap, name=name or f"perm:{path}"
    )

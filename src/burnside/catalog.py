"""Constructions for the named finite groups the tool reasons about.

Abelian tables are products of cyclic ones. Every non-abelian kind (D,
Q, SD and M of order 2^n, ES+ and ES- of order p^3) is one cyclic
extension: an abelian normal subgroup N extended by an element h of
order k modulo N (``_cyclic_extension``). A small grammar turns CLI
text such as ``C(2^3)``, ``Q8`` or ``C4xC2`` into :class:`GroupSpec` values.

Every kind of spec is one ``_Kind`` entry in ``_KINDS``: its parameter
check, order as (base, exponent) pairs, canonical text, abelian flag and
builder. A new kind adds its entry there, plus a (pattern, kind) pair in
``_ATOMS`` if the grammar should spell it.

``classify_maximal_cyclic_2group`` tells D, Q, SD and M apart by their
numbers of involutions, read off a built group's element orders.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import reduce
from math import prod
from numbers import Number
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .arith import factorize, is_prime, partitions, prime_power
from .groups import (
    IDENTITY,
    FiniteGroup,
    check_enumeration_cap,
    direct_product,
    load_permutation_group,
    product_table,
)


class SpecParseError(ValueError):
    """A group-spec string could not be parsed or has invalid parameters."""


class _SpecFields(NamedTuple):
    kind: str
    params: tuple


class GroupSpec(_SpecFields):
    """Symbolic description of a catalog group; build with :func:`build_group`.

    ``kind`` names an entry of ``_KINDS`` and ``params`` are its
    parameters, e.g. ``GroupSpec("cyclic", (2, 3))`` for C(2^3),
    ``GroupSpec("dihedral", (16,))`` or ``GroupSpec("direct_product", (a, b))``.

    A named tuple: it equals the plain tuple (kind, params). Every way
    of making one, ``_make`` and ``_replace`` included, checks the
    parameters and raises SpecParseError on bad ones.
    """

    __slots__ = ()

    def __new__(cls, kind: str, params: tuple = ()) -> GroupSpec:
        entry = _KINDS.get(kind)
        if entry is None:
            raise SpecParseError(f"unknown group kind {kind!r}")
        # A check's signature is its kind's arity, so a wrong parameter
        # count (or type) fails here as a TypeError, as does a number that
        # is not an int: 3.0 or True would pass the check and end up in the
        # text, as in C(2^3.0).
        try:
            if any(isinstance(x, Number) and type(x) is not int for x in params):
                raise TypeError
            problem = entry.check(*params)
        except TypeError:
            problem = f"{kind} spec cannot take parameters {params!r}"
        if problem:
            raise SpecParseError(problem)
        return super().__new__(cls, kind, params)

    @classmethod
    def _make(cls, iterable: Iterable) -> GroupSpec:  # _replace calls it too
        return cls(*iterable)

    def order(self) -> int | None:
        """Nominal order, or None for perm-file specs (unknown before closure)."""
        powers = _KINDS[self.kind].powers(*self.params)
        return None if powers is None else prod([b**e for b, e in powers])

    def text(self) -> str:
        """Canonical spelling in the CLI grammar."""
        return _KINDS[self.kind].text(*self.params)

    def is_abelian(self) -> bool | None:
        """Whether the group is abelian, known without building it; None
        for perm-file specs (unknown before closure)."""
        return _KINDS[self.kind].abelian(*self.params)


def _cyclic_table(m: int) -> list[tuple[int, ...]]:
    """The multiplication table of C_m: row a is range(m) rotated to start at a."""
    ids = tuple(range(m))
    return [ids[a:] + ids[:a] for a in ids]


def _abelian_product_group(orders: Sequence[int], name: str) -> FiniteGroup:
    # one table, not each partial product
    table = reduce(product_table, map(_cyclic_table, orders), [(0,)])
    return FiniteGroup._from_valid_table(name, table)


def _cyclic_extension(
    normal: Sequence[Sequence[int]], k: int, twist: Sequence[int], shift: int = IDENTITY
) -> list[tuple[int, ...]]:
    """The multiplication table of N.C_k: the abelian group N with table
    ``normal``, extended by h of order k modulo N with h n h^-1 = twist[n]
    and h^k = shift. Element id n + |N|*b stands for n h^b, so
    (n1, b1)(n2, b2) = (n1 twist^b1(n2) [shift if b1 + b2 >= k], b1 + b2 mod k).
    """
    size = len(normal)
    coset_ids = [tuple(range(c * size, (c + 1) * size)) for c in range(k)]  # N h^c
    wrapped = [row[shift] for row in normal]  # n1 -> n1*shift
    table = []
    power = tuple(range(size))  # twist^b1, as a tuple over N
    for b1 in range(k):
        getters = [itemgetter(*row) for row in map(itemgetter(*power), normal)]
        # blocks[c][n]: row n of N's table, permuted by twist^b1, as ids of N h^c;
        # row (b1, n1) is blocks b1..k-1 at n1, then blocks 0..b1-1 at n1*shift
        blocks = [[get(ids) for get in getters] for ids in coset_ids]
        wraps = [list(map(block.__getitem__, wrapped)) for block in blocks[:b1]]
        table.extend(sum(parts, ()) for parts in zip(*blocks[b1:], *wraps))
        power = tuple(map(twist.__getitem__, power))
    return table


class _Kind(NamedTuple):
    """One kind of spec. Each callable takes the spec's params unpacked;
    ``build`` takes the group's name and the perm order cap first."""

    check: Callable[..., str | None]  # the error message, or None if valid
    powers: Callable[..., tuple[tuple[int, int], ...] | None]  # the order, as (b, e) pairs
    text: Callable[..., str]
    abelian: Callable[..., bool | None]
    build: Callable[..., FiniteGroup]
    # cyclic factor orders, for the kinds that products like C4xC1 fold into
    factors: Callable[..., tuple[int, ...]] | None = None


def _two_generator_kind(
    kind: str, letter: str, least: int, twist: Callable[[int], int], quaternion: bool = False
) -> _Kind:
    """D, Q, SD or M: order 2^n with n >= least, spelled ``letter(order)``;
    h g h^-1 = g^twist(m) for the generator g of order m = order/2, and
    h^2 = g^(m/2) in the quaternion kind, 1 otherwise."""

    def build(name: str, cap: int, order: int) -> FiniteGroup:
        m = order // 2
        r, shift = twist(m), m // 2 if quaternion else 0
        table = _cyclic_extension(_cyclic_table(m), 2, tuple(c * r % m for c in range(m)), shift)
        return FiniteGroup._from_valid_table(name, table)

    return _Kind(
        lambda order: None
        if order >= 1 << least and order & (order - 1) == 0
        else f"{kind} groups are defined for orders 2^n with n >= {least}, got {order}",
        lambda order: ((order, 1),),
        lambda order: f"{letter}({order})",
        lambda order: False,
        build,
    )


def _extraspecial_kind(sign: str, normal: Callable, twist: Callable) -> _Kind:
    """ES+ or ES-: order p^3 for an odd prime p, spelled ``ES±(p)``; the
    abelian group N of order p^2 with table normal(p), extended by h of
    order p with h n h^-1 = twist(p, n)."""

    def build(name: str, cap: int, p: int) -> FiniteGroup:
        table = _cyclic_extension(normal(p), p, tuple(twist(p, n) for n in range(p * p)))
        return FiniteGroup._from_valid_table(name, table)

    return _Kind(
        lambda p: None
        if is_prime(p) and p != 2
        else (
            f"extraspecial kinds need an odd prime, got {p}; "
            "the order-8 cases are D(8) and Q(8)"
        ),
        lambda p: ((p, 3),),
        lambda p: f"ES{sign}({p})",
        lambda p: False,
        build,
    )


_KINDS: dict[str, _Kind] = {
    "cyclic": _Kind(
        lambda p, n: None
        if is_prime(p) and n >= 0
        else f"cyclic group needs a prime base, got C({p}^{n})",
        lambda p, n: ((p, n),),
        lambda p, n: f"C({p}^{n})" if n else "C1",
        lambda p, n: True,
        lambda name, cap, p, n: FiniteGroup._from_valid_table(name, _cyclic_table(p ** n)),
        factors=lambda p, n: (p ** n,) if n else (),
    ),
    "elementary_abelian": _Kind(
        lambda p, k: None
        if is_prime(p) and k >= 1
        else f"invalid elementary abelian parameters ({p},{k})",
        lambda p, k: ((p, k),),
        lambda p, k: f"EA({p},{k})",
        lambda p, k: True,
        lambda name, cap, p, k: _abelian_product_group([p] * k, name),
    ),
    "abelian_product": _Kind(
        lambda *ms: next(
            (f"abelian product factors must be prime powers, got {m}"
             for m in ms if prime_power(m) is None),
            None,
        ),
        lambda *ms: tuple((m, 1) for m in ms),
        lambda *ms: "x".join(f"C{m}" for m in ms) if ms else "C1",
        lambda *ms: True,
        lambda name, cap, *ms: _abelian_product_group(ms, name),
        factors=lambda *ms: ms,
    ),
    "dihedral": _two_generator_kind("dihedral", "D", 3, lambda m: m - 1),
    "quaternion": _two_generator_kind("quaternion", "Q", 3, lambda m: m - 1, quaternion=True),
    "semidihedral": _two_generator_kind("semidihedral", "SD", 4, lambda m: m // 2 - 1),
    "modular": _two_generator_kind("modular", "M", 4, lambda m: m // 2 + 1),
    # Upper unitriangular 3x3 matrices (x, y, z) over F_p, exponent p for odd
    # p: N = {(0, y, z)} = C_p x C_p with id n = y*p + z, extended by
    # h = (1, 0, 0), which sends (y, z) to (y, z + y).
    "extraspecial_plus": _extraspecial_kind(
        "+",
        lambda p: product_table(_cyclic_table(p), _cyclic_table(p)),
        lambda p, n: n // p * p + (n + n // p) % p,
    ),
    # <g> = C_(p^2) extended by h of order p with h g h^-1 = g^(1+p)
    "extraspecial_minus": _extraspecial_kind(
        "-", lambda p: _cyclic_table(p * p), lambda p, n: n * (1 + p) % (p * p)
    ),
    "direct_product": _Kind(
        lambda a, b: None
        if isinstance(a, GroupSpec) and isinstance(b, GroupSpec)
        else "direct product factors must be GroupSpecs",
        lambda *ab: None if None in (pw := [_KINDS[s.kind].powers(*s.params) for s in ab])
        else pw[0] + pw[1],
        lambda a, b: f"{a.text()}x{b.text()}",
        lambda a, b: None if None in (flags := (a.is_abelian(), b.is_abelian())) else all(flags),
        lambda name, cap, a, b: direct_product(
            build_group(a, cap=cap), build_group(b, cap=cap), name=name
        ),
    ),
    "perm": _Kind(
        lambda path: None if path else "perm spec needs a file path",
        lambda path: None,
        lambda path: f"perm:{path}",
        lambda path: None,
        lambda name, cap, path: load_permutation_group(path, order_cap=cap, name=name),
    ),
}


def build_group(spec: GroupSpec, *, cap: int | None = None) -> FiniteGroup:
    """Realize a GroupSpec as a FiniteGroup whose order equals the nominal order.

    The order is checked against the cap (default DEFAULT_ENUMERATION_CAP)
    before any table is built; a perm closure, whose order is known only
    once closed, stops at the cap."""
    kind = _KINDS[spec.kind]
    limit = check_enumeration_cap(kind.powers(*spec.params), cap)
    return kind.build(spec.text(), limit, *spec.params)


class MaximalCyclicType(Enum):
    """Outcome of classifying a 2-group with an element of half the group order."""

    QUATERNION = "quaternion"
    DIHEDRAL = "dihedral"
    MODULAR = "modular"
    SEMIDIHEDRAL = "semidihedral"
    CYCLIC = "cyclic"
    NOT_MAXIMAL_CYCLIC = "not-maximal-cyclic"


def classify_maximal_cyclic_2group(group: FiniteGroup) -> MaximalCyclicType:
    """Identify a 2-group with an element of half its order by its involutions.

    A cyclic group is CYCLIC; an abelian group, or one with no element of
    order |G|/2, is NOT_MAXIMAL_CYCLIC. A nonabelian group of order 2^n >= 8
    with a cyclic subgroup of index 2 is quaternion, dihedral, semidihedral
    or modular (Gorenstein, *Finite Groups*, Thm 5.4.4), with 1, 2^(n-1) + 1,
    2^(n-2) + 1 and 3 involutions, distinct for n >= 4; the last two kinds
    start at order 16. Odd orders are rejected.
    """
    order = group.order
    if order & (order - 1):
        raise ValueError(f"classification needs a group of 2-power order, got {order}")
    element_orders = list(map(len, group.powers))
    if order in element_orders:
        return MaximalCyclicType.CYCLIC
    if group.is_abelian() or order // 2 not in element_orders:
        return MaximalCyclicType.NOT_MAXIMAL_CYCLIC
    kinds = {1: MaximalCyclicType.QUATERNION, order // 2 + 1: MaximalCyclicType.DIHEDRAL}
    if order >= 16:
        kinds |= {order // 4 + 1: MaximalCyclicType.SEMIDIHEDRAL, 3: MaximalCyclicType.MODULAR}
    return kinds.get(element_orders.count(2), MaximalCyclicType.NOT_MAXIMAL_CYCLIC)


# One (pattern, kind) pair per atom; "Xn" and "X(n)" share a pattern.
# Kind None is a cyclic group named by its order, which may be composite.
_ATOMS: tuple[tuple[re.Pattern[str], str | None], ...] = tuple(
    (re.compile(pattern), kind)
    for pattern, kind in (
        (r"C\((\d+)\^(\d+)\)", "cyclic"),
        (r"C(?:(\d+)|\((\d+)\))", None),
        (r"EA\((\d+),(\d+)\)", "elementary_abelian"),
        (r"D(?:(\d+)|\((\d+)\))", "dihedral"),
        (r"Q(?:(\d+)|\((\d+)\))", "quaternion"),
        (r"SD(?:(\d+)|\((\d+)\))", "semidihedral"),
        (r"M(?:(\d+)|\((\d+)\))", "modular"),
        (r"ES\+\((\d+)\)", "extraspecial_plus"),
        (r"ES-\((\d+)\)", "extraspecial_minus"),
    )
)


def _abelian(factors: Sequence[int]) -> GroupSpec:
    """Canonical spec of a product of cyclic groups of these prime-power
    orders: C1 or C(p^n) when at most one factor is left."""
    if len(factors) > 1:
        return GroupSpec("abelian_product", tuple(factors))
    return GroupSpec("cyclic", prime_power(factors[0]) if factors else (2, 0))


def _cyclic_of_order(m: int) -> GroupSpec:
    # Primary decomposition, largest prime power first, so C6 -> C3xC2.
    if m < 1:
        raise SpecParseError(f"cyclic group order must be positive, got {m}")
    return _abelian(sorted((p ** k for p, k in factorize(m)), reverse=True))


def _at(pos: int, make: Callable, *args):
    """make(*args); a ValueError becomes a SpecParseError at the position."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SpecParseError(f"at position {pos}: {exc}") from None


def _read_atom(atom: str, pos: int) -> tuple[str | None, tuple[int, ...]]:
    """The atom's kind (None for Cn) and integer literals, not yet checked."""
    for pattern, kind in _ATOMS:
        if m := pattern.fullmatch(atom):
            return kind, _at(pos, tuple, (int(g) for g in m.groups() if g is not None))
    raise SpecParseError(f"cannot parse group spec atom {atom!r} at position {pos}")


def parse_group_spec(text: str, *, cap: int | None = None) -> GroupSpec:
    """Parse the CLI grammar: named families, bare aliases (Q8), products with 'x',
    and ``perm:<path>`` for a permutation generator file. With ``cap``, the
    order the literals name is checked against it (``check_enumeration_cap``)
    before any literal is tested for primality or factorized."""
    stripped = text.strip()
    if not stripped:
        raise SpecParseError("empty group spec")
    if stripped.lower().startswith("perm:"):
        return GroupSpec("perm", (stripped[5:].strip(),))
    compact = re.sub(r"\s+", "", stripped)
    atoms = []  # (position, kind, literals)
    pos = 0
    for part in re.split(r"[xX]", compact):
        if not part:
            raise SpecParseError(f"empty factor at position {pos} in {text!r}")
        atoms.append((pos, *_read_atom(part.upper(), pos)))
        pos += len(part) + 1
    if cap is not None:  # Cn names its order n, as a one-factor abelian product does
        kinds = [(_KINDS[kind or "abelian_product"], lits) for _, kind, lits in atoms]
        check_enumeration_cap([pw for k, lits in kinds for pw in k.powers(*lits)], cap)
    specs = [_at(pos, GroupSpec, kind, lits) if kind else _at(pos, _cyclic_of_order, *lits)
             for pos, kind, lits in atoms]
    folds = [_KINDS[s.kind].factors for s in specs]
    if all(folds):
        return _abelian([m for s, fold in zip(specs, folds) for m in fold(*s.params)])
    return reduce(lambda a, b: GroupSpec("direct_product", (a, b)), specs)


def standard_catalog(max_order: int = 64) -> tuple[GroupSpec, ...]:
    """Concrete witnesses of prime-power order up to ``max_order``.

    Contains the trivial group, cyclic p-groups for p in {2, 3, 5}, every
    abelian type up to order 32, rank-two abelian types above that (those
    of order p^n with n <= 63), the dihedral, quaternion, semidihedral, and
    modular 2-groups, and both extraspecial groups of order p^3 for odd p.
    The abelian cut-off keeps subgroup lattices at a size where full
    enumeration stays fast.
    """
    specs: list[GroupSpec] = []
    if max_order >= 1:
        specs.append(GroupSpec("cyclic", (2, 0)))
    for p in (2, 3, 5):
        for n in range(1, max_order.bit_length() + 1):  # p^n > max_order above that
            order = p ** n
            if order > max_order:
                break
            # above order 32 only the cyclic shape (n,) and, up to n = 63, the
            # rank-two shapes (n - k, k), in the order partitions(n) lists
            # them, largest first part first
            rank_two = [(n - k, k) for k in range(1, n // 2 + 1)] if n < 64 else []
            for shape in partitions(n) if order <= 32 else [(n,), *rank_two]:
                if len(shape) == 1:
                    specs.append(GroupSpec("cyclic", (p, n)))
                elif all(part == 1 for part in shape):
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

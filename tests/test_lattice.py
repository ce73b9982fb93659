from __future__ import annotations

import random
import time

import pytest

from _oracles import (
    class_index_of,
    conjugacy_partition,
    generated_subgroup,
    member_walk,
    subset_closure_subgroups,
)
from burnside import (
    CapExceededError,
    FiniteGroup,
    Subgroup,
    build_group,
    enumerate_subgroups,
    group_from_perm_generators,
    is_elementary_abelian,
    lattice as lattice_module,
    maximal_elementary_abelian,
    parse_group_spec,
    parse_permutation_file,
    select_family,
    standard_catalog,
    SubgroupFamily,
    artin_exponent,
)
from burnside.arith import prime_power

ORACLE_GROUPS = [
    "C1",
    "C(2^4)",
    "C(3^2)",
    "C12",
    "EA(2,3)",
    "C4xC2",
    "D8",
    "Q8",
    "D16",
    "Q16",
    "SD(16)",
    "M(16)",
    "C8xC2",
    "C4xC4",
]

PERM_FILES = {
    "S4": "degree 4\n(0 1 2 3)\n(0 1)\n",
    "S5": "degree 5\n(0 1 2 3 4)\n(0 1)\n",
    "A5": "degree 5\n(0 1 2 3 4)\n(0 1 2)\n",
    "S3xS3": "degree 6\n(0 1 2)\n(0 1)\n(3 4 5)\n(3 4)\n",
    "S4xC5": "degree 9\n(0 1 2 3)\n(0 1)\n(4 5 6 7 8)\n",
    "F21xC5": "degree 12\n(0 1 2 3 4 5 6)\n(1 2 4)(3 6 5)\n(7 8 9 10 11)\n",
}


@pytest.mark.parametrize("text", ORACLE_GROUPS)
def test_enumeration_matches_subset_closure_oracle(text, lattice_of):
    lattice = lattice_of(text)
    group = lattice.group
    expected_sets = subset_closure_subgroups(group)
    actual_sets = {frozenset(s.elements) for s in lattice.all_subgroups}
    assert actual_sets == expected_sets
    expected_classes = conjugacy_partition(group, expected_sets)
    actual_classes = {
        frozenset(frozenset(m.elements) for m in cls.members) for cls in lattice.classes
    }
    assert actual_classes == expected_classes


def test_trivial_group_lattice(lattice_of):
    lattice = lattice_of("C1")
    assert len(lattice.all_subgroups) == 1
    assert lattice.class_count == 1


def test_cyclic_group_has_chain_lattice(lattice_of):
    lattice = lattice_of("C(3^3)")
    assert len(lattice.all_subgroups) == 4
    assert [c.order for c in lattice.classes] == [1, 3, 9, 27]
    assert all(c.is_normal for c in lattice.classes)


def test_quaternion_lattice(lattice_of):
    lattice = lattice_of("Q8")
    assert len(lattice.all_subgroups) == 6
    assert lattice.class_count == 6
    assert [c.order for c in lattice.classes] == [1, 2, 4, 4, 4, 8]
    assert all(c.is_normal for c in lattice.classes)


def test_canonical_order_contract(lattice_of):
    for text in ("D8", "SD(16)", "EA(2,3)", "C12"):
        lattice = lattice_of(text)
        assert lattice.classes[0].order == 1
        assert lattice.classes[-1].order == lattice.group.order
        keys = [
            (c.order, -len(c.members), c.representative.elements)
            for c in lattice.classes
        ]
        assert keys == sorted(keys)
        assert [c.class_index for c in lattice.classes] == list(range(lattice.class_count))


def test_enumeration_is_reproducible():
    a = enumerate_subgroups(build_group(parse_group_spec("D16")))
    b = enumerate_subgroups(build_group(parse_group_spec("D16")))
    assert [c.representative.elements for c in a.classes] == [
        c.representative.elements for c in b.classes
    ]
    assert [tuple(m.elements for m in c.members) for c in a.classes] == [
        tuple(m.elements for m in c.members) for c in b.classes
    ]


def test_class_sizes_partition_subgroups(lattice_of):
    for text in ORACLE_GROUPS:
        lattice = lattice_of(text)
        assert sum(len(c.members) for c in lattice.classes) == len(lattice.all_subgroups)


def test_class_size_times_normalizer_is_group_order(lattice_of):
    for text in ("D8", "Q16", "SD(16)", "ES+(3)"):
        lattice = lattice_of(text)
        group = lattice.group
        for cls in lattice.classes:
            for member in cls.members:
                nz = lattice.normalizer(member)
                assert len(cls.members) * nz.order == group.order


def test_abelian_lattices_have_singleton_classes(lattice_of):
    for text in ("C(2^4)", "EA(3,2)", "C4xC2"):
        lattice = lattice_of(text)
        assert all(c.is_normal and len(c.members) == 1 for c in lattice.classes)


def test_enumeration_cap():
    group = build_group(parse_group_spec("D16"))
    with pytest.raises(CapExceededError) as err:
        enumerate_subgroups(group, cap=8)
    assert "8" in str(err.value)


def test_normalizer_edge_cases(lattice_of):
    lattice = lattice_of("D8")
    group = lattice.group
    whole = lattice.classes[-1].representative
    trivial = lattice.classes[0].representative
    assert lattice.normalizer(whole) is whole
    assert lattice.normalizer(trivial) is whole
    reflection = generated_subgroup(group, [group.order // 2])  # h, by _cyclic_extension ids
    assert lattice.normalizer(reflection).order == 4
    with pytest.raises(ValueError, match="does not belong to this lattice"):
        lattice.normalizer(Subgroup([0, 1]))


def test_is_elementary_abelian(lattice_of):
    q8 = lattice_of("Q8").group
    assert is_elementary_abelian(q8, Subgroup([0]))
    cyclic4 = generated_subgroup(q8, [1])
    assert not is_elementary_abelian(q8, cyclic4)
    c4c2 = lattice_of("C4xC2").group
    square_roots = Subgroup(x for x in c4c2.elements() if c4c2.mul_table[x][x] == 0)
    assert square_roots.order == 4
    assert is_elementary_abelian(c4c2, square_roots)
    c12 = lattice_of("C12").group
    order6 = next(
        s for s in enumerate_subgroups(c12).all_subgroups if s.order == 6
    )
    assert not is_elementary_abelian(c12, order6)


def test_maximal_elementary_abelian():
    ea = build_group(parse_group_spec("EA(5,2)"))
    assert maximal_elementary_abelian(ea).order == 25
    c9 = build_group(parse_group_spec("C(3^2)"))
    assert maximal_elementary_abelian(c9).order == 3
    c4c2 = build_group(parse_group_spec("C4xC2"))
    sub = maximal_elementary_abelian(c4c2)
    assert sub.order == 4
    assert all(c4c2.mul_table[x][x] == 0 for x in sub.elements)
    with pytest.raises(ValueError):
        maximal_elementary_abelian(build_group(parse_group_spec("D8")))


def test_select_family_all(lattice_of):
    lattice = lattice_of("D8")
    assert select_family(lattice, SubgroupFamily.ALL) == frozenset(
        range(lattice.class_count)
    )


def test_select_family_elementary_abelian_on_cyclic(lattice_of):
    lattice = lattice_of("C(2^4)")
    assert select_family(lattice, SubgroupFamily.ELEMENTARY_ABELIAN) == {0, 1}


def test_select_family_elementary_abelian_on_quaternion(lattice_of):
    lattice = lattice_of("Q8")
    selected = select_family(lattice, SubgroupFamily.ELEMENTARY_ABELIAN)
    assert selected == {0, 1}
    assert lattice.classes[1].order == 2


def test_select_family_cyclic_on_dihedral(lattice_of):
    lattice = lattice_of("D8")
    selected = select_family(lattice, SubgroupFamily.CYCLIC)
    assert len(selected) == 5
    assert all(lattice.classes[i].is_cyclic for i in selected)


def test_family_always_contains_trivial_class(lattice_of):
    for text in ("C12", "Q8", "EA(2,3)"):
        lattice = lattice_of(text)
        for family in SubgroupFamily:
            assert 0 in select_family(lattice, family)


def test_dihedral_subgroup_counts_match_divisor_formula():
    # the dihedral group of order 2m has d(m) + sigma(m) subgroups
    from burnside.arith import divisors

    for order in (8, 16, 32, 64):
        m = order // 2
        lattice = enumerate_subgroups(build_group(parse_group_spec(f"D({order})")))
        assert len(lattice.all_subgroups) == len(divisors(m)) + sum(divisors(m))


def test_symmetric_group_lattices():
    from burnside import group_from_perm_generators

    s3 = group_from_perm_generators(3, [(1, 2, 0), (1, 0, 2)], name="S3")
    lattice = enumerate_subgroups(s3)
    assert len(lattice.all_subgroups) == 6
    assert lattice.class_count == 4
    s4 = group_from_perm_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], name="S4")
    lattice = enumerate_subgroups(s4)
    assert len(lattice.all_subgroups) == 30
    assert lattice.class_count == 11
    # one non-normal class of each order except 1 and 24 has size > 1
    assert sum(1 for c in lattice.classes if not c.is_normal) == 7


def _enumeration_joins(group, monkeypatch):
    """The closure joins that enumerating the group makes."""
    joins = []
    coset_join = lattice_module._coset_join

    def counting(*args):
        joins.append(args)
        return coset_join(*args)

    monkeypatch.setattr(lattice_module, "_coset_join", counting)
    enumerate_subgroups(group)
    return joins


def _named_group(name):
    if name in PERM_FILES:
        return group_from_perm_generators(*parse_permutation_file(PERM_FILES[name]))
    return build_group(parse_group_spec(name))


@pytest.mark.parametrize("name, most", [("S5", 160), ("A5", 60), ("S4xC5", 60)])
def test_enumeration_joins_one_subgroup_per_class(name, most, monkeypatch):
    """Conjugates are registered by the orbit pass, never joined: S5 has
    156 subgroups in 19 classes, and joining every subgroup found tries
    1510 joins. S5 and A5 are not solvable, and S4 x C5 (order 120) is
    solvable by no rule read off its order, so all three still try the
    double-coset joins."""
    assert 0 < len(_enumeration_joins(_named_group(name), monkeypatch)) <= most


@pytest.mark.parametrize("name", ["S4", "S3xS3", "D(8)xC3xQ(8)", "F21xC5"])
def test_solvable_orders_close_no_joins(name, monkeypatch):
    """An order with at most two prime factors, or an odd order (F21 x C5,
    of order 105), makes the group solvable, and there the walks find every
    class: the four groups closed 15, 36, 420 and 6 joins when their double
    cosets were joined."""
    assert _enumeration_joins(_named_group(name), monkeypatch) == []


NONABELIAN_P_GROUPS = [
    spec.text()
    for spec in standard_catalog(128)
    if not spec.is_abelian() and prime_power(spec.order()) is not None
]


@pytest.mark.parametrize("name", NONABELIAN_P_GROUPS)
def test_p_groups_close_no_joins(name, monkeypatch):
    """In a p-group the walks find every class: D(128), with 134 subgroups
    in 20 classes, made 114 joins when the double cosets were joined."""
    group = build_group(parse_group_spec(name))
    assert _enumeration_joins(group, monkeypatch) == []


def test_enumeration_asserts_lagrange():
    """The order-5 loop below is not associative, and it has closed subsets
    of orders 2 and 4. The public constructor rejects it by Light's test;
    enumerating the unchecked table raises on the first such subset."""
    table = [tuple(map(int, row)) for row in ("01234", "10342", "24013", "32401", "43120")]
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup("loop", table)
    with pytest.raises(RuntimeError, match="order 2 does not divide 5"):
        enumerate_subgroups(FiniteGroup._from_valid_table("loop", table))


def _random_loop(seed: int, order: int) -> list[tuple[int, ...]]:
    """A Latin square with identity 0, filled cell by cell in row order
    from seeded random candidates, backtracking on a dead end."""
    rng = random.Random(seed)
    table = [[i if j == 0 else j if i == 0 else None for j in range(order)] for i in range(order)]
    cells = [(i, j) for i in range(1, order) for j in range(1, order)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        used = {*table[i][:j], *(table[r][j] for r in range(i))}
        options = [x for x in range(order) if x not in used]
        rng.shuffle(options)
        for x in options:
            table[i][j] = x
            if fill(k + 1):
                return True
        return False

    assert fill(0)
    return [tuple(row) for row in table]


# the order and seed of the random loop below, fixed before it was first run
RANDOM_LOOP = (6, 0)


def test_public_constructor_rejects_a_seeded_random_loop():
    order, seed = RANDOM_LOOP
    with pytest.raises(ValueError):
        FiniteGroup("loop", _random_loop(seed, order))


def test_an_unchecked_random_loop_raises_in_enumeration_or_the_exponent():
    """A table that skipped the public checks fails an asserted identity
    (Lagrange or the cyclic subgroups' generators in enumeration, the
    Weyl-row sums in the exponent) rather than give a lattice and an
    exponent. This seed passes Lagrange and the Weyl rows, with 8
    'subgroups' in 4 classes and exponent 3, and its cyclic classes have
    9 generators for 6 elements."""
    order, seed = RANDOM_LOOP
    loop = FiniteGroup._from_valid_table("loop", _random_loop(seed, order))
    with pytest.raises(RuntimeError):
        artin_exponent(enumerate_subgroups(loop), SubgroupFamily.ELEMENTARY_ABELIAN)


@pytest.mark.parametrize("generators", [[1], None])
@pytest.mark.parametrize("text", ["D16", "SD(16)", "ES+(3)"])
def test_enumeration_does_not_read_the_generators(text, generators, lattice_of):
    """The public constructor takes no generator list, so none can steer
    enumeration: the table alone, through the constructor's checks, gives
    the lattice of the catalog build, which skips them."""
    built = lattice_of(text)
    if generators is not None:
        with pytest.raises(TypeError, match="generators"):
            FiniteGroup(text, built.group.mul_table, generators=generators)
    lattice = enumerate_subgroups(FiniteGroup(text, built.group.mul_table))
    assert lattice.classes == built.classes
    assert [m.mask for c in lattice.classes for m in c.members] == [
        m.mask for c in built.classes for m in c.members
    ]
    assert lattice.all_subgroups == built.all_subgroups
    assert lattice.walks == built.walks
    for sub in built.all_subgroups:
        assert lattice.normalizer(sub) == built.normalizer(sub)
        assert member_walk(lattice, sub) == member_walk(built, sub)


def test_subgroup_masks_and_class_lookup(lattice_of):
    lattice = lattice_of("D8")
    for sub in lattice.all_subgroups:
        mask = sub.mask
        assert [x for x in range(lattice.group.order) if mask >> x & 1] == list(sub.elements)
        assert class_index_of(lattice, sub) == class_index_of(lattice, iter(sub.elements))
    for cls in lattice.classes:
        masks = [m.mask for m in cls.members]
        assert len(set(masks)) == len(masks)
        assert [class_index_of(lattice, m) for m in cls.members] == [cls.class_index] * len(masks)
    for bad in ([0, 1, 2], [0, 8], [-1, 0]):
        with pytest.raises(ValueError):
            class_index_of(lattice, bad)


def test_class_lookup_rejects_a_huge_id_before_building_a_mask(lattice_of):
    lattice = lattice_of("D8")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="does not belong to this lattice"):
        class_index_of(lattice, [0, 10**12])
    assert time.perf_counter() - start < 1.0

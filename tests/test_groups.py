from __future__ import annotations

import re
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from _oracles import (
    conjugate_subgroup,
    generated_subgroup,
    is_closed_subset,
    loop_element_order,
    loop_perm_table,
    loop_power,
    subgroup_from_elements,
    verify_group_axioms,
)
from burnside import (
    CapExceededError,
    FiniteGroup,
    GroupSpec,
    Subgroup,
    build_group,
    direct_product,
    group_from_perm_generators,
    parse_group_spec,
    parse_permutation,
    parse_permutation_file,
    standard_catalog,
    verify_main_theorem,
)
from burnside import catalog as catalog_module
from burnside import groups as groups_module
from burnside.groups import check_enumeration_cap, subgroup_mask

S3_GENS = [(1, 2, 0), (1, 0, 2)]

PERM_FILES = {
    "S4": "degree 4\n(0 1 2 3)\n(0 1)\n",
    "S5": "degree 5\n(0 1 2 3 4)\n(0 1)\n",
    "S3xS3": "degree 6\n(0 1 2)\n(0 1)\n(3 4 5)\n(3 4)\n",
}


def test_trivial_closure():
    g = group_from_perm_generators(1, [])
    assert g.order == 1
    assert g.mul_table[0][0] == 0


def test_symmetric_group_on_three_points():
    g = group_from_perm_generators(3, S3_GENS)
    assert g.order == 6
    assert not g.is_abelian()
    verify_group_axioms(g)


def test_four_cycle_gives_cyclic_group():
    g = group_from_perm_generators(4, [(1, 2, 3, 0)])
    assert g.order == 4
    assert sorted(len(g.powers[x]) for x in g.elements()) == [1, 2, 4, 4]


def test_identity_is_element_zero():
    g = group_from_perm_generators(3, S3_GENS)
    for x in g.elements():
        assert g.mul_table[0][x] == x == g.mul_table[x][0]


def test_rejects_non_bijective_generator():
    with pytest.raises(ValueError):
        group_from_perm_generators(3, [(0, 0, 1)])


@pytest.mark.parametrize(
    "generator", [(0, 0, 1), (1, 1, 2), (0, 2, 3), (-1, 1, 0), (0, 1), (0, 1, 2, 3), (2, 0, 0)]
)
def test_rejects_each_kind_of_non_bijection(generator):
    """Too short, too long, a repeated point, or a moved point sent
    outside 0..degree-1 or off the moved points: each is named by its
    position among the generators."""
    with pytest.raises(ValueError, match="generator 1 is not a bijection on 0..2"):
        group_from_perm_generators(3, [(1, 0, 2), generator])


@pytest.mark.parametrize(
    "large, small",
    [
        (["(0 1)", "(2 3 4)"], ["(0 1)", "(2 3 4)"]),
        (["(0 1 2 3 4)", "(0 1)"], ["(0 1 2 3 4)", "(0 1)"]),
        (["(999999 3)", "(5 7 999998)"], ["(4 0)", "(1 2 3)"]),
    ],
    ids=["C2xC3", "S5", "far-points"],
)
def test_a_large_degree_closes_on_the_moved_points(large, small, tmp_path):
    """Every element fixes the points no generator moves, so generators of
    degree 10^6 give the table of their twins on the moved points alone,
    relabelled: the same elements in the same order.
    A closure on full-length permutations would compose S5's 120
    elements with each generator as tuples of 10^6 points."""
    tables = []
    for degree, lines in ((10**6, large), (5, small)):
        path = tmp_path / f"degree-{degree}.perm"
        path.write_text("\n".join([f"degree {degree}", *lines, ""]), encoding="utf-8")
        tables.append(build_group(parse_group_spec(f"perm:{path}")).mul_table)
    assert tables[0] == tables[1]


def test_rejects_closure_beyond_cap():
    with pytest.raises(CapExceededError):
        group_from_perm_generators(3, S3_GENS, order_cap=4)


def test_build_group_checks_the_cap_before_building_a_table(monkeypatch):
    """A catalog order over the cap is rejected before its table exists,
    as a perm closure stops at it; a product is checked on its whole order."""
    spec = GroupSpec("cyclic", (2, 11))
    over = "^group order {} exceeds the enumeration cap 256$"
    with monkeypatch.context() as patch:
        patch.setattr(catalog_module, "_cyclic_table", None)  # calling it would raise TypeError
        with pytest.raises(CapExceededError, match=over.format(2048)):
            build_group(spec)
        with pytest.raises(CapExceededError, match=over.format(512)):
            build_group(parse_group_spec("D16xC(2^5)"))
    assert build_group(spec, cap=2048).order == 2048


def test_element_orders():
    c8 = build_group(parse_group_spec("C(2^3)"))
    assert len(c8.powers[0]) == 1
    assert len(c8.powers[1]) == 8
    q8 = build_group(parse_group_spec("Q8"))
    # h (id |G|/2) squares to the half-turn of g (id 1), so it has order 4
    g, h = 1, q8.order // 2
    assert q8.mul_table[h][h] == q8.power(g, 2)
    assert len(q8.powers[h]) == 4


def _power_oracle_groups():
    for spec in standard_catalog(128):
        yield build_group(spec)
    for name, text in PERM_FILES.items():
        yield group_from_perm_generators(*parse_permutation_file(text), name=name)


def test_powers_match_the_loop_oracle():
    """The recorded powers of every element, its order and its k-th powers
    (k negative, zero, past the order and up to |G|) equal repeated
    multiplication."""
    for g in _power_oracle_groups():
        for x in g.elements():
            order = loop_element_order(g, x)
            assert g.powers[x] == tuple(loop_power(g, x, k) for k in range(order)), g.name
            assert len(g.powers[x]) == order
            for k in (-1, 0, 1, 2, order, order + 1, g.order):
                assert g.power(x, k) == loop_power(g, x, k), (g.name, x, k)


@pytest.mark.parametrize(
    "text",
    [*PERM_FILES.values(), "degree 1\n", "degree 1\n()\n"],
    ids=[*PERM_FILES, "trivial", "trivial-identity"],
)
def test_perm_tables_match_the_loop_oracle(text):
    """The columns gathered off the closure's Cayley graph give the table
    of composing the two permutations point by point, one point too."""
    degree, gens = parse_permutation_file(text)
    table = group_from_perm_generators(degree, gens).mul_table
    assert table == tuple(map(tuple, loop_perm_table(degree, gens)))


def test_a_power_walk_that_never_reaches_the_identity_raises():
    """The tables a builder hands over are not checked, but a column that is
    not a permutation, so that the powers of its element never return to the
    identity, stops the walk after |G| steps with an error naming it."""
    table = [(0, 1, 2), (1, 2, 2), (2, 2, 2)]  # column 1 walks 0, 1, 2, 2, ...
    with pytest.raises(RuntimeError, match="element 1 never reach the identity"):
        FiniteGroup._from_valid_table("stuck", table)


def test_tables_of_bools_and_integral_floats_give_the_int_group():
    """Entries that are not ints are copied through int, as are tables
    whose rows mix them with ints; an int table is kept as tuples."""
    q8 = build_group(parse_group_spec("Q8")).mul_table
    rows = [list(row) for row in q8]
    for table, other in (
        ([[0, 1], [1, 0]], [[False, True], [True, False]]),
        ([[0, 1], [1, 0]], [[0.0, 1.0], [1, 0]]),
        (rows, [[float(x) for x in row] for row in rows]),
    ):
        expected = FiniteGroup("int", table)
        group = FiniteGroup("other", other)
        assert group.mul_table == expected.mul_table == tuple(map(tuple, table))
        assert {type(x) for row in group.mul_table for x in row} == {int}
        assert group.inv_table == expected.inv_table
        assert group.powers == expected.powers
        assert group.is_abelian() == expected.is_abelian()
    # rows that are already int tuples are kept, not copied
    assert all(a is b for a, b in zip(FiniteGroup("q8", q8).mul_table, q8))


INEXACT_ENTRIES = [1.5, Fraction(3, 2), "1", float("nan"), float("inf"), None]


@pytest.mark.parametrize("bad", INEXACT_ENTRIES, ids=repr)
def test_a_table_entry_that_is_no_integer_raises(bad):
    """A table entry is copied through int only when it equals its int:
    [[0, 1.5], [1.5, 0]] would otherwise build C2, as would the table of
    strings '0' and '1'; the error names the entry."""
    with pytest.raises(ValueError, match=rf"^entry {re.escape(repr(bad))} is not an integer$"):
        FiniteGroup("t", [[0, bad], [bad, 0]])
    with pytest.raises(ValueError, match="entry '0' is not an integer"):
        FiniteGroup("t", [["0", "1"], ["1", "0"]])
    whole = FiniteGroup("t", [[0, Fraction(1)], [1.0, False]])
    assert whole.mul_table == ((0, 1), (1, 0))


@pytest.mark.parametrize("bad", INEXACT_ENTRIES, ids=repr)
def test_a_subgroup_id_that_is_no_integer_raises(bad):
    """Subgroup([0, 1.7, '2']) would otherwise have elements (0, 1, 2)."""
    with pytest.raises(ValueError, match=rf"^entry {re.escape(repr(bad))} is not an integer$"):
        Subgroup([0, bad, 2])
    with pytest.raises(ValueError, match="entry 1.7 is not an integer"):
        Subgroup([0, 1.7, "2"])
    assert Subgroup([0, 1.0, True, Fraction(2)]).elements == (0, 1, 2)


@pytest.mark.parametrize("bad", INEXACT_ENTRIES, ids=repr)
def test_a_permutation_entry_that_is_no_integer_raises(bad):
    """group_from_perm_generators(3, [[1.9, 0, '2']]) would otherwise close
    a group of order 2."""
    with pytest.raises(ValueError, match=rf"^entry {re.escape(repr(bad))} is not an integer$"):
        group_from_perm_generators(3, [[1, 0, bad]])
    with pytest.raises(ValueError, match="entry 1.9 is not an integer"):
        group_from_perm_generators(3, [[1.9, 0, "2"]])
    group = group_from_perm_generators(3, [(1, 2, 0), [1.0, False, Fraction(2)]])
    assert group.mul_table == group_from_perm_generators(3, S3_GENS).mul_table


def test_order_of_product_is_symmetric():
    for text in ("D8", "Q8", "C12"):
        g = build_group(parse_group_spec(text))
        for x in g.elements():
            for y in g.elements():
                assert len(g.powers[g.mul_table[x][y]]) == len(g.powers[g.mul_table[y][x]])


def test_generated_subgroup_empty_seed():
    g = build_group(parse_group_spec("D8"))
    assert generated_subgroup(g, []).elements == (0,)


def test_generated_subgroup_in_cyclic_group():
    c27 = build_group(parse_group_spec("C(3^3)"))
    for x in c27.elements():
        sub = generated_subgroup(c27, [x])
        assert sub.order == len(c27.powers[x])


def test_generated_subgroup_whole_quaternion_group():
    q8 = build_group(parse_group_spec("Q8"))
    assert generated_subgroup(q8, [1, 4]).order == 8


def test_generated_subgroup_idempotent():
    d8 = build_group(parse_group_spec("D8"))
    sub = generated_subgroup(d8, [1, 4])
    again = generated_subgroup(d8, sub.elements)
    assert again == sub


def test_conjugation_by_identity_and_of_normal_subgroup():
    d8 = build_group(parse_group_spec("D8"))
    center = generated_subgroup(d8, [2])
    assert conjugate_subgroup(d8, center, 0) == center
    for g in d8.elements():
        assert conjugate_subgroup(d8, center, g) == center


def test_conjugation_moves_reflection_subgroup():
    # In the dihedral group of order 8 the rotation of order 4 swaps the
    # two reflections in each conjugacy class of order-2 subgroups.
    d8 = build_group(parse_group_spec("D8"))
    g, h = 1, d8.order // 2  # the rotation and a reflection
    refl = generated_subgroup(d8, [h])
    moved = conjugate_subgroup(d8, refl, g)
    assert moved != refl
    assert moved.order == 2
    assert moved == generated_subgroup(d8, [d8.mul_table[d8.power(g, 2)][h]])


def test_conjugate_subgroup_preserves_order():
    q8 = build_group(parse_group_spec("Q8"))
    for elems in ([0, 2], [0, 1, 2, 3]):
        sub = Subgroup(elems)
        for g in q8.elements():
            assert conjugate_subgroup(q8, sub, g).order == sub.order


def test_subgroup_carries_its_bitmask():
    sub = Subgroup([4, 0, 2, 2])
    assert sub.elements == (0, 2, 4)
    assert sub.mask == 0b10101
    assert [x for x in range(-2, 7) if x in sub] == [0, 2, 4]
    assert Subgroup([]).mask == 0
    with pytest.raises(ValueError):
        Subgroup([-1, 0])
    assert subgroup_mask([4, 0, 2, 2, 4, 0]) == 0b10101
    assert subgroup_mask([]) == 0
    with pytest.raises(ValueError):
        subgroup_mask([3, -1, 0])


def test_subgroup_validation():
    d8 = build_group(parse_group_spec("D8"))
    assert is_closed_subset(d8, {0, 2})
    assert not is_closed_subset(d8, {0, 1})
    assert subgroup_from_elements(d8, [2]).elements == (0, 2)
    with pytest.raises(ValueError):
        subgroup_from_elements(d8, [1])


def test_direct_product_structure():
    c4 = build_group(parse_group_spec("C4"))
    s3 = group_from_perm_generators(3, S3_GENS)
    prod = direct_product(c4, s3)
    assert prod.order == 24
    assert not prod.is_abelian()
    verify_group_axioms(prod)


def test_verify_group_axioms_rejects_bad_table():
    # A latin square that is not associative: the cyclic table with two
    # rows swapped away from the identity row.
    table = [
        [0, 1, 2, 3, 4],
        [1, 2, 3, 4, 0],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 0, 1, 2, 3],
    ]
    try:
        g = FiniteGroup("bad", table)
    except ValueError:
        return
    with pytest.raises(ValueError):
        verify_group_axioms(g)


# Latin squares with identity 0 and two-sided inverses that are not
# associative: the order-5 loop's "subgroups" have orders 2 and 4, and the
# order-6 loop came from a seeded random search over such squares.
NON_ASSOCIATIVE_LOOPS = {
    "order5": ("01234", "10342", "24013", "32401", "43120"),
    "order6": ("012345", "105234", "230451", "324510", "453102", "541023"),
}


@pytest.mark.parametrize("rows", NON_ASSOCIATIVE_LOOPS.values(), ids=list(NON_ASSOCIATIVE_LOOPS))
def test_public_constructor_rejects_a_non_associative_loop(rows, monkeypatch):
    table = [[int(c) for c in row] for row in rows]
    with pytest.raises(ValueError, match=r"associativity fails at \(1, 1, 2\)"):
        FiniteGroup("loop", table)
    assert table[table[1][1]][2] != table[1][table[1][2]]
    # every other public check passes
    monkeypatch.setattr(groups_module, "_check_associative", lambda table: None)
    loop = FiniteGroup("loop", table)
    with pytest.raises(ValueError, match="associativity fails"):
        verify_group_axioms(loop)


def test_parse_permutation_cycles():
    assert parse_permutation("(0 1 2)(3 4)", 5) == (1, 2, 0, 4, 3)
    assert parse_permutation("()", 3) == (0, 1, 2)
    assert parse_permutation("  ( 0 2 )  ", 3) == (2, 1, 0)
    with pytest.raises(ValueError):
        parse_permutation("(0 1)(1 2)", 3)
    with pytest.raises(ValueError):
        parse_permutation("(0 5)", 3)
    with pytest.raises(ValueError):
        parse_permutation("0 1 2", 3)


def test_parse_permutation_names_a_point_that_is_not_an_integer(tmp_path):
    message = "point 'x' is not an integer in permutation '(0 1 x)'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_permutation(" (0 1 x) ", 3)
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_permutation_file("degree 3\n(0 1)\n(0 1 x)\n")
    with pytest.raises(ValueError, match="point -1 out of range for degree 3"):
        parse_permutation("(0 -1)", 3)


def test_parse_permutation_file(tmp_path):
    text = "degree 3\n(0 1 2)\n(0 1)\n"
    degree, gens = parse_permutation_file(text)
    assert degree == 3
    assert gens == [(1, 2, 0), (1, 0, 2)]
    with pytest.raises(ValueError):
        parse_permutation_file("(0 1 2)\n")
    path = tmp_path / "s3.txt"
    path.write_text(text, encoding="utf-8")
    g = build_group(parse_group_spec(f"perm:{path}"))
    assert g.order == 6


# a Latin square with identity 0 in which 2 * 3 = 0 but 3 * 2 = 1
NO_TWO_SIDED_INVERSE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


@pytest.mark.parametrize(
    "table, message",
    [
        ([], "multiplication table is empty"),
        ([[0, 1], [1]], "row 1 has length 1, expected 2"),
        ([[0, 1], [1, 1]], "row 1 is not a permutation of the elements"),
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column 1 is not a permutation of the elements"),
        ([[1, 0], [0, 1]], "element 0 does not act as the identity"),
        (NO_TWO_SIDED_INVERSE, "element 2 has no two-sided inverse"),
    ],
)
def test_invalid_table_messages(table, message):
    with pytest.raises(ValueError) as info:
        FiniteGroup("bad", table)
    assert str(info.value) == message


def test_cap_check_on_powers_matches_the_multiplied_order():
    """An order given as powers is judged as the product would be, and the
    message names that product in decimal; an order that passes returns
    the cap applied, the default when none is given."""
    for cap in (1, 2, 7, 8, 255, 256, 1000):
        for base in (*range(12), 255, 257, 2**70 + 1):
            for exponent in range(12):
                for rest in ((), ((3, 2),), ((1, 10**12),)):
                    powers = ((base, exponent), *rest)
                    order = prod(b**e for b, e in powers)
                    if order <= cap:
                        assert check_enumeration_cap(powers, cap) == cap
                        continue
                    with pytest.raises(CapExceededError) as err:
                        check_enumeration_cap(powers, cap)
                    assert str(err.value) == (
                        f"group order {order} exceeds the enumeration cap {cap}"
                    )
    assert check_enumeration_cap(None, 1) == 1
    assert check_enumeration_cap(None) == check_enumeration_cap(256) == 256
    with pytest.raises(CapExceededError, match="^group order 257 exceeds the enumeration cap 256$"):
        check_enumeration_cap(257)


ROOT = Path(__file__).resolve().parents[1]
BUILT_SPECS = [
    *(spec.text() for spec in standard_catalog(256)),
    "ES+(7)",
    "ES-(7)",
    "Q8xC2",
    "D8xC3xQ8",
    f"perm:{ROOT / 'bench' / 'data' / 's5.perm'}",
]


def _built_groups():
    """Every kind of table the package builds without the public checks:
    catalog specs, products of specs, perm closures, and the direct
    product of two perm groups."""
    for text in BUILT_SPECS:  # ES+(7) and ES-(7), of order 343, are over the default cap
        yield text, build_group(parse_group_spec(text), cap=1000)
    s6 = ROOT / "tests" / "data" / "s6.perm"
    yield "S6", build_group(parse_group_spec(f"perm:{s6}"), cap=1000)
    s3 = group_from_perm_generators(3, S3_GENS)
    yield "S3xS4", direct_product(s3, group_from_perm_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)]))


def test_built_tables_pass_the_public_checks():
    """Package builders skip the public constructor's checks; each table
    they make passes those checks and gives the same group through them,
    and is associative by Light's test."""
    for text, group in _built_groups():
        checked = FiniteGroup(group.name, group.mul_table)
        assert checked.mul_table == group.mul_table, text
        assert checked.inv_table == group.inv_table, text
        assert group.inv_table == tuple(row.index(0) for row in group.mul_table), text
        assert checked.powers == group.powers, text
        assert checked.is_abelian() == group.is_abelian(), text
        assert checked.columns == group.columns == tuple(zip(*group.mul_table)), text
        assert (group.columns is group.mul_table) == group.is_abelian(), text
        assert type(group.mul_table) is tuple and all(type(r) is tuple for r in group.mul_table)


def test_builders_never_call_the_public_checks(monkeypatch):
    """With the public validation patched to raise, every catalog group up
    to order 256 still builds and verify_main_theorem(128) still runs."""

    def refuse(mul_table):
        raise AssertionError("a package builder ran the public table checks")

    monkeypatch.setattr(groups_module, "_validated_table", refuse)
    with pytest.raises(AssertionError):
        FiniteGroup("C1", [[0]])
    for spec in standard_catalog(256):
        assert build_group(spec).order == spec.order()
    assert len(verify_main_theorem(128).rows) == len(standard_catalog(128))

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    conjugate,
    loop_build_group,
    pairwise_is_abelian,
    partition_filter_catalog,
    search_maximal_cyclic_2group,
    verify_group_axioms,
)
from burnside import (
    FiniteGroup,
    GroupSpec,
    MaximalCyclicType,
    SpecParseError,
    build_group,
    classify_maximal_cyclic_2group,
    parse_group_spec,
    standard_catalog,
)
import burnside.catalog


def test_cyclic_build_has_full_order_element():
    g = build_group(GroupSpec("cyclic", (2, 3)))
    assert g.order == 8
    assert max(len(g.powers[x]) for x in g.elements()) == 8


def test_quaternion8_has_unique_involution():
    g = build_group(GroupSpec("quaternion", (8,)))
    assert g.order == 8
    assert not g.is_abelian()
    assert sum(1 for x in g.elements() if len(g.powers[x]) == 2) == 1


def test_semidihedral16_relation():
    g = build_group(GroupSpec("semidihedral", (16,)))
    assert g.order == 16
    assert not g.is_abelian()
    a, h = 1, g.order // 2  # the _cyclic_extension ids of g and h
    assert len(g.powers[a]) == 8
    assert conjugate(g, h, a) == g.power(a, 3)


def test_modular16_relation():
    g = build_group(GroupSpec("modular", (16,)))
    a, h = 1, g.order // 2  # the _cyclic_extension ids of g and h
    assert len(g.powers[a]) == 8
    assert len(g.powers[h]) == 2
    assert conjugate(g, h, a) == g.power(a, 5)


def test_dihedral_relations():
    g = build_group(GroupSpec("dihedral", (16,)))
    a, h = 1, g.order // 2  # the _cyclic_extension ids of g and h
    assert len(g.powers[a]) == 8
    assert len(g.powers[h]) == 2
    assert conjugate(g, h, a) == g.inv_table[a]


def test_extraspecial_plus_is_exponent_p():
    g = build_group(GroupSpec("extraspecial_plus", (3,)))
    assert g.order == 27
    assert not g.is_abelian()
    assert all(g.power(x, 3) == 0 for x in g.elements())


def test_extraspecial_minus_has_exponent_p_squared():
    g = build_group(GroupSpec("extraspecial_minus", (3,)))
    assert g.order == 27
    assert not g.is_abelian()
    assert max(len(g.powers[x]) for x in g.elements()) == 9


def test_nominal_orders_and_axioms_across_catalog():
    # the public constructor checks the group axioms, associativity by
    # Light's test on a generating set it finds
    for spec in standard_catalog(128):
        g = build_group(spec)
        assert g.order == spec.order()
        assert spec.is_abelian() == g.is_abelian()
        assert FiniteGroup(g.name, g.mul_table).mul_table == g.mul_table


@pytest.mark.parametrize(
    "spec",
    [
        *standard_catalog(256),
        parse_group_spec("ES+(7)"),
        parse_group_spec("ES-(7)"),
        parse_group_spec("Q8xC2"),
        parse_group_spec("D8xC3xQ8"),
    ],
    ids=lambda spec: spec.text(),
)
def test_build_matches_the_loop_oracle(spec):
    """Every table and abelian flag equals the one built
    entry by entry in nested loops and checked pair by pair. ES+(7) and
    ES-(7), of order 343, are over the default cap."""
    group, oracle = build_group(spec, cap=1000), loop_build_group(spec)
    assert group.name == oracle.name
    assert group.mul_table == oracle.mul_table
    assert group.is_abelian() == pairwise_is_abelian(oracle)


def test_axioms_exhaustively_on_small_builds():
    for text in ("C(2^3)", "Q8", "D8", "SD(16)", "M(16)", "ES+(3)", "ES-(3)", "C4xC2"):
        verify_group_axioms(build_group(parse_group_spec(text)))


def test_direct_product_spec_order_and_commutativity():
    q8, c2 = GroupSpec("quaternion", (8,)), GroupSpec("cyclic", (2, 1))
    spec = GroupSpec("direct_product", (q8, c2))
    g = build_group(spec)
    assert g.order == 16
    assert not g.is_abelian()
    c4, c3 = GroupSpec("cyclic", (2, 2)), GroupSpec("cyclic", (3, 1))
    both = GroupSpec("direct_product", (c4, c3))
    assert build_group(both).is_abelian()
    # the spec's flag comes from its factors, without a build
    for product in (spec, both, parse_group_spec("Q8xC2"), parse_group_spec("D8xC4")):
        assert product.kind == "direct_product"
        assert product.is_abelian() == build_group(product).is_abelian()
    assert GroupSpec("direct_product", (q8, GroupSpec("perm", ("g.perm",)))).is_abelian() is None


@pytest.mark.parametrize(
    "builder,expected",
    [
        (GroupSpec("quaternion", (16,)), MaximalCyclicType.QUATERNION),
        (GroupSpec("quaternion", (8,)), MaximalCyclicType.QUATERNION),
        (GroupSpec("dihedral", (8,)), MaximalCyclicType.DIHEDRAL),
        (GroupSpec("dihedral", (32,)), MaximalCyclicType.DIHEDRAL),
        (GroupSpec("semidihedral", (16,)), MaximalCyclicType.SEMIDIHEDRAL),
        (GroupSpec("semidihedral", (64,)), MaximalCyclicType.SEMIDIHEDRAL),
        (GroupSpec("modular", (16,)), MaximalCyclicType.MODULAR),
        (GroupSpec("modular", (64,)), MaximalCyclicType.MODULAR),
        (GroupSpec("cyclic", (2, 4)), MaximalCyclicType.CYCLIC),
        (GroupSpec("elementary_abelian", (2, 3)), MaximalCyclicType.NOT_MAXIMAL_CYCLIC),
    ],
)
def test_classification_of_two_groups(builder, expected):
    assert classify_maximal_cyclic_2group(build_group(builder)) is expected


# 2-groups that only products or permutations give, beside the catalog's
CLASSIFIED_PRODUCTS = [
    "D(256)", "Q(256)", "SD(256)", "M(256)", "Q8xC2", "D8xC2", "D8xC4", "Q16xC2",
    "SD16xC2", "M16xC2", "Q8xQ8", "D8xD8", "M(32)xC2", "C4xC4xC2",
]
CLASSIFIED_PERM_FILES = {
    "D8": "degree 4\n(0 1 2 3)\n(0 2)\n",
    "Q8": "degree 8\n(0 1 2 3)(4 5 6 7)\n(0 4 2 6)(1 7 3 5)\n",
    "SD16": "degree 8\n(0 1 2 3 4 5 6 7)\n(1 3)(2 6)(5 7)\n",
    "C2wrC2wrC2": "degree 8\n(0 1)\n(0 2)(1 3)\n(0 4)(1 5)(2 6)(3 7)\n",
}


def test_classification_equals_the_generator_pair_search(tmp_path):
    """The involution count names the type that the search over (g, h)
    pairs finds, on every catalog 2-group up to order 256, on products and
    on permutation groups, and every type occurs."""
    groups = [build_group(s) for s in standard_catalog(256) if s.order() & (s.order() - 1) == 0]
    groups += [build_group(parse_group_spec(text)) for text in CLASSIFIED_PRODUCTS]
    for name, text in CLASSIFIED_PERM_FILES.items():
        path = tmp_path / f"{name}.perm"
        path.write_text(text, encoding="utf-8")
        groups.append(build_group(parse_group_spec(f"perm:{path}")))
    found = [(g.name, classify_maximal_cyclic_2group(g)) for g in groups]
    assert found == [(g.name, search_maximal_cyclic_2group(g)) for g in groups]
    assert {kind for _, kind in found} == set(MaximalCyclicType)
    assert [g.order for g in groups[-4:]] == [8, 8, 16, 128]


def test_classification_abelian_with_large_cyclic_part():
    # C8 x C2 has an element of half the group order but is abelian.
    g = build_group(parse_group_spec("C8xC2"))
    assert classify_maximal_cyclic_2group(g) is MaximalCyclicType.NOT_MAXIMAL_CYCLIC


def test_classification_rejects_odd_order():
    with pytest.raises(ValueError):
        classify_maximal_cyclic_2group(build_group(GroupSpec("cyclic", (3, 2))))


def test_parse_examples():
    assert parse_group_spec("C(2^3)") == GroupSpec("cyclic", (2, 3))
    assert parse_group_spec("C4xC2") == GroupSpec("abelian_product", (4, 2))
    assert parse_group_spec("SD(16)") == GroupSpec("semidihedral", (16,))
    assert parse_group_spec("EA(3,2)") == GroupSpec("elementary_abelian", (3, 2))
    assert parse_group_spec("ES+(5)") == GroupSpec("extraspecial_plus", (5,))
    assert parse_group_spec("ES-(3)") == GroupSpec("extraspecial_minus", (3,))
    assert parse_group_spec("Q8") == GroupSpec("quaternion", (8,))
    assert parse_group_spec("D8") == GroupSpec("dihedral", (8,))
    assert parse_group_spec("M(32)") == GroupSpec("modular", (32,))
    assert parse_group_spec("C1") == GroupSpec("cyclic", (2, 0))
    assert parse_group_spec("perm:/tmp/gens.txt") == GroupSpec("perm", ("/tmp/gens.txt",))


def test_parse_is_whitespace_insensitive():
    assert parse_group_spec("C4xC2x C2") == GroupSpec("abelian_product", (4, 2, 2))
    assert parse_group_spec(" C( 2 ^ 3 ) ") == GroupSpec("cyclic", (2, 3))


def test_parse_mixed_product():
    spec = parse_group_spec("Q8xC2")
    assert spec.kind == "direct_product"
    assert spec.params[0] == GroupSpec("quaternion", (8,))
    assert spec.params[1] == GroupSpec("cyclic", (2, 1))


def test_parse_composite_cyclic_orders():
    spec = parse_group_spec("C6")
    assert spec.kind == "abelian_product"
    assert build_group(spec).order == 6
    assert max(map(len, build_group(spec).powers)) == 6


def test_parse_and_build_errors():
    with pytest.raises(SpecParseError):
        parse_group_spec("SD(8)")
    with pytest.raises(SpecParseError):
        parse_group_spec("D(4)")
    with pytest.raises(SpecParseError):
        parse_group_spec("D(12)")
    with pytest.raises(SpecParseError):
        parse_group_spec("C(4^2)")
    with pytest.raises(SpecParseError):
        parse_group_spec("ES+(2)")
    with pytest.raises(SpecParseError):
        parse_group_spec("")
    with pytest.raises(SpecParseError):
        parse_group_spec("Z9")
    with pytest.raises(SpecParseError) as err:
        parse_group_spec("C4xWAT")
    assert "position" in str(err.value)
    for text in ("C0", "C(0)"):
        with pytest.raises(SpecParseError, match=r"^at position 0: .* positive, got 0$"):
            parse_group_spec(text)
    for kind, params in (("dihedral", ()), ("cyclic", (2,)), ("perm", ("a", "b"))):
        with pytest.raises(SpecParseError):
            GroupSpec(kind, params)


def test_every_spec_constructor_checks_its_parameters():
    c2 = GroupSpec("cyclic", (2, 1))
    assert c2 == ("cyclic", (2, 1)) and GroupSpec._make(c2) == c2
    assert c2._replace(params=(3, 2)) == GroupSpec("cyclic", (3, 2))
    assert pickle.loads(pickle.dumps(c2)) == c2 and copy.deepcopy(c2) == c2
    message = "cyclic group needs a prime base, got C(4^1)"
    for make in (
        lambda: GroupSpec("cyclic", (4, 1)),
        lambda: GroupSpec._make(("cyclic", (4, 1))),
        lambda: c2._replace(params=(4, 1)),
    ):
        with pytest.raises(SpecParseError) as err:
            make()
        assert str(err.value) == message
    with pytest.raises(SpecParseError, match="unknown group kind 'bogus'"):
        c2._replace(kind="bogus")


@pytest.mark.parametrize(
    "kind,params",
    [
        ("cyclic", (2, 3.0)),
        ("cyclic", (2.0, 3)),
        ("cyclic", (2, True)),
        ("elementary_abelian", (2, 3.0)),
        ("abelian_product", (4.0, 2)),
        ("abelian_product", (4, Fraction(2))),
        ("dihedral", (16.0,)),
        ("extraspecial_minus", (3.0,)),
        ("extraspecial_plus", (Fraction(3),)),
    ],
)
def test_spec_parameters_that_are_not_ints_raise(kind, params):
    """A float or a bool equal to a valid parameter would pass the kind's
    check and print as C(2^3.0) or C(2^True); every parameter of a number
    kind must be an int."""
    with pytest.raises(SpecParseError, match=rf"^{kind} spec cannot take parameters "):
        GroupSpec(kind, params)
    assert GroupSpec(kind, tuple(map(int, params))).order() > 1


def test_a_perm_spec_takes_a_path_object(tmp_path):
    """Only number parameters must be ints: a perm spec's file may be
    named by a path object as well as by a string."""
    path = tmp_path / "c3.perm"
    path.write_text("degree 3\n(0 1 2)\n", encoding="utf-8")
    assert build_group(GroupSpec("perm", (path,))).order == 3


@pytest.mark.parametrize(
    "make,message",
    [
        (
            lambda: parse_group_spec("SD(8)"),
            "at position 0: semidihedral groups are defined for orders 2^n with n >= 4, got 8",
        ),
        (
            lambda: parse_group_spec("D(12)"),
            "at position 0: dihedral groups are defined for orders 2^n with n >= 3, got 12",
        ),
        (
            lambda: parse_group_spec("C(4^2)"),
            "at position 0: cyclic group needs a prime base, got C(4^2)",
        ),
        (
            lambda: parse_group_spec("EA(2,0)"),
            "at position 0: invalid elementary abelian parameters (2,0)",
        ),
        (
            lambda: parse_group_spec("ES+(2)"),
            "at position 0: extraspecial kinds need an odd prime, got 2; "
            "the order-8 cases are D(8) and Q(8)",
        ),
        (lambda: parse_group_spec("perm:"), "perm spec needs a file path"),
        (lambda: GroupSpec("bogus", ()), "unknown group kind 'bogus'"),
        (
            lambda: GroupSpec("abelian_product", (6,)),
            "abelian product factors must be prime powers, got 6",
        ),
        (
            lambda: GroupSpec("direct_product", (GroupSpec("cyclic", (2, 1)), 3)),
            "direct product factors must be GroupSpecs",
        ),
    ],
    ids=["SD8", "D12", "C4^2", "EA2-0", "ES+2", "perm", "kind", "abelian", "direct"],
)
def test_invalid_spec_messages(make, message):
    with pytest.raises(SpecParseError) as err:
        make()
    assert str(err.value) == message


def test_spec_text_round_trip():
    for spec in standard_catalog(64):
        assert parse_group_spec(spec.text()) == spec
    # all-cyclic products left with at most one factor are that cyclic group
    for text, same in (("C4xC1", "C4"), ("C4xC1xC1", "C4"), ("C1xC1", "C1")):
        spec = parse_group_spec(text)
        assert spec == parse_group_spec(same)
        assert parse_group_spec(spec.text()) == spec


def test_single_cyclic_atom_is_canonical():
    # a lone atom takes the same fold as a product: C(p^0) is C1 for any p
    for text in ("C(3^0)", "C(5^0)", "C(2^0)", "C(3^0)xC1"):
        assert parse_group_spec(text) == parse_group_spec("C1") == GroupSpec("cyclic", (2, 0))
    assert parse_group_spec("C(3^2)") == GroupSpec("cyclic", (3, 2))
    assert parse_group_spec("C6") == GroupSpec("abelian_product", (3, 2))


def test_catalog_contents():
    specs = {s.text() for s in standard_catalog(64)}
    for expected in (
        "C1",
        "C(2^6)",
        "C(3^3)",
        "C(5^2)",
        "EA(2,5)",
        "EA(3,3)",
        "C8xC2",
        "C8xC8",
        "D(8)",
        "Q(16)",
        "SD(32)",
        "M(64)",
        "ES+(3)",
        "ES-(3)",
    ):
        assert expected in specs
    # callers take the catalog as is, with no filter of their own
    for max_order in (-1, 0, 1, 7, 64, 100, 256):
        orders = [s.order() for s in standard_catalog(max_order)]
        assert orders == sorted(orders)
        assert all(o is not None and o <= max_order for o in orders)
    assert standard_catalog(-1) == standard_catalog(0) == ()


def test_catalog_lists_the_rank_two_shapes_without_partitions(monkeypatch):
    """Above order 32 the catalog makes the two-part shapes (n - k, k)
    itself: the specs, and their order, equal the earlier filter over
    every partition of n, and partitions are listed only for p^n <= 32."""
    for max_order in (1, 31, 32, 33, 64, 81, 125, 3**7, 5**5, 5**8, 2**20):
        assert standard_catalog(max_order) == partition_filter_catalog(max_order)
    # the cyclic shape goes on to the bound, the rank-two shapes stop at n = 63
    texts = {s.text() for s in standard_catalog(2**70)}
    assert {f"C(2^{n})" for n in range(60, 71)} <= texts and "C(2^71)" not in texts
    assert GroupSpec("abelian_product", (2**62, 2)).text() in texts  # order 2^63
    assert GroupSpec("abelian_product", (2**63, 2)).text() not in texts
    partitions = burnside.catalog.partitions
    listed = []

    def spy(n):
        listed.append(n)
        return partitions(n)

    monkeypatch.setattr(burnside.catalog, "partitions", spy)
    specs = standard_catalog(2**45)
    assert listed and max(listed) <= 5
    assert max(s.order() for s in specs) == 2**45


# Atoms of order <= 64 in every kind the grammar spells, plus the
# degenerate spellings of abelian groups that the parser canonicalises.
SMALL_ATOMS = (
    *standard_catalog(64),
    GroupSpec("cyclic", (3, 0)),
    GroupSpec("cyclic", (7, 2)),
    GroupSpec("elementary_abelian", (7, 2)),
    GroupSpec("abelian_product", ()),
    GroupSpec("abelian_product", (4,)),
    GroupSpec("abelian_product", (3, 2)),
    GroupSpec("abelian_product", (2, 3, 2)),
)

# Spec-shaped text: a family letter, then numbers bare, in parentheses,
# or as p^n, in products with 'x'.
GRAMMAR_ATOM = st.builds(
    lambda head, numbers, sep, paren: head
    + (f"({sep.join(numbers)})" if paren else "".join(numbers)),
    st.sampled_from(["C", "D", "Q", "SD", "M", "EA", "ES+", "ES-", "Z"]),
    st.lists(st.integers(0, 70).map(str), max_size=3),
    st.sampled_from([",", "^"]),
    st.booleans(),
)
GRAMMAR_TEXT = st.lists(GRAMMAR_ATOM, min_size=1, max_size=3).map("x".join)


@settings(derandomize=True, deadline=None)
@given(st.one_of(st.text(), GRAMMAR_TEXT))
def test_parse_raises_only_spec_errors(text):
    try:
        spec = parse_group_spec(text)
    except SpecParseError:
        return
    assert isinstance(spec, GroupSpec)


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_text_round_trip_builds_the_same_group(data):
    spec = data.draw(st.sampled_from(SMALL_ATOMS))
    while spec.order() < 64 and data.draw(st.booleans()):
        room = [a for a in SMALL_ATOMS if spec.order() * a.order() <= 64]
        other = data.draw(st.sampled_from(room))
        pair = (spec, other) if data.draw(st.booleans()) else (other, spec)
        spec = GroupSpec("direct_product", pair)
    parsed = parse_group_spec(spec.text())
    assert parsed.order() == spec.order()
    assert build_group(parsed).mul_table == build_group(spec).mul_table

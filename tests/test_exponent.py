from __future__ import annotations

import copy
import pickle
from pathlib import Path

import pytest

from _oracles import check_family_closure, divisor_search_exponent, family_witnesses
from burnside import (
    CapExceededError,
    GhostVector,
    SubgroupFamily,
    abelian_closed_form_exponent,
    artin_exponent,
    build_group,
    closed_form_exponent,
    dress_congruences,
    dress_membership,
    enumerate_subgroups,
    indicator_vector,
    parse_group_spec,
    select_family,
    standard_catalog,
    table_of_marks,
    verify_main_theorem,
)
from burnside import cli, exponent
from burnside.arith import prime_power
from burnside.burnside_ring import _down_sets, _dress_plan
from burnside.exponent import _certified

EA = SubgroupFamily.ELEMENTARY_ABELIAN
BENCH_S5 = Path(__file__).resolve().parents[1] / "bench" / "data" / "s5.perm"


def test_indicator_all_subgroups_is_all_ones(lattice_of):
    lattice = lattice_of("D8")
    assert indicator_vector(lattice, SubgroupFamily.ALL).values == (1,) * lattice.class_count


def test_indicator_on_cyclic_two_group(lattice_of):
    lattice = lattice_of("C(2^4)")
    assert indicator_vector(lattice, EA).values == (1, 1, 0, 0, 0)


def test_indicator_on_quaternion(lattice_of):
    assert indicator_vector(lattice_of("Q8"), EA).values == (1, 1, 0, 0, 0, 0)


def test_exponent_of_elementary_abelian_groups(lattice_of):
    for text in ("EA(2,2)", "EA(2,3)", "EA(3,2)", "EA(5,2)"):
        assert artin_exponent(lattice_of(text), EA).exponent == 1


def test_exponent_of_cyclic_groups(lattice_of):
    assert artin_exponent(lattice_of("C(2^3)"), EA).exponent == 4
    assert artin_exponent(lattice_of("C(3^2)"), EA).exponent == 3
    assert artin_exponent(lattice_of("C(5^2)"), EA).exponent == 5


# Exponents of the nonabelian 2-power witnesses, frozen from two
# independent derivations: the Cauchy-Frobenius-Burnside congruence pins
# the lower bound and an explicit integral preimage of e*indicator under
# the marks matrix pins the upper bound. The Weyl rows give each value,
# and the tests compare the marks solve and the family-row count with it.
FROZEN_NONABELIAN = {
    "Q8": 4,
    "D8": 4,
    "Q16": 8,
    "D16": 8,
    "SD(16)": 8,
    "M(16)": 4,
    "ES+(3)": 3,
    "ES-(3)": 3,
}


@pytest.mark.parametrize("text,expected", sorted(FROZEN_NONABELIAN.items()))
def test_exponent_of_nonabelian_witnesses(text, expected, lattice_of):
    result = artin_exponent(lattice_of(text), EA)
    assert result.method == "marks+dress"
    assert result.exponent == expected


def test_quaternion_doubled_indicator_fails_explicitly(lattice_of):
    # Direct witness that 2*indicator is not a member for Q8: the whole
    # element sum is 2*(1+1) = 4, which is not divisible by 8.
    lattice = lattice_of("Q8")
    doubled = 2 * indicator_vector(lattice, EA)
    certificate = dress_membership(lattice, doubled)
    assert not certificate.holds
    worst = [v for v in certificate.violations if (v.u_class, v.v_class) == (0, 5)]
    assert worst and worst[0].lhs_sum == 4 and worst[0].index == 8


def test_exponent_divides_group_order(lattice_of):
    for text in ("C12", "Q8", "SD(16)", "C4xC2", "ES-(3)"):
        lattice = lattice_of(text)
        result = artin_exponent(lattice, EA)
        assert lattice.group.order % result.exponent == 0


def test_certificate_covers_proper_divisors(lattice_of):
    lattice = lattice_of("Q8")
    result, certificate = _certified(lattice, EA)
    assert result == artin_exponent(lattice, EA)
    assert [w.divisor for w in certificate] == [1, 2]
    for witness in certificate:
        assert witness.violation.residue != 0
    trivial = lattice_of("EA(2,2)")
    assert _certified(trivial, EA) == (artin_exponent(trivial, EA), ())


def test_result_equality_hash_and_repr_leave_the_lattice_out(lattice_of):
    cached = artin_exponent(lattice_of("Q8"), EA)
    fresh = artin_exponent(enumerate_subgroups(build_group(parse_group_spec("Q8"))), EA)
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)
    assert "SubgroupLattice" not in repr(cached)
    assert repr(cached) == (
        "ExponentResult(exponent=4, family=<SubgroupFamily.ELEMENTARY_ABELIAN: 'ea'>, "
        f"family_classes={cached.family_classes!r}, method='marks+dress')"
    )
    assert cached != artin_exponent(lattice_of("Q8"), SubgroupFamily.CYCLIC)
    assert cached != artin_exponent(lattice_of("D8"), EA)
    with pytest.raises(AttributeError):
        cached.exponent = 2


def test_results_reports_and_cached_lattices_survive_copy_and_pickle():
    lattice = enumerate_subgroups(build_group(parse_group_spec("Q16")))
    result = artin_exponent(lattice, EA)
    report = verify_main_theorem(16)
    indicator = indicator_vector(lattice, EA).values
    derived = (
        table_of_marks(lattice).rows,
        dress_congruences(lattice),
        dress_membership(lattice, GhostVector(lattice, indicator)),
    )
    # the table of marks and the pair congruences share the down-sets, and
    # the pair congruences are summed through a plan made on first use
    kernels = {table_of_marks, dress_congruences, _down_sets, _dress_plan}
    # the class and marks records are named tuples, equal to their plain tuples
    records = (*lattice.classes, table_of_marks(lattice))
    plain = [(c.class_index, c.members, c.is_cyclic, c.is_elementary_abelian) for c in records[:-1]]
    assert list(records) == plain + [(derived[0],)]
    round_trips = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    for round_trip in round_trips:
        assert round_trip(result) == result
        assert round_trip(report) == report
        assert round_trip(records) == records
        assert [type(r) for r in round_trip(records)] == [type(r) for r in records]
        clone = round_trip(lattice)
        # the cache comes along, keyed by the exported kernels
        assert set(clone._derived) == kernels
        rows = (
            table_of_marks(clone).rows,
            dress_congruences(clone),
            dress_membership(clone, GhostVector(clone, indicator)),
        )
        assert rows == derived
        assert _certified(clone, EA) == _certified(lattice, EA)


@pytest.mark.parametrize("family", list(SubgroupFamily), ids=lambda f: f.name.lower())
def test_one_pass_exponent_matches_divisor_search(family, lattice_of):
    for spec in standard_catalog(64):
        lattice = lattice_of(spec.text())
        result, certificate = _certified(lattice, family)
        assert result == artin_exponent(lattice, family), spec.text()
        assert result.exponent == divisor_search_exponent(lattice, family), spec.text()
        assert certificate == family_witnesses(lattice, family), spec.text()


def test_exponent_one_iff_family_covers_everything(lattice_of):
    for spec in standard_catalog(32):
        lattice = lattice_of(spec.text())
        result = artin_exponent(lattice, EA)
        covers = result.family_classes == frozenset(range(lattice.class_count))
        assert (result.exponent == 1) == covers


def test_family_parameter_changes_the_answer(lattice_of):
    # on a cyclic p-group every subgroup is cyclic, so the cyclic-family
    # indicator is the all-ones vector and its exponent is 1
    for text, ea_value in (("C(2^3)", 4), ("C(3^2)", 3)):
        lattice = lattice_of(text)
        assert artin_exponent(lattice, SubgroupFamily.CYCLIC).exponent == 1
        assert artin_exponent(lattice, EA).exponent == ea_value
    assert artin_exponent(lattice_of("C2"), SubgroupFamily.CYCLIC).exponent == 1
    assert artin_exponent(lattice_of("C2"), EA).exponent == 1


def test_all_subgroups_family_gives_exponent_one(lattice_of):
    for text in ("Q8", "C12", "SD(16)"):
        assert artin_exponent(lattice_of(text), SubgroupFamily.ALL).exponent == 1


def test_non_p_group_is_supported(lattice_of):
    result = artin_exponent(lattice_of("C12"), EA)
    assert result.exponent == 12
    with pytest.raises(ValueError):
        closed_form_exponent(lattice_of("C12").group)


@pytest.mark.parametrize(
    "p,n",
    [(p, n) for p in (2, 3, 5) for n in range(1, 5) if p**n <= 256],
)
def test_cyclic_closed_form_matches_brute_force(p, n, lattice_of):
    lattice = lattice_of(f"C({p}^{n})")
    assert abelian_closed_form_exponent(lattice.group) == p ** (n - 1)
    assert artin_exponent(lattice, EA).exponent == p ** (n - 1)


def test_abelian_closed_form(lattice_of):
    assert abelian_closed_form_exponent(build_group(parse_group_spec("EA(5,2)"))) == 1
    assert abelian_closed_form_exponent(build_group(parse_group_spec("C4xC2"))) == 2
    assert abelian_closed_form_exponent(build_group(parse_group_spec("C9xC3"))) == 3
    with pytest.raises(ValueError):
        abelian_closed_form_exponent(build_group(parse_group_spec("D8")))


def test_abelian_closed_form_matches_brute_force(lattice_of):
    for text in ("C4xC2", "C9xC3", "C8xC2", "C4xC4", "EA(2,4)", "C(2^5)"):
        lattice = lattice_of(text)
        assert abelian_closed_form_exponent(lattice.group) == artin_exponent(lattice, EA).exponent


def test_closed_form_cases():
    assert closed_form_exponent(build_group(parse_group_spec("D(16)"))) == (2, "b")
    assert closed_form_exponent(build_group(parse_group_spec("Q(32)"))) == (2, "b")
    assert closed_form_exponent(build_group(parse_group_spec("SD(16)"))) == (4, "b")
    assert closed_form_exponent(build_group(parse_group_spec("ES+(3)"))) == (9, "c")
    assert closed_form_exponent(build_group(parse_group_spec("M(16)"))) == (8, "c")
    assert closed_form_exponent(build_group(parse_group_spec("C4xC2"))) == (2, "a")
    assert closed_form_exponent(build_group(parse_group_spec("C1"))) == (1, "a")
    with pytest.raises(ValueError):
        closed_form_exponent(build_group(parse_group_spec("C12")))


def test_verify_main_theorem_small_orders():
    report = verify_main_theorem(4)
    assert report.rows
    assert all(row.case == "a" for row in report.rows)
    assert report.all_agree


def test_verify_main_theorem_reports_disagreements():
    report = verify_main_theorem(8)
    by_spec = {row.spec: row for row in report.rows}
    assert by_spec["Q(8)"].brute_force == 4
    assert by_spec["Q(8)"].closed_form == 2
    assert not by_spec["Q(8)"].agree
    assert by_spec["D(8)"].brute_force == 4
    assert by_spec["C(2^3)"].agree
    assert not report.all_agree
    assert {row.spec for row in report.disagreements()} == {"Q(8)", "D(8)"}


def test_verify_main_theorem_includes_modular_16():
    report = verify_main_theorem(16)
    row = next(r for r in report.rows if r.spec == "M(16)")
    assert row.closed_form == 8
    assert row.case == "c"
    assert row.brute_force == 4


def test_verify_rows_follow_catalog_order():
    report = verify_main_theorem(16)
    orders = [row.order for row in report.rows]
    assert orders == sorted(orders)


def test_verify_main_theorem_checks_every_cap_before_any_build(monkeypatch):
    def refuse(spec, **_):
        raise AssertionError(f"built {spec.text()} before checking the cap")

    monkeypatch.setattr(exponent, "build_group", refuse)
    with pytest.raises(CapExceededError, match="group order 9 exceeds the enumeration cap 8"):
        verify_main_theorem(16, enumeration_cap=8)


def test_family_closure_property(lattice_of):
    assert check_family_closure(lattice_of("EA(2,2)"), EA)
    assert check_family_closure(lattice_of("EA(3,2)"), EA)
    # vacuous when the exponent is not 1
    assert check_family_closure(lattice_of("Q8"), EA)
    for text in ("C(2^3)", "D8", "C12"):
        assert check_family_closure(lattice_of(text), SubgroupFamily.ALL)


def test_whole_order_times_indicator_is_member(lattice_of):
    for text in ("C(2^3)", "Q8", "SD(16)", "ES+(3)", "C4xC2"):
        lattice = lattice_of(text)
        b = indicator_vector(lattice, EA)
        assert dress_membership(lattice, lattice.group.order * b).holds


def test_indicator_vector_values_are_zero_one(lattice_of):
    lattice = lattice_of("SD(16)")
    selected = select_family(lattice, EA)
    vector = indicator_vector(lattice, EA)
    for idx, value in enumerate(vector.values):
        assert value == (1 if idx in selected else 0)


@pytest.mark.parametrize(
    "text", ["Q(16)", "C8xC8xC2", f"perm:{BENCH_S5}"], ids=["Q(16)", "C8xC8xC2", "s5.perm"]
)
def test_the_exponent_and_its_witnesses_cache_nothing(text, monkeypatch, capsys):
    """Every family's exponent and certificate are summed straight off the
    walks: on a fresh lattice, neither they nor the ``exponent --certify``
    command leave anything in the lattice's cache."""
    lattice = enumerate_subgroups(build_group(parse_group_spec(text)))
    monkeypatch.setattr(cli, "_lattice_for", lambda spec: lattice)
    for family in SubgroupFamily:
        artin_exponent(lattice, family)
        _certified(lattice, family)
        assert cli.run(["exponent", text, "--family", family.value, "--certify"]) == 0
        assert lattice._derived == {}
    assert "d = " in capsys.readouterr().out


# Observed cyclic-family exponents by spec kind; every other catalog
# group (abelian non-cyclic, M(2^n), ES+-(p)) gives |G|/p.
CYCLIC_FAMILY_EXPONENT = {"cyclic": 1, "dihedral": 2, "quaternion": 2, "semidihedral": 4}


def test_cyclic_family_exponents_over_the_catalog(lattice_of):
    """The Artin exponent from cyclic subgroups (the family of T.Y. Lam's
    results) pinned on every catalog group up to order 128, as an
    observation of this package's output rather than a closed form."""
    specs = standard_catalog(128)
    assert len(specs) == 63
    for spec in specs:
        lattice = lattice_of(spec.text())
        order = lattice.group.order
        expected = CYCLIC_FAMILY_EXPONENT.get(spec.kind) or order // prime_power(order)[0]
        got = artin_exponent(lattice, SubgroupFamily.CYCLIC).exponent
        assert got == expected, spec.text()

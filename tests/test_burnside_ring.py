from __future__ import annotations

import copy
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    BurnsideElement,
    fixed_coset_count,
    fraction_marks_solve,
    fraction_minimal_multiplier,
    ghost_of,
    mark,
)
from burnside import (
    GhostVector,
    burnside_ring,
    build_group,
    cfb_check,
    dress_congruences,
    dress_membership,
    enumerate_subgroups,
    marks_membership,
    minimal_multiplier,
    parse_group_spec,
    standard_catalog,
    table_of_marks,
)

BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"

SMALL_GROUPS = ["C1", "C(2^2)", "C(3^2)", "C12", "EA(2,3)", "C4xC2", "D8", "Q8", "SD(16)"]


def test_marks_of_trivial_group(lattice_of):
    assert table_of_marks(lattice_of("C1")).entries == ((1,),)


def test_marks_of_order_two_cyclic(lattice_of):
    assert table_of_marks(lattice_of("C2")).entries == ((2, 1), (0, 1))


def test_marks_of_order_four_cyclic(lattice_of):
    marks = table_of_marks(lattice_of("C(2^2)"))
    assert marks.entries == ((4, 2, 1), (0, 2, 1), (0, 0, 1))


def test_marks_of_quaternion_group(lattice_of):
    marks = table_of_marks(lattice_of("Q8"))
    assert marks.entries == (
        (8, 4, 2, 2, 2, 1),
        (0, 4, 2, 2, 2, 1),
        (0, 0, 2, 0, 0, 1),
        (0, 0, 0, 2, 0, 1),
        (0, 0, 0, 0, 2, 1),
        (0, 0, 0, 0, 0, 1),
    )


def test_single_mark_entries(lattice_of):
    lattice = lattice_of("Q8")
    # the center is contained in every order-4 subgroup, so it fixes both cosets
    assert mark(lattice, 1, 2) == 2
    assert mark(lattice, 0, 2) == 2
    assert mark(lattice, 0, 1) == 4
    assert mark(lattice, 5, 5) == 1


def test_mark_independent_of_representative(lattice_of):
    lattice = lattice_of("D8")
    group = lattice.group
    for i, cls_i in enumerate(lattice.classes):
        for j, cls_j in enumerate(lattice.classes):
            expected = mark(lattice, i, j)
            for u in cls_i.members:
                for v in cls_j.members:
                    assert fixed_coset_count(group, u, v) == expected


def _assert_marks_invariants(lattice):
    group = lattice.group
    entries = table_of_marks(lattice).entries
    classes = lattice.classes
    n = lattice.class_count
    for j in range(n):
        assert entries[0][j] == group.order // classes[j].order
        size = len(classes[j].members)
        assert entries[j][j] == group.order // (size * classes[j].order)
        assert entries[j][j] > 0
    for i in range(n):
        for j in range(n):
            if classes[i].order > classes[j].order or (i != j and classes[i].order == classes[j].order):
                assert entries[i][j] == 0


@pytest.mark.parametrize("text", SMALL_GROUPS)
def test_marks_invariants(text, lattice_of):
    _assert_marks_invariants(lattice_of(text))


def test_marks_invariants_across_catalog(lattice_of):
    from burnside import standard_catalog

    for spec in standard_catalog(64):
        _assert_marks_invariants(lattice_of(spec.text()))


def test_ghost_of_basis_and_zero(lattice_of):
    lattice = lattice_of("D8")
    n = lattice.class_count
    whole = BurnsideElement(lattice, [0] * (n - 1) + [1])
    assert ghost_of(lattice, whole).values == (1,) * n
    zero = BurnsideElement(lattice, [0] * n)
    assert ghost_of(lattice, zero).values == (0,) * n


def test_ghost_of_quaternion_center_coset_space(lattice_of):
    lattice = lattice_of("Q8")
    element = BurnsideElement(lattice, [0, 1, 0, 0, 0, 0])
    assert ghost_of(lattice, element).values == (4, 4, 0, 0, 0, 0)


def test_dress_rejects_indicator_of_trivial_class(lattice_of):
    lattice = lattice_of("C2")
    result = dress_membership(lattice, GhostVector(lattice, (1, 0)))
    assert not result.holds
    violation = result.violations[0]
    assert (violation.u_class, violation.v_class) == (0, 1)
    assert violation.index == 2
    assert violation.lhs_sum == 1
    assert violation.residue == 1


def test_dress_accepts_doubled_vector(lattice_of):
    lattice = lattice_of("C2")
    assert dress_membership(lattice, GhostVector(lattice, (2, 0))).holds


def test_dress_on_odd_prime(lattice_of):
    lattice = lattice_of("C3")
    assert not dress_membership(lattice, GhostVector(lattice, (1, 0))).holds
    assert dress_membership(lattice, GhostVector(lattice, (3, 0))).holds


def test_dress_congruence_count_on_quaternion(lattice_of):
    # all subgroups of Q8 are normal, so all 12 nested pairs give congruences
    lattice = lattice_of("Q8")
    congruences = dress_congruences(lattice)
    assert len(congruences) == 12
    assert all(c.index > 1 for c in congruences)


def test_marks_membership_examples(lattice_of):
    lattice = lattice_of("C2")
    ok, coeffs = marks_membership(lattice, GhostVector(lattice, (1, 1)))
    assert ok and coeffs == (Fraction(0), Fraction(1))
    ok, coeffs = marks_membership(lattice, GhostVector(lattice, (1, 0)))
    assert not ok
    assert coeffs == (Fraction(1, 2), Fraction(0))
    # the solve is exact: the coefficients reproduce the input vector
    assert ghost_of(lattice, BurnsideElement(lattice, (0, 0))).values == (0, 0)


def test_round_trip_recovers_coefficients(lattice_of):
    rng = random.Random(1729)
    for text in SMALL_GROUPS:
        lattice = lattice_of(text)
        n = lattice.class_count
        for _ in range(120):
            coeffs = [rng.randint(-5, 5) for _ in range(n)]
            image = ghost_of(lattice, BurnsideElement(lattice, coeffs))
            assert dress_membership(lattice, image).holds
            ok, recovered = marks_membership(lattice, image)
            assert ok
            assert list(recovered) == coeffs


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_membership_routes_agree_on_random_vectors(data, lattice_of):
    text = data.draw(st.sampled_from(["C(2^3)", "D8", "Q8", "C12", "EA(3,2)"]))
    lattice = lattice_of(text)
    values = data.draw(
        st.lists(
            st.integers(min_value=-6, max_value=6),
            min_size=lattice.class_count,
            max_size=lattice.class_count,
        )
    )
    vector = GhostVector(lattice, values)
    assert dress_membership(lattice, vector).holds == marks_membership(lattice, vector)[0]


def test_cfb_necessity(lattice_of):
    lattice = lattice_of("C2")
    assert cfb_check(lattice, GhostVector(lattice, (2, 0)))
    assert not cfb_check(lattice, GhostVector(lattice, (1, 0)))
    rng = random.Random(42)
    for text in SMALL_GROUPS:
        latt = lattice_of(text)
        n = latt.class_count
        assert cfb_check(latt, GhostVector(latt, (1,) * n))
        for _ in range(100):
            vector = GhostVector(latt, [rng.randint(-5, 5) for _ in range(n)])
            if dress_membership(latt, vector).holds:
                assert cfb_check(latt, vector)


def test_cfb_check_builds_no_weyl_rows():
    """The Cauchy-Frobenius-Burnside relation sums the walk of U = 1 alone:
    on a fresh lattice it leaves nothing in the lattice's cache."""
    for text in ("EA(2,4)", "Q8"):
        lattice = enumerate_subgroups(build_group(parse_group_spec(text)))
        n = lattice.class_count
        assert cfb_check(lattice, GhostVector(lattice, (1,) * n))
        assert not cfb_check(lattice, GhostVector(lattice, (1,) + (0,) * (n - 1)))
        assert lattice._derived == {}


def test_minimal_multiplier_examples(lattice_of):
    lattice = lattice_of("C2")
    assert minimal_multiplier(lattice, GhostVector(lattice, (1, 1))) == 1
    assert minimal_multiplier(lattice, GhostVector(lattice, (1, 0))) == 2
    with pytest.raises(ValueError):
        minimal_multiplier(lattice, GhostVector(lattice, (0, 0)))


def test_minimal_multiplier_agrees_with_ascending_search(lattice_of):
    rng = random.Random(7)
    for text in ("C(2^2)", "D8", "Q8", "C12"):
        lattice = lattice_of(text)
        n = lattice.class_count
        for _ in range(25):
            values = [rng.randint(-4, 4) for _ in range(n)]
            if not any(values):
                values[0] = 1
            vector = GhostVector(lattice, values)
            expected = minimal_multiplier(lattice, vector)
            found = next(
                d
                for d in range(1, lattice.group.order + 1)
                if dress_membership(lattice, d * vector).holds
            )
            assert expected == found


def _oracle_test_vectors(lattice, rng):
    """Members, perturbed members, uniform random vectors and unit vectors."""
    n = lattice.class_count
    vectors = []
    for _ in range(20):
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        member = list(ghost_of(lattice, BurnsideElement(lattice, coeffs)).values)
        vectors.append(member)
        perturbed = list(member)
        perturbed[rng.randrange(n)] += rng.choice((-1, 1))
        vectors.append(perturbed)
        vectors.append([rng.randint(-5, 5) for _ in range(n)])
    vectors.extend([1 if i == k else 0 for i in range(n)] for k in range(n))
    return [GhostVector(lattice, v) for v in vectors if any(v)]


@pytest.mark.parametrize("text", ["C2", "Q8", "D8", "EA(2,4)", "C8xC4", "S5"])
def test_integer_solve_matches_fraction_oracle(text, lattice_of, tmp_path):
    if text == "S5":
        perm = tmp_path / "s5.perm"
        perm.write_text("degree 5\n(0 1 2 3 4)\n(0 1)\n")
        lattice = enumerate_subgroups(build_group(parse_group_spec(f"perm:{perm}")))
        assert lattice.group.order == 120
    else:
        lattice = lattice_of(text)
    rng = random.Random(2024)
    for vector in _oracle_test_vectors(lattice, rng):
        assert marks_membership(lattice, vector) == fraction_marks_solve(lattice, vector)
        assert minimal_multiplier(lattice, vector) == fraction_minimal_multiplier(
            lattice, vector
        )


def test_unit_vector_multipliers_reach_group_order(lattice_of):
    for text in ("C(2^3)", "Q8", "D8", "C12", "EA(3,2)"):
        lattice = lattice_of(text)
        n = lattice.class_count
        acc = 1
        for k in range(n):
            unit = GhostVector(lattice, [1 if i == k else 0 for i in range(n)])
            m = minimal_multiplier(lattice, unit)
            assert lattice.group.order % m == 0
            acc = lcm(acc, m)
        assert acc == lattice.group.order


def test_vector_dimension_mismatch(lattice_of):
    lattice = lattice_of("Q8")
    with pytest.raises(ValueError):
        GhostVector(lattice, (1, 2, 3))
    other = lattice_of("C2")
    foreign = GhostVector(other, (1, 0))
    with pytest.raises(ValueError):
        dress_membership(lattice, foreign)
    with pytest.raises(ValueError):
        marks_membership(lattice, foreign)


def test_ghost_vector_scaling(lattice_of):
    lattice = lattice_of("C2")
    v = GhostVector(lattice, (1, 2))
    assert (3 * v).values == (3, 6)
    assert (v * 2).values == (2, 4)


def test_ghost_vector_rejects_non_integers(lattice_of):
    lattice = lattice_of("C2")
    v = GhostVector(lattice, (2, 1))
    for bad in (0.5, 2.0, Fraction(3, 2), Fraction(2, 1)):
        # NotImplemented from both sides makes Python raise
        with pytest.raises(TypeError, match="unsupported operand"):
            v * bad
        with pytest.raises(TypeError, match="unsupported operand"):
            bad * v
        with pytest.raises(TypeError):
            GhostVector(lattice, (bad, 1))
    assert (v * True).values == (2, 1) and (False * v).values == (0, 0)
    assert GhostVector(lattice, (True, 3)).values == (1, 3)


def test_membership_benchmark_sizes_match_the_pinned_ones():
    """The sizes bench/data/expected.json pins for the membership set-up
    lattices, counted in process; every diagonal mark is positive and the
    sparse rows keep only nonzero marks right of it."""
    pinned = json.loads((BENCH_DATA / "expected.json").read_text(encoding="utf-8"))
    specs = {"EA(2,5)": "EA(2,5)", "C8xC8xC2": "C8xC8xC2", "S5": f"perm:{BENCH_DATA / 's5.perm'}"}
    assert pinned["membership_sizes"].keys() == specs.keys()
    for name, text in specs.items():
        lattice = enumerate_subgroups(build_group(parse_group_spec(text)))
        congruences = dress_congruences(lattice)
        rows = table_of_marks(lattice).rows
        assert all(diag > 0 and all(m for _, m in tail) for diag, tail in rows)
        sizes = {
            "order": lattice.group.order,
            "subgroups": len(lattice.all_subgroups),
            "classes": lattice.class_count,
            "congruences": len(congruences),
            "congruence_terms": sum(len(c.terms) for c in congruences),
            "marks_nonzero": sum(1 + len(tail) for _, tail in rows),
        }
        assert sizes == pinned["membership_sizes"][name], name


# the lattices the membership benchmark sets up: EA(2,5), C8xC8xC2 and S5,
# with ids that do not hold the checkout's path
SETUP_SPECS = ["EA(2,5)", "C8xC8xC2", f"perm:{BENCH_DATA / 's5.perm'}"]
SETUP_IDS = ["EA(2,5)", "C8xC8xC2", "S5"]


def _count_solves(monkeypatch) -> list[int]:
    """Count back-substitutions: each one reads the table of marks once,
    and nothing else on the marks route does."""
    calls = [0]
    real = burnside_ring.table_of_marks

    def counted(lattice):
        calls[0] += 1
        return real(lattice)

    monkeypatch.setattr(burnside_ring, "table_of_marks", counted)
    return calls


def _some_vectors(lattice, rng, count=4):
    n = lattice.class_count
    vectors = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(count)]
    vectors.append([0] * (n - 1) + [1])
    return [GhostVector(lattice, v) for v in vectors if any(v)]


@pytest.mark.parametrize("text", SETUP_SPECS, ids=SETUP_IDS)
def test_marks_route_solves_each_vector_once(text, lattice_of, monkeypatch):
    lattice = lattice_of(text)
    calls = _count_solves(monkeypatch)
    for vector in _some_vectors(lattice, random.Random(11)):
        before = calls[0]
        marks_membership(lattice, vector)
        minimal_multiplier(lattice, vector)
        marks_membership(lattice, vector)
        dress_membership(lattice, vector)
        assert calls[0] - before == 1
        # a multiple is a new vector and is solved afresh
        tripled = vector * 3
        assert minimal_multiplier(lattice, tripled) == minimal_multiplier(
            lattice, GhostVector(lattice, tripled.values)
        )
        assert calls[0] - before == 3


@pytest.mark.parametrize("text", SETUP_SPECS, ids=SETUP_IDS)
def test_replaced_values_are_solved_again(text, lattice_of, monkeypatch):
    lattice = lattice_of(text)
    rng = random.Random(5)
    first, second = _some_vectors(lattice, rng, count=2)[:2]
    vector = GhostVector(lattice, first.values)
    marks_membership(lattice, vector)
    calls = _count_solves(monkeypatch)
    vector.values = second.values
    assert marks_membership(lattice, vector) == marks_membership(lattice, second)
    assert minimal_multiplier(lattice, vector) == minimal_multiplier(lattice, second)
    assert calls[0] == 2
    # an equal tuple that is another object is solved again too
    vector.values = tuple(list(second.values))
    assert marks_membership(lattice, vector) == marks_membership(lattice, second)
    assert calls[0] == 3


def test_replaced_lattice_is_solved_again(lattice_of):
    # C(2^2) and C(3^2) both have three classes, with different marks
    c4, c9 = lattice_of("C(2^2)"), lattice_of("C(3^2)")
    vector = GhostVector(c4, (1, 1, 1))
    assert minimal_multiplier(c4, vector) == 1
    vector.lattice = c9
    fresh = GhostVector(c9, (1, 1, 1))
    assert marks_membership(c9, vector) == marks_membership(c9, fresh)
    assert minimal_multiplier(c9, vector) == minimal_multiplier(c9, fresh) == 1
    vector.values = (1, 0, 0)
    assert minimal_multiplier(c9, vector) == 9


CATALOG_UP_TO_64 = [spec.text() for spec in standard_catalog(64)]


@pytest.mark.parametrize(
    "text", CATALOG_UP_TO_64 + SETUP_SPECS, ids=CATALOG_UP_TO_64 + SETUP_IDS
)
def test_kept_and_fresh_solves_agree(text, lattice_of, request):
    lattice = lattice_of(text)
    # seeded by the test id, which holds no checkout path
    for kept in _some_vectors(lattice, random.Random(request.node.callspec.id)):
        verdict = marks_membership(lattice, kept)
        multiplier = minimal_multiplier(lattice, kept)
        for _ in range(2):  # both calls now read the kept solve
            fresh = GhostVector(lattice, kept.values)
            assert marks_membership(lattice, kept) == verdict == marks_membership(lattice, fresh)
            fresh = GhostVector(lattice, kept.values)
            assert minimal_multiplier(lattice, kept) == multiplier == minimal_multiplier(
                lattice, fresh
            )
        assert multiplier == lcm(*(c.denominator for c in verdict[1]))
        assert verdict[0] == (multiplier == 1) == dress_membership(lattice, kept).holds


def test_a_kept_solve_changes_no_identity_copy_or_pickle(lattice_of):
    lattice = lattice_of("Q8")
    values = (6, 2, 0, 2, 0, 1)
    solved, unsolved = GhostVector(lattice, values), GhostVector(lattice, values)
    result = (marks_membership(lattice, solved), minimal_multiplier(lattice, solved))
    assert solved == unsolved and hash(solved) == hash(unsolved)
    assert repr(solved) == repr(unsolved) == f"GhostVector({values})"
    assert pickle.dumps(solved) == pickle.dumps(unsolved)
    for make in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        a, b = make(solved), make(unsolved)
        assert a.values == b.values == values and repr(a) == repr(b)
        assert (a == solved) == (b == unsolved) == (a.lattice is lattice)
        for v in (a, b):
            got = (marks_membership(v.lattice, v), minimal_multiplier(v.lattice, v))
            assert got == result
    assert copy.copy(solved) == solved and hash(copy.copy(solved)) == hash(solved)


def _coset_conjugates(lattice) -> list[list[int]]:
    """Per class j, the masks of gU_jg^-1 for one g in each left coset gU_j
    of the class representative U_j, from the multiplication table alone."""
    group = lattice.group
    table, inv = group.mul_table, group.inv_table
    out = []
    for cls in lattice.classes:
        v = cls.representative.elements
        seen: set[int] = set()
        masks = []
        for g in range(group.order):
            if g not in seen:
                seen.update(table[g][b] for b in v)
                masks.append(sum(1 << table[table[g][b]][inv[g]] for b in v))
        out.append(masks)
    return out


CATALOG_UP_TO_32 = [spec.text() for spec in standard_catalog(32)]


@pytest.mark.parametrize(
    "text",
    [*CATALOG_UP_TO_32, "D(8)xC3", f"perm:{BENCH_DATA / 's5.perm'}"],
    ids=[*CATALOG_UP_TO_32, "D(8)xC3", "S5"],
)
def test_products_of_marks_columns_follow_mackey(text, lattice_of):
    """Column j of the table of marks is the ghost of G/U_j, so the
    pointwise product of columns i and j is the ghost of G/U_i x G/U_j.
    By Mackey's formula that G-set is the sum over the double cosets
    U_i g U_j of G/(U_i meet gU_jg^-1), so the product must equal
    sum_k n_k (column k), with n_k the double cosets whose meet lies in
    class k. U_i acts on the cosets gU_j with stabilizer U_i meet gU_jg^-1,
    and a double coset is one orbit, of |U_i : stabilizer| cosets, so each
    coset adds |stabilizer| / |U_i| to n_k. No fixed coset is counted, so
    this is independent of ``_oracles.mark``; all pairs i <= j are tried."""
    lattice = lattice_of(text)
    class_of = lattice._class_by_mask
    columns: list[dict[int, int]] = [{} for _ in lattice.classes]
    for r, (diag, tail) in enumerate(table_of_marks(lattice).rows):
        columns[r][r] = diag
        for k, m in tail:
            columns[k][r] = m
    conjugates = _coset_conjugates(lattice)
    for i, j in combinations_with_replacement(range(lattice.class_count), 2):
        u = lattice.classes[i].representative
        weights: Counter = Counter()
        for conjugate in conjugates[j]:
            meet = u.mask & conjugate
            weights[class_of[meet]] += meet.bit_count()
        expected: Counter = Counter()
        for k, weight in weights.items():
            assert weight % u.order == 0, (i, j, k)
            for r, m in columns[k].items():
                expected[r] += weight // u.order * m
        product = {r: m * columns[j][r] for r, m in columns[i].items() if r in columns[j]}
        assert product == expected, (i, j)

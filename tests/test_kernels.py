"""Cross-checks of the lattice, marks and congruence kernels against the
independent implementations kept in ``_oracles``.

The coset-wise enumeration must give the same classes (same order, same
members, same flags) and the power-walk Dress system the same congruences
(same order, same terms) as joins closed from scratch and as the earlier
scan that filters U's walk for every pair. Every stored mark must equal
the count of fixed cosets and the earlier scan's mark, every permutation
table the one that composes each entry's permutations, and the Weyl row
for U = 1 the census counted by walking every element's powers. Each row
of the trivial subgroup's walk must count phi(|U|), the k in [1, |U|]
prime to |U|, as enumeration reads it. The Weyl-row loop that
membership and the exponent share must give the certificates (every
violation, in order, every field) of the loop over the Weyl records,
read off the walks and built from brute-force normalizers, on members,
perturbed members, negative vectors and vectors of 10^40 in size, and
the pair loop the violations of the loop over the pair records. Every
normalizer the enumeration records must be the brute-force
{g : gUg^-1 = U}, the Weyl rows read off the walks
(``_oracles.weyl_congruences``) must equal those built from such
normalizers, and the three membership routes (Weyl rows, pair
congruences, marks solve) must agree on every vector tried. For every
family, the Weyl rows of the family's classes must equal the rows counted
from the multiplication table alone, the Artin exponent the marks
solve's and those rows' multiplier, and the rows the indicator
violates, with the class of N(U), those of the counted rows. Every walk
of a subgroup over its normalizer, kept by enumeration or walked for any
member, must equal one closed from scratch; the kept walks are one
tuple, one per class, that no reader extends; and a lattice must be
freed by reference counting alone.
The whole pipeline, from listing the catalog to the exponent's witnesses,
must leave nothing for the cyclic garbage collector, and enumeration and
the builders (the cached ones and the pair congruences') must run with
the collector paused, leave it in the state they found it, on return and
on a raise, and leave no young pass for the allocations after them,
unless the caller has frozen objects.
So must the three membership queries, and a stream of random vectors
through them must start no young collection.
"""

from __future__ import annotations

import gc
import random
import time
import weakref
from collections import Counter
from math import gcd, lcm
from pathlib import Path

import pytest

from _oracles import (
    BurnsideElement,
    class_index_of,
    closure_dress_congruences,
    closure_enumerate_subgroups,
    closure_walk,
    closure_weyl_congruences,
    ea_class_search,
    element_walk_census,
    family_rows,
    family_violated_rows,
    family_witnesses,
    ghost_of,
    loop_dress_exponent,
    loop_dress_membership,
    loop_perm_table,
    mark,
    member_walk,
    pair_congruences,
    record_violation_rows,
    scan_dress_congruences,
    scan_table_of_marks,
    weyl_congruences,
)
from burnside import (
    CapExceededError,
    Congruence,
    CongruenceViolation,
    GhostVector,
    SubgroupFamily,
    artin_exponent,
    build_group,
    cfb_check,
    dress_congruences,
    dress_membership,
    enumerate_subgroups,
    group_from_perm_generators,
    indicator_vector,
    load_permutation_group,
    marks_membership,
    minimal_multiplier,
    parse_group_spec,
    select_family,
    standard_catalog,
    table_of_marks,
)
from burnside import burnside_ring as ring_module
from burnside import lattice as lattice_module
from burnside.arith import divisors, is_prime
from burnside.burnside_ring import _down_sets
from burnside.exponent import _certified
from burnside.groups import parse_permutation_file, subgroup_mask
from burnside.lattice import lattice_cached

CATALOG_UP_TO_128 = [spec.text() for spec in standard_catalog(128)]
CATALOG_UP_TO_64 = [spec.text() for spec in standard_catalog(64)]
CATALOG_UP_TO_32 = [spec.text() for spec in standard_catalog(32)]

# where conjugates are most of the lattice, and so are never joined
LARGE_NONABELIAN = ["D(128)", "SD(128)", "Q(128)", "M(128)", "ES+(5)", "ES-(5)"]

PERM_FILES = {
    "S4": "degree 4\n(0 1 2 3)\n(0 1)\n",
    "S5": "degree 5\n(0 1 2 3 4)\n(0 1)\n",
    "S3xS3": "degree 6\n(0 1 2)\n(0 1)\n(3 4 5)\n(3 4)\n",
}


def _class_census(lattice):
    return [
        (
            c.class_index,
            c.order,
            tuple(m.elements for m in c.members),
            c.is_cyclic,
            c.is_elementary_abelian,
            c.is_normal,
        )
        for c in lattice.classes
    ]


def _assert_matches_oracles(group):
    lattice = enumerate_subgroups(group)
    oracle = closure_enumerate_subgroups(group)
    assert _class_census(lattice) == _class_census(oracle)
    assert lattice.all_subgroups == oracle.all_subgroups
    assert dress_congruences(lattice) == closure_dress_congruences(oracle)
    assert weyl_congruences(lattice) == closure_weyl_congruences(oracle)
    assert table_of_marks(lattice).rows == table_of_marks(oracle).rows
    if group.order > 1:
        assert weyl_congruences(lattice)[0] == _census_row(lattice)
    # every member's normalizer is the lattice's own Subgroup with the
    # oracle's brute-force elements, and G throughout in an abelian group
    own = {sub.elements: sub for sub in lattice.all_subgroups}
    whole = lattice.classes[-1].representative
    for sub in lattice.all_subgroups:
        norm = lattice.normalizer(sub)
        assert norm is own[oracle.normalizer(sub).elements]
        assert norm is whole or not group.is_abelian()
    for lat in (lattice, oracle):
        for cls in lat.classes:
            for sub in cls.members:
                assert sub.mask == sum(1 << x for x in sub.elements)
                assert class_index_of(lat, sub) == cls.class_index
    # every walk, kept by enumeration or walked now for any member, is in
    # class order with U's own row first
    walks = [(walk[0][0], walk) for walk in lattice.walks]
    walks += [(sub.mask, member_walk(lattice, sub)) for sub in lattice.all_subgroups]
    for mask, walk in walks:
        classes = [c for _, c, _ in walk]
        assert walk[0] == (mask, lattice._class_by_mask[mask], 1)
        assert classes == sorted(classes)
    assert len(lattice.walks) == lattice.class_count


def _census_row(lattice):
    """The Weyl row for U = 1 as the element-walk census predicts it: every
    element g counted in the class of <g>, modulo |G|, with N(1) = G."""
    census = element_walk_census(lattice)
    terms = tuple((k, c) for k, c in enumerate(census) if c)
    return (0, lattice.class_count - 1, lattice.group.order, terms)


def _perm_file_group(name, tmp_path):
    path = tmp_path / f"{name}.perm"
    path.write_text(PERM_FILES[name], encoding="utf-8")
    return build_group(parse_group_spec(f"perm:{path}"))


def _assert_marks_rows_match_fixed_cosets(lattice):
    """Every mark (i, j) with i <= j, stored or left out as zero, against a
    coset-by-coset count; the stored marks right of the diagonal must be
    nonzero and in ascending column order."""
    n = lattice.class_count
    rows = table_of_marks(lattice).rows
    assert len(rows) == n
    for i, (diag, tail) in enumerate(rows):
        columns = [j for j, _ in tail]
        assert columns == sorted(set(columns)) and all(j > i and m for j, m in tail)
        assert diag == mark(lattice, i, i)
        stored = dict(tail)
        assert [stored.get(j, 0) for j in range(i + 1, n)] == [
            mark(lattice, i, j) for j in range(i + 1, n)
        ]


def _random_permutation(rng: random.Random, degree: int) -> tuple[int, ...]:
    points = list(range(degree))
    rng.shuffle(points)
    return tuple(points)


def _random_generators(seed, degree=None):
    rng = random.Random(seed)
    if degree is None:
        degree = rng.randint(2, 5)
    return degree, [_random_permutation(rng, degree) for _ in range(2)]


def _random_two_generator_group(seed, degree=None):
    return group_from_perm_generators(*_random_generators(seed, degree))


# seeds whose two random permutations of degree 6 generate a group of
# order 7 to 72: abelian groups of order 8 and 9, and a nonabelian group
# of each order the first 400 seeds reach in that range (8, 12, 18, 20,
# 24, 36, 48, 60, 72), two with different lattices for 12, 24 and 36
DEGREE_SIX_SEEDS = (0, 6, 16, 25, 29, 62, 86, 107, 110, 135, 150, 254, 299, 305)


def _random_degree_six_group(seed):
    group = _random_two_generator_group(seed, 6)
    assert 7 <= group.order <= 72
    return group


def test_catalog_sweep_covers_orders_up_to_64():
    assert len(CATALOG_UP_TO_64) > 30
    assert max(build_group(parse_group_spec(t)).order for t in CATALOG_UP_TO_64) == 64


@pytest.mark.parametrize("text", CATALOG_UP_TO_64)
def test_catalog_group_matches_closure_oracles(text):
    _assert_matches_oracles(build_group(parse_group_spec(text)))


@pytest.mark.parametrize("text", LARGE_NONABELIAN)
def test_large_nonabelian_group_matches_closure_oracles(text):
    _assert_matches_oracles(build_group(parse_group_spec(text)))


@pytest.mark.parametrize("name", sorted(PERM_FILES))
def test_perm_file_group_matches_closure_oracles(name, tmp_path):
    _assert_matches_oracles(_perm_file_group(name, tmp_path))


@pytest.mark.parametrize("text", CATALOG_UP_TO_32)
def test_catalog_marks_rows_match_fixed_cosets(text, lattice_of):
    _assert_marks_rows_match_fixed_cosets(lattice_of(text))


@pytest.mark.parametrize("name", sorted(PERM_FILES))
def test_perm_file_marks_rows_match_fixed_cosets(name, tmp_path):
    lattice = enumerate_subgroups(_perm_file_group(name, tmp_path))
    _assert_marks_rows_match_fixed_cosets(lattice)


@pytest.mark.parametrize("seed", range(12))
def test_random_two_generator_group_matches_closure_oracles(seed):
    _assert_matches_oracles(_random_two_generator_group(seed))


@pytest.mark.parametrize("seed", DEGREE_SIX_SEEDS)
def test_random_degree_six_group_matches_closure_oracles(seed):
    _assert_matches_oracles(_random_degree_six_group(seed))


# the catalog, which holds EA(2,5), and the other two set-up lattices of the
# membership benchmark
BENCH_S5 = Path(__file__).resolve().parents[1] / "bench" / "data" / "s5.perm"
S6 = Path(__file__).resolve().parent / "data" / "s6.perm"
# D(8)xC3xQ(8): most subgroups are normal in G, and so skip the normality
# test and the orbit sweep that the rest go through
PAIR_SCAN_SPECS = CATALOG_UP_TO_128 + [
    "C8xC8xC2",
    "D(8)xC3xQ(8)",
    f"perm:{BENCH_S5}",
]
PAIR_SCAN_IDS = [*PAIR_SCAN_SPECS[:-1], "S5"]  # no checkout path in the id


def _assert_pairs_equal_the_reference_scan(group):
    """The pair congruences equal the earlier scan, which walks U and
    filters its walk for every pair: same records, same order, each a
    ``Congruence``."""
    congruences = dress_congruences(enumerate_subgroups(group))
    assert congruences == scan_dress_congruences(enumerate_subgroups(group))
    assert all(type(c) is Congruence for c in congruences)


@pytest.mark.parametrize("text", PAIR_SCAN_SPECS, ids=PAIR_SCAN_IDS)
def test_pair_congruences_equal_the_reference_scan(text):
    _assert_pairs_equal_the_reference_scan(build_group(parse_group_spec(text)))


@pytest.mark.parametrize("name", sorted(PERM_FILES))
def test_perm_file_pair_congruences_equal_the_reference_scan(name, tmp_path):
    _assert_pairs_equal_the_reference_scan(_perm_file_group(name, tmp_path))


def _one_object_per_value(values) -> bool:
    values = list(values)  # kept alive, so no two of them share an id
    return len({id(v) for v in values}) == len(set(values))


@pytest.mark.parametrize(
    "text", ["EA(2,5)", "C8xC8xC2", f"perm:{BENCH_S5}"], ids=["EA(2,5)", "C8xC8xC2", "S5"]
)
def test_kept_tuples_are_one_object_per_value(text):
    """A fresh lattice keeps one tuple per distinct count-1 walk row, and
    its table of marks one per distinct (j, mark) entry."""
    lattice = enumerate_subgroups(build_group(parse_group_spec(text)))
    rows = [row for walk in lattice.walks for row in walk if row[2] == 1]
    assert _one_object_per_value(rows)
    assert _one_object_per_value(e for _, tail in table_of_marks(lattice).rows for e in tail)


# (degree, generators, cap) of the permutation groups whose tables and
# marks are compared with the earlier constructions
PERM_GENERATOR_SETS = {
    "S5": (*parse_permutation_file(BENCH_S5.read_text()), 256),
    "S6": (*parse_permutation_file(S6.read_text()), 1000),
    **{f"random-{seed}": (*_random_generators(seed), 256) for seed in range(12)},
    **{f"degree6-{seed}": (*_random_generators(seed, 6), 256) for seed in DEGREE_SIX_SEEDS},
}


@pytest.mark.parametrize("name", list(PERM_GENERATOR_SETS))
def test_perm_tables_equal_the_composed_tables(name):
    """The table gathered column by column off the closure's Cayley graph
    equals the one that composes the two permutations of every entry, and
    the columns the group was handed are that table's columns."""
    degree, gens, cap = PERM_GENERATOR_SETS[name]
    group = group_from_perm_generators(degree, gens, order_cap=cap)
    assert group.mul_table == tuple(map(tuple, loop_perm_table(degree, gens)))
    assert group.columns == tuple(zip(*group.mul_table))
    assert all(type(column) is tuple for column in group.columns)


def _assert_trivial_walk_counts_phi(lattice):
    """Each row of the trivial subgroup's walk is a cyclic subgroup U, and
    its count, which enumeration reads as phi(|U|), is the number of k in
    [1, |U|] prime to |U|."""
    rows = lattice.walks[0]
    for mask, _, count in rows:
        n = mask.bit_count()
        assert count == sum(gcd(k, n) == 1 for k in range(1, n + 1)), mask
    assert sum(count for _, _, count in rows) == lattice.group.order


@pytest.mark.parametrize("text", CATALOG_UP_TO_128)
def test_catalog_trivial_walk_counts_are_phi(text, lattice_of):
    _assert_trivial_walk_counts_phi(lattice_of(text))


@pytest.mark.parametrize("name", list(PERM_GENERATOR_SETS))
def test_perm_group_trivial_walk_counts_are_phi(name):
    degree, gens, cap = PERM_GENERATOR_SETS[name]
    group = group_from_perm_generators(degree, gens, order_cap=cap)
    _assert_trivial_walk_counts_phi(enumerate_subgroups(group, cap=cap))


@pytest.mark.parametrize("text", [*CATALOG_UP_TO_128, "D(8)xC3xQ(8)"])
def test_marks_rows_equal_the_reference_scan(text, lattice_of):
    lattice = lattice_of(text)
    assert table_of_marks(lattice).rows == scan_table_of_marks(lattice)


@pytest.mark.parametrize("name", list(PERM_GENERATOR_SETS))
def test_perm_group_marks_rows_equal_the_reference_scan(name):
    degree, gens, cap = PERM_GENERATOR_SETS[name]
    lattice = enumerate_subgroups(group_from_perm_generators(degree, gens, order_cap=cap), cap=cap)
    assert table_of_marks(lattice).rows == scan_table_of_marks(lattice)


def test_an_inexact_mark_raises():
    """S3's marks are read off the down-sets; with one transposition left
    out of the whole group's down-set, class C2 has 2 of its 3 members
    in S3, and 2 * 6 / (3 * 6) is no integer."""
    lattice = enumerate_subgroups(group_from_perm_generators(3, [(1, 2, 0), (1, 0, 2)]))
    down = list(_down_sets(lattice))
    down[-1] = down[-1][:1] + down[-1][2:]  # the first is the trivial subgroup
    lattice._derived[_down_sets] = tuple(down)
    with pytest.raises(RuntimeError, match="inexact mark of class 1 in class 3: remainder 12"):
        table_of_marks(lattice)


def test_an_inexact_diagonal_mark_raises():
    """The diagonal mark |G| / (|class j| |V_j|) is a checked division too:
    listing a reflection of D(8) twice in its class of 2 makes the class 3
    members of order 2, and 3 * 2 does not divide 8."""
    lattice = enumerate_subgroups(build_group(parse_group_spec("D(8)")))
    j = next(c.class_index for c in lattice.classes if c.order == 2 and len(c.members) == 2)
    classes = list(lattice.classes)
    members = classes[j].members
    classes[j] = classes[j]._replace(members=members + members[:1])
    lattice.classes = tuple(classes)
    with pytest.raises(RuntimeError, match=f"inexact diagonal mark of class {j}: remainder 2"):
        table_of_marks(lattice)


@pytest.mark.parametrize("name", ["S4", "S5"])
def test_weyl_rows_reuse_the_pair_walks(name, tmp_path, monkeypatch):
    """The Weyl rows, of the exponent and of a membership query, walk no
    subgroup: each class reads the walk enumeration kept for it, and the
    rows are the same on a fresh lattice and after the pair congruences.
    The pair system walks only the U's of pairs of index other than a
    prime that are not their class's walked member, and keeps none of
    those walks."""
    group = _perm_file_group(name, tmp_path)
    lattice = enumerate_subgroups(group)
    walked = []
    real_walk = lattice_module._walk
    for module in (lattice_module, ring_module):
        monkeypatch.setattr(
            module, "_walk", lambda *args: walked.append(args[1]) or real_walk(*args)
        )
    vector = indicator_vector(lattice, SubgroupFamily.CYCLIC)
    fresh = [_certified(lattice, family) for family in SubgroupFamily]
    violations = dress_membership(lattice, vector)
    assert not walked
    kept = lattice.walks
    pairs = dress_congruences(lattice)
    assert lattice.walks is kept
    assert {class_index_of(lattice, u) for u in walked} <= {
        c.u_class for c in pairs if not is_prime(c.index)
    }
    assert not {subgroup_mask(u) for u in walked} & {w[0][0] for w in kept}
    walked.clear()
    assert [_certified(lattice, family) for family in SubgroupFamily] == fresh
    assert dress_membership(lattice, vector) == violations
    assert not walked


def test_weyl_rows_raise_on_a_walk_that_misses_cosets():
    """The coset counts of each Weyl row that the exponent sums must sum to
    its index |G| / (|class| |U|): the walk of U = 1 in Q(8) counts
    1 + 1 + 2 + 2 + 2 cosets, and without its last row it counts 6 of 8.
    U = 1 is in every family, so every family's exponent raises, and so
    do its certificate and a membership query, which reads the same rows."""
    lattice = enumerate_subgroups(build_group(parse_group_spec("Q8")))
    lattice.walks = (lattice.walks[0][:-1], *lattice.walks[1:])
    for family in SubgroupFamily:
        for read in (artin_exponent, _certified):
            with pytest.raises(RuntimeError, match="class 0's walk counts 6 of 8 cosets"):
                read(lattice, family)
        with pytest.raises(RuntimeError, match="class 0's walk counts 6 of 8 cosets"):
            dress_membership(lattice, indicator_vector(lattice, family))


def _assert_walks_match_scratch_walks(lattice):
    """Enumeration keeps one walk per class, in class order, of the member
    that joined, and each equals U's walk over N(U) closed from scratch;
    so does the walk of every member walked now (``member_walk``), and
    the kept walks stay in place."""
    by_mask = {sub.mask: sub for sub in lattice.all_subgroups}
    kept = lattice.walks
    assert type(kept) is tuple and len(kept) == lattice.class_count
    for cls, walk in zip(lattice.classes, kept):
        sub = by_mask[walk[0][0]]
        assert sub in cls.members
        assert walk[0] == (sub.mask, cls.class_index, 1)
        assert tuple(sorted(walk)) == closure_walk(lattice, sub)
    for sub in lattice.all_subgroups:
        assert tuple(sorted(member_walk(lattice, sub))) == closure_walk(lattice, sub)
    assert lattice.walks is kept


@pytest.mark.parametrize("text", CATALOG_UP_TO_64)
def test_catalog_walks_match_scratch_walks(text):
    _assert_walks_match_scratch_walks(enumerate_subgroups(build_group(parse_group_spec(text))))


@pytest.mark.parametrize("name", sorted(PERM_FILES))
def test_perm_file_walks_match_scratch_walks(name, tmp_path):
    _assert_walks_match_scratch_walks(enumerate_subgroups(_perm_file_group(name, tmp_path)))


@pytest.mark.parametrize(
    "text", ["D(16)", "ES+(3)", f"perm:{BENCH_S5}"], ids=["D(16)", "ES+(3)", "S5"]
)
def test_no_reader_extends_the_kept_walks(text):
    """The kept walks are one tuple, one walk per class in class order,
    each led by its walked member's own count-1 row. The table of marks,
    the pair congruences, every family's exponent and certificate,
    ``cfb_check``, a stream of queries and the walk of every subgroup
    leave the same tuple in place."""
    lattice = enumerate_subgroups(build_group(parse_group_spec(text)))
    kept = lattice.walks
    table_of_marks(lattice)
    dress_congruences(lattice)
    for family in SubgroupFamily:
        _certified(lattice, family)
    rng = random.Random(12)
    n = lattice.class_count
    for _ in range(20):
        vector = GhostVector(lattice, [rng.randint(-5, 5) for _ in range(n)])
        cfb_check(lattice, vector)
        for query in (dress_membership, marks_membership, minimal_multiplier):
            query(lattice, vector)
    for sub in lattice.all_subgroups:
        member_walk(lattice, sub)
    assert lattice.walks is kept and type(kept) is tuple and len(kept) == n
    members = {m.mask: cls.class_index for cls in lattice.classes for m in cls.members}
    for c, walk in enumerate(kept):
        u_mask = walk[0][0]
        assert members[u_mask] == c and walk[0] == (u_mask, c, 1)


def test_lattices_are_freed_by_reference_counting():
    """Nothing a lattice keeps, walks, down-sets and table of marks
    included, refers back to it, so it goes with its last reference and
    no cycle waits for the garbage collector; neither does the memo of
    its pair congruences that the oracles keep."""
    group = build_group(parse_group_spec("D(16)"))
    gc.disable()
    try:
        lattice = enumerate_subgroups(group)
        artin_exponent(lattice, SubgroupFamily.ELEMENTARY_ABELIAN)
        table_of_marks(lattice)
        pairs = pair_congruences(lattice)
        assert pair_congruences(lattice) is pairs == dress_congruences(lattice)
        ref = weakref.ref(lattice)
        del lattice
        assert ref() is None
    finally:
        gc.enable()


def _pipeline_lattices():
    """The lattices of the catalog up to 64, S5, D(8)xC3xQ(8) and the
    seeded permutation groups, built one at a time."""
    # the catalog is listed here, not at import, as listing it is a stage
    more = (f"perm:{BENCH_S5}", "D(8)xC3xQ(8)")
    for spec in [*standard_catalog(64), *map(parse_group_spec, more)]:
        yield enumerate_subgroups(build_group(spec))
    for name, (degree, gens, cap) in PERM_GENERATOR_SETS.items():
        if name not in ("S5", "S6"):
            group = group_from_perm_generators(degree, gens, order_cap=cap)
            yield enumerate_subgroups(group, cap=cap)


def test_the_pipeline_leaves_no_cycle_for_the_collector():
    """With the cyclic collector off, building and dropping every stage,
    from the catalog to the exponent's witnesses, leaves nothing that
    only the collector could free: reference counting frees it all, which
    is what makes pausing the collector during builds safe."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for lattice in _pipeline_lattices():
            table_of_marks(lattice)
            dress_congruences(lattice)
            for family in SubgroupFamily:
                vector = indicator_vector(lattice, family)
                dress_membership(lattice, vector)
                marks_membership(lattice, vector)
                minimal_multiplier(lattice, vector)
                _certified(lattice, family)
        del lattice, vector
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


@lattice_cached
def _collector_state(lattice):
    return gc.isenabled()


@lattice_cached
def _failing_build(lattice):
    raise RuntimeError("a build that fails")


def test_builders_restore_the_collector_state(monkeypatch):
    """Enumeration, the cached builders and the pair congruences' build run
    with the collector paused, and leave it as they found it, on return
    and on a raise: back on, or still off when the caller had switched it
    off. On S5 the pair build walks two members itself."""
    group = build_group(parse_group_spec(f"perm:{BENCH_S5}"))
    seen = []
    real_walk = lattice_module._walk

    def walk(*args):
        seen.append(gc.isenabled())
        return real_walk(*args)

    for module in (lattice_module, ring_module):
        monkeypatch.setattr(module, "_walk", walk)
    builders = (_down_sets, table_of_marks, dress_congruences)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            lattice = enumerate_subgroups(group)
            assert seen and not any(seen) and gc.isenabled() is enabled
            assert _collector_state(lattice) is False
            walks = len(seen)
            for build in builders:
                build(lattice)
                assert gc.isenabled() is enabled
            assert len(seen) == walks + 2 and not any(seen)
            with pytest.raises(CapExceededError):
                enumerate_subgroups(group, cap=8)
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError, match="a build that fails"):
                _failing_build(lattice)
            assert gc.isenabled() is enabled
            seen.clear()
    finally:
        gc.enable() if was else gc.disable()


def test_a_build_leaves_no_young_pass_behind():
    """What a build kept is moved to the oldest generation unscanned, so
    the allocations after it start no young collection; when the caller
    has frozen objects nothing is moved and they stay frozen."""
    group = build_group(parse_group_spec("EA(2,4)"))
    was = gc.isenabled()
    gc.enable()
    try:
        gc.collect(0)  # far fewer than a young pass's allocations follow
        young = gc.get_stats()[0]["collections"]
        lattice = enumerate_subgroups(group)
        table_of_marks(lattice)
        after = [[] for _ in range(100)]
        assert gc.get_stats()[0]["collections"] == young and len(after) == 100
        gc.freeze()
        frozen = gc.get_freeze_count()
        dress_congruences(lattice)
        assert gc.get_freeze_count() == frozen > 0
    finally:
        gc.unfreeze()
        gc.enable() if was else gc.disable()


QUERIES = (dress_membership, marks_membership, minimal_multiplier)


def test_queries_restore_the_collector_state(monkeypatch, lattice_of):
    """The three membership queries run with the collector paused, and
    leave it as they found it, on return and on a raise (a vector of
    another lattice, the least multiplier of the zero vector): back on, or
    still off when the caller had switched it off."""
    lattice, other = lattice_of("D(16)"), lattice_of("D8")
    vector = indicator_vector(lattice, SubgroupFamily.CYCLIC)
    foreign = indicator_vector(other, SubgroupFamily.CYCLIC)
    zero = GhostVector(lattice, [0] * lattice.class_count)
    seen = []
    real_check = ring_module._check_vector

    def check(*args):
        seen.append(gc.isenabled())
        return real_check(*args)

    monkeypatch.setattr(ring_module, "_check_vector", check)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            for query in QUERIES:
                seen.clear()
                query(lattice, vector)
                assert seen == [False] and gc.isenabled() is enabled, query
                with pytest.raises(ValueError, match="does not match this lattice"):
                    query(lattice, foreign)
                assert seen == [False, False] and gc.isenabled() is enabled, query
            with pytest.raises(ValueError, match="zero vector"):
                minimal_multiplier(lattice, zero)
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_a_query_stream_starts_no_young_collection(lattice_of):
    """Random vectors break most Weyl rows, and each broken one is a
    record the collector tracks. A stream of them through the three
    queries, its answers kept as a batch keeps them, starts no young
    collection: each query's records are moved to the oldest generation
    unscanned when it returns."""
    lattice = lattice_of("EA(2,4)")
    rng = random.Random(0)
    n = lattice.class_count
    vectors = [GhostVector(lattice, [rng.randint(-5, 5) for _ in range(n)]) for _ in range(100)]
    was = gc.isenabled()
    gc.enable()
    try:
        gc.collect(0)
        young = gc.get_stats()[0]["collections"]
        answers = [[query(lattice, vector) for query in QUERIES] for vector in vectors]
        assert gc.get_stats()[0]["collections"] == young and len(answers) == 100
    finally:
        gc.enable() if was else gc.disable()


def _fields(violation):
    return (
        violation.u_class,
        violation.v_class,
        violation.index,
        violation.lhs_sum,
        violation.residue,
    )


def _seeded_vectors(lattice, rng, count):
    """Members, members with one entry moved by one, uniform random
    vectors, and small multiples of every family indicator."""
    n = lattice.class_count
    vectors = []
    for _ in range(count):
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        member = list(ghost_of(lattice, BurnsideElement(lattice, coeffs)).values)
        vectors.append(member)
        perturbed = list(member)
        perturbed[rng.randrange(n)] += rng.choice((-1, 1))
        vectors.append(perturbed)
        vectors.append([rng.randint(-5, 5) for _ in range(n)])
    for family in SubgroupFamily:
        indicator = indicator_vector(lattice, family)
        vectors.extend((d * indicator).values for d in (1, 2, 3))
    return [GhostVector(lattice, v) for v in vectors]


def _assert_dress_route_matches_loops(lattice, vectors):
    """The pair loop checks every pair congruence on its own and builds
    each violation by keyword; it gives the violations that the record
    loop gives over the pair records, and the verdict of
    ``dress_membership``. The certificate of ``dress_membership`` is the
    record loop over the Weyl records read off the walks
    (``_oracles.weyl_congruences``) and over those built from brute-force
    normalizers (``closure_weyl_congruences``), row for row in class
    order. The exponent and its certificate match the pair loop's
    exponent and the witnesses counted from the multiplication table."""
    pairs = pair_congruences(lattice)
    weyl, closure = weyl_congruences(lattice), closure_weyl_congruences(lattice)
    for vector in vectors:
        certificate = dress_membership(lattice, vector)
        oracle = loop_dress_membership(lattice, vector)
        assert certificate.holds == oracle.holds
        assert list(map(_fields, oracle.violations)) == record_violation_rows(pairs, vector.values)
        assert all(type(v) is CongruenceViolation for v in certificate.violations)
        assert list(map(_fields, certificate.violations)) == record_violation_rows(
            weyl, vector.values
        )
        assert record_violation_rows(closure, vector.values) == list(certificate.violations)
    for family in SubgroupFamily:
        result, certificate = _certified(lattice, family)
        assert result == artin_exponent(lattice, family)
        assert result.exponent == loop_dress_exponent(lattice, family)
        assert [(w.divisor, _fields(w.violation)) for w in certificate] == [
            (w.divisor, _fields(w.violation)) for w in family_witnesses(lattice, family)
        ]


def test_congruence_records_are_tuples(lattice_of):
    lattice = lattice_of("C2")
    violation = dress_membership(lattice, GhostVector(lattice, (1, 0))).violations[0]
    assert violation == (0, 1, 2, 1, 1)
    assert repr(violation) == (
        "CongruenceViolation(u_class=0, v_class=1, index=2, lhs_sum=1, residue=1)"
    )
    assert hash(violation) == hash((0, 1, 2, 1, 1))
    with pytest.raises(AttributeError):
        violation.residue = 0
    congruence = dress_congruences(lattice)[0]
    assert congruence == (0, 1, 2, ((0, 1), (1, 1)))
    assert repr(congruence) == (
        "Congruence(u_class=0, v_class=1, index=2, terms=((0, 1), (1, 1)))"
    )


@pytest.mark.parametrize("text", CATALOG_UP_TO_64)
def test_catalog_dress_route_matches_loops(text, lattice_of):
    lattice = lattice_of(text)
    _assert_dress_route_matches_loops(lattice, _seeded_vectors(lattice, random.Random(5), 3))


def test_perm_file_dress_route_matches_loops(tmp_path):
    lattice = enumerate_subgroups(_perm_file_group("S5", tmp_path))
    assert lattice.group.order == 120
    _assert_dress_route_matches_loops(lattice, _seeded_vectors(lattice, random.Random(6), 4))


def test_random_vectors_with_thousands_of_violations_match_loops(lattice_of):
    lattice = lattice_of("EA(2,5)")
    rng = random.Random(7)
    n = lattice.class_count
    vectors = [GhostVector(lattice, [rng.randint(-5, 5) for _ in range(n)]) for _ in range(4)]
    assert all(len(loop_dress_membership(lattice, v).violations) > 2000 for v in vectors)
    _assert_dress_route_matches_loops(lattice, vectors)


def _plan_vectors(lattice, rng):
    """Members, members with one entry moved by one, their negatives,
    uniform negative vectors, and members and uniform vectors at 10^40 in
    size, perturbed or not."""
    n = lattice.class_count
    big = 10**40
    vectors = []
    for _ in range(2):
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        member = list(ghost_of(lattice, BurnsideElement(lattice, coeffs)).values)
        perturbed = list(member)
        perturbed[rng.randrange(n)] += rng.choice((-1, 1))
        vectors += [member, perturbed, [-v for v in member], [-v for v in perturbed]]
        vectors.append([rng.randint(-5, -1) for _ in range(n)])
        vectors.append([big * v for v in member])
        vectors.append([big * v + rng.randint(-2, 2) for v in member])
        vectors.append([rng.choice((-big, big)) + rng.randint(-5, 5) for _ in range(n)])
    return [GhostVector(lattice, v) for v in vectors]


def _assert_plans_sum_as_the_records(lattice, vectors):
    """The Weyl-row loop that ``dress_membership`` and the exponent share
    sums as the record loop does over the Weyl records
    (``_oracles.weyl_congruences``): every violation, every field, in
    order, on negative vectors and vectors of 10^40 in size, the ones the
    pair plan of positions was once checked on (hence the test names),
    with the verdict of the pair loop. The Artin exponent and its
    witnesses are those read from the record loop's violations of the
    Weyl records by each family indicator."""
    weyl = weyl_congruences(lattice)
    for vector in vectors:
        certificate = dress_membership(lattice, vector)
        assert certificate.violations == tuple(record_violation_rows(weyl, vector.values))
        assert all(type(v) is CongruenceViolation for v in certificate.violations)
        assert certificate.holds == loop_dress_membership(lattice, vector).holds
    for family in SubgroupFamily:
        rows = record_violation_rows(weyl, indicator_vector(lattice, family).values)
        result, certificate = _certified(lattice, family)
        assert result.exponent == lcm(*(q // gcd(s, q) for _, _, q, s, _ in rows))
        witnesses = []
        for d in divisors(result.exponent)[:-1]:
            u, v, q, s, _ = next(r for r in rows if d * r[3] % r[2])
            witnesses.append((d, (u, v, q, d * s, d * s % q)))
        assert list(certificate) == witnesses


@pytest.mark.parametrize("text", [*CATALOG_UP_TO_128, "D(8)xC3xQ(8)"])
def test_catalog_plans_sum_as_the_records(text, lattice_of):
    lattice = lattice_of(text)
    _assert_plans_sum_as_the_records(lattice, _plan_vectors(lattice, random.Random(10)))


@pytest.mark.parametrize("name", list(PERM_GENERATOR_SETS))
def test_perm_group_plans_sum_as_the_records(name):
    degree, gens, cap = PERM_GENERATOR_SETS[name]
    lattice = enumerate_subgroups(group_from_perm_generators(degree, gens, order_cap=cap), cap=cap)
    _assert_plans_sum_as_the_records(lattice, _plan_vectors(lattice, random.Random(11)))


def _assert_three_routes_agree(lattice, vectors):
    """The Weyl rows, the pair congruences and the marks solve give the same
    verdict on every vector, and the Weyl rows the same least multiplier."""
    rows = weyl_congruences(lattice)
    order = lattice.group.order
    assert all(sum(count for _, count in terms) == index for _, _, index, terms in rows)
    if order > 1:
        # the row for U = 1 is the Cauchy-Frobenius-Burnside relation
        assert rows[0] == _census_row(lattice)
    for vector in vectors:
        values = vector.values
        sums = [(q, sum(c * values[k] for k, c in terms)) for _, _, q, terms in rows]
        weyl = all(s % q == 0 for q, s in sums)
        assert weyl == dress_membership(lattice, vector).holds
        assert weyl == marks_membership(lattice, vector)[0]
        if any(values):
            weyl_multiplier = lcm(*(q // gcd(s, q) for q, s in sums))
            assert weyl_multiplier == minimal_multiplier(lattice, vector)


@pytest.mark.parametrize("text", CATALOG_UP_TO_64)
def test_catalog_three_routes_agree(text, lattice_of):
    lattice = lattice_of(text)
    _assert_three_routes_agree(lattice, _seeded_vectors(lattice, random.Random(8), 2))


@pytest.mark.parametrize("name", sorted(PERM_FILES))
def test_perm_file_three_routes_agree(name, tmp_path):
    lattice = enumerate_subgroups(_perm_file_group(name, tmp_path))
    _assert_three_routes_agree(lattice, _seeded_vectors(lattice, random.Random(9), 2))


@pytest.mark.parametrize("seed", range(12))
def test_random_two_generator_group_three_routes_agree(seed):
    lattice = enumerate_subgroups(_random_two_generator_group(seed))
    _assert_three_routes_agree(lattice, _seeded_vectors(lattice, random.Random(seed), 2))


@pytest.mark.parametrize("seed", DEGREE_SIX_SEEDS)
def test_random_degree_six_group_three_routes_agree(seed):
    lattice = enumerate_subgroups(_random_degree_six_group(seed))
    _assert_three_routes_agree(lattice, _seeded_vectors(lattice, random.Random(seed), 2))


def _assert_family_rows_match_the_weyl_rows(lattice):
    """For each family, the Weyl rows of the family's classes, as (class,
    index, indicator sum), are the walk-free counts of ``family_rows`` of
    index above 1, and the Artin exponent equals the marks route's
    ``minimal_multiplier`` of the indicator and the lcm of those counts.
    The rows that the indicator violates, as ``dress_membership`` reports
    them from the loop the exponent reads, with the class of N(U), are
    those of the counts, with N(U) found by conjugating U by every
    element (``family_violated_rows``)."""
    rows = weyl_congruences(lattice)
    for family in SubgroupFamily:
        counted = family_rows(lattice, family)
        selected = select_family(lattice, family)
        assert {k for k, _, _ in counted} == selected
        b = indicator_vector(lattice, family)
        weyl = [
            (u, q, sum(c * b.values[k] for k, c in terms))
            for u, _, q, terms in rows
            if u in selected
        ]
        assert weyl == [row for row in counted if row[1] > 1]
        exponent = artin_exponent(lattice, family).exponent
        violated = [v[:4] for v in dress_membership(lattice, b).violations]
        assert violated == list(family_violated_rows(lattice, family))
        assert exponent == minimal_multiplier(lattice, b)
        assert exponent == lcm(*(w // gcd(s, w) for _, w, s in counted))


@pytest.mark.parametrize("text", [*CATALOG_UP_TO_128, "D(8)xC3xQ(8)"])
def test_catalog_family_rows_match_the_weyl_rows(text, lattice_of):
    _assert_family_rows_match_the_weyl_rows(lattice_of(text))


@pytest.mark.parametrize("path", [BENCH_S5, S6], ids=["S5", "S6"])
def test_perm_file_family_rows_match_the_weyl_rows(path):
    group = load_permutation_group(str(path), order_cap=1000)
    _assert_family_rows_match_the_weyl_rows(enumerate_subgroups(group, cap=1000))


@pytest.mark.parametrize("seed", range(12))
def test_random_two_generator_group_family_rows_match_the_weyl_rows(seed):
    lattice = enumerate_subgroups(_random_two_generator_group(seed))
    _assert_family_rows_match_the_weyl_rows(lattice)


@pytest.mark.parametrize("seed", DEGREE_SIX_SEEDS)
def test_random_degree_six_group_family_rows_match_the_weyl_rows(seed):
    lattice = enumerate_subgroups(_random_degree_six_group(seed))
    _assert_family_rows_match_the_weyl_rows(lattice)


def _ea_search_groups():
    """The catalog up to 64, S5 and the seeded two-generator groups."""
    for text in CATALOG_UP_TO_64:
        yield text, build_group(parse_group_spec(text))
    yield "S5", build_group(parse_group_spec(f"perm:{BENCH_S5}"))
    for seed in range(12):
        yield f"random-{seed}", _random_two_generator_group(seed)


def test_the_ea_class_search_finds_the_lattice_classes_and_exponent(lattice_of):
    """A search that reads no enumeration (``_oracles.ea_class_search``)
    finds as many elementary abelian classes of each order as the lattice
    has, and the lcm of its rows' w_U / gcd(s_U, w_U) is the Artin
    exponent: a class that enumeration lost or merged would show here,
    where every route that loops over the lattice's classes would agree
    on the wrong exponent."""
    start = time.perf_counter()
    for name, group in _ea_search_groups():
        rows = ea_class_search(group)
        lattice = lattice_of(name) if name in CATALOG_UP_TO_64 else enumerate_subgroups(group)
        ea = [c.order for c in lattice.classes if c.is_elementary_abelian]
        assert Counter(order for order, _, _ in rows) == Counter(ea), name
        exponent = lcm(*(w // gcd(s, w) for _, w, s in rows))
        assert exponent == artin_exponent(lattice, SubgroupFamily.ELEMENTARY_ABELIAN).exponent, name
    assert time.perf_counter() - start < 2.0

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
prime to |U|, as enumeration reads it. The shared congruence-sum loop
must give the same membership certificates and
Artin-exponent witnesses (every violation, in order, every field) as the
per-congruence loops, and the plans of positions it reads the same
violations as the earlier loop over the records, on members, perturbed
members, negative vectors and vectors of 10^40 in size. Every
normalizer the enumeration records must be the brute-force
{g : gUg^-1 = U}, the Weyl rows read off the walks
(``_oracles.weyl_congruences``) must equal those built from such
normalizers, and the three membership routes (Weyl rows, pair
congruences, marks solve) must agree on every vector tried. For every
family, the Weyl rows of the family's classes must equal the rows counted
from the multiplication table alone, the Artin exponent the marks
solve's and those rows' multiplier, and the rows the exponent finds
violated, with the class of N(U), those of the counted rows. Every walk of a subgroup over its
normalizer, kept by enumeration or made on demand, must equal one closed
from scratch, and a lattice must be freed by reference counting alone.
The whole pipeline, from listing the catalog to the exponent's witnesses,
must leave nothing for the cyclic garbage collector, and enumeration and
the cached builders must run with the collector paused, leave it in the
state they found it, on return and on a raise, and leave no young pass
for the allocations after them, unless the caller has frozen objects.
So must the three membership queries, and a stream of random vectors
through them must start no young collection.
"""

from __future__ import annotations

import gc
import random
import weakref
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
    element_walk_census,
    family_rows,
    family_violated_rows,
    family_witnesses,
    ghost_of,
    loop_dress_exponent,
    loop_dress_membership,
    loop_perm_table,
    mark,
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
from burnside.burnside_ring import _down_sets, _dress_plan
from burnside.exponent import _certified, _family_rows
from burnside.groups import parse_permutation_file
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
    # every walk, kept by enumeration or made on demand, is in class order
    # with U's own row first
    for sub in lattice.all_subgroups:
        lattice.walk(sub)
    assert len(lattice.walks) == len(lattice.all_subgroups)
    for u_mask, walk in lattice.walks.items():
        classes = [c for _, c, _ in walk]
        assert walk[0] == (u_mask, lattice._class_by_mask[u_mask], 1)
        assert classes == sorted(classes)


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
    rows = lattice.walk(lattice.classes[0].representative)
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


@pytest.mark.parametrize("name", ["S4", "S5"])
def test_weyl_rows_reuse_the_pair_walks(name, tmp_path):
    """The exponent's Weyl rows walk no subgroup: each family class reads a
    member already walked, by enumeration or for the pair congruences, and
    gives the same violated rows as on a fresh lattice. The pair system
    walks only U's of pairs of index other than a prime. After it, every
    class of index > 1 with several members has its representative's walk
    dropped for another member's, so a row that walked the representative
    would add a walk."""
    group = _perm_file_group(name, tmp_path)
    lattice = enumerate_subgroups(group)
    walked = lattice.walks
    before = set(walked)
    fresh = [_family_rows(lattice, family) for family in SubgroupFamily]
    assert set(walked) == before
    lattice = enumerate_subgroups(group)
    dress_congruences(lattice)
    walked = lattice.walks
    assert {lattice._class_by_mask[u] for u in walked.keys() - before} <= {
        c.u_class for c in dress_congruences(lattice) if not is_prime(c.index)
    }
    dropped = 0
    for cls in lattice.classes:
        if len(cls.members) > 1 and group.order // (len(cls.members) * cls.order) > 1:
            lattice.walk(cls.members[-1])
            walked.pop(cls.representative.mask, None)
            dropped += 1
    assert dropped > 1
    before = set(walked)
    assert [_family_rows(lattice, family) for family in SubgroupFamily] == fresh
    assert set(walked) == before


def test_weyl_rows_raise_on_a_walk_that_misses_cosets():
    """The coset counts of each Weyl row that the exponent sums must sum to
    its index |G| / (|class| |U|): the walk of U = 1 in Q(8) counts
    1 + 1 + 2 + 2 + 2 cosets, and without its last row it counts 6 of 8.
    U = 1 is in every family, so every family's exponent raises, and so
    does its certificate."""
    lattice = enumerate_subgroups(build_group(parse_group_spec("Q8")))
    u_mask = lattice.classes[0].representative.mask
    lattice.walks[u_mask] = lattice.walks[u_mask][:-1]
    for family in SubgroupFamily:
        for read in (artin_exponent, _certified):
            with pytest.raises(RuntimeError, match="class 0's walk counts 6 of 8 cosets"):
                read(lattice, family)


def _assert_walks_match_scratch_walks(lattice):
    """Enumeration keeps one walk per class, of the member that joined,
    and each equals U's walk over N(U) closed from scratch; so does the
    walk of every other member, walked on demand."""
    by_mask = {sub.mask: sub for sub in lattice.all_subgroups}
    recorded = dict(lattice.walks)
    assert sorted(class_index_of(lattice, by_mask[u]) for u in recorded) == list(
        range(lattice.class_count)
    )
    for u_mask, walk in recorded.items():
        sub = by_mask[u_mask]
        assert walk[0] == (u_mask, class_index_of(lattice, sub), 1)
        assert tuple(sorted(walk)) == closure_walk(lattice, sub)
    for sub in lattice.all_subgroups:
        assert tuple(sorted(lattice.walk(sub))) == closure_walk(lattice, sub)
    assert lattice.walks.keys() == by_mask.keys()


@pytest.mark.parametrize("text", CATALOG_UP_TO_64)
def test_catalog_walks_match_scratch_walks(text):
    _assert_walks_match_scratch_walks(enumerate_subgroups(build_group(parse_group_spec(text))))


@pytest.mark.parametrize("name", sorted(PERM_FILES))
def test_perm_file_walks_match_scratch_walks(name, tmp_path):
    _assert_walks_match_scratch_walks(enumerate_subgroups(_perm_file_group(name, tmp_path)))


def test_lattices_are_freed_by_reference_counting():
    """Nothing a lattice keeps, walks and cached congruences included,
    refers back to it, so it goes with its last reference and no cycle
    waits for the garbage collector."""
    group = build_group(parse_group_spec("D(16)"))
    gc.disable()
    try:
        lattice = enumerate_subgroups(group)
        artin_exponent(lattice, SubgroupFamily.ELEMENTARY_ABELIAN)
        dress_congruences(lattice)
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
            _dress_plan(lattice)
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
    """Enumeration and the cached builders run with the collector paused,
    and leave it as they found it, on return and on a raise: back on, or
    still off when the caller had switched it off."""
    group = build_group(parse_group_spec("D(16)"))
    seen = []
    real_walk = lattice_module._walk

    def walk(*args):
        seen.append(gc.isenabled())
        return real_walk(*args)

    monkeypatch.setattr(lattice_module, "_walk", walk)
    builders = (_down_sets, table_of_marks, dress_congruences, _dress_plan)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            lattice = enumerate_subgroups(group)
            assert seen and not any(seen) and gc.isenabled() is enabled
            assert _collector_state(lattice) is False
            for build in builders:
                build(lattice)
                assert gc.isenabled() is enabled
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
    """Random vectors break most pair congruences, and each broken one is
    a record the collector tracks. A stream of them through the three
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
    for vector in vectors:
        certificate = dress_membership(lattice, vector)
        oracle = loop_dress_membership(lattice, vector)
        assert certificate.holds == oracle.holds
        assert all(type(v) is CongruenceViolation for v in certificate.violations)
        assert list(map(_fields, certificate.violations)) == list(
            map(_fields, oracle.violations)
        )
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
    assert all(len(dress_membership(lattice, v).violations) > 2000 for v in vectors)
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
    """The pair plan gives the violations that the record loop gives: every
    field, in order (``dress_membership``), and the Artin exponent and its
    witnesses are those read from the record loop's violations of the Weyl
    records (``_oracles.weyl_congruences``) by each family indicator."""
    pairs, weyl = dress_congruences(lattice), weyl_congruences(lattice)
    for vector in vectors:
        violations = dress_membership(lattice, vector).violations
        assert violations == tuple(record_violation_rows(pairs, vector.values))
        assert all(type(v) is CongruenceViolation for v in violations)
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


@pytest.mark.parametrize(
    "text",
    ["C(5^3)", "D(128)", f"perm:{BENCH_S5}", "ES+(5)"],
    ids=["C(5^3)", "D(128)", "S5", "ES+(5)"],
)
def test_plans_scale_the_counts_above_one(text, lattice_of):
    """Where coset counts above 1 occur, the pair plan lists them, each
    once, and reads such a term from its scaled copy of the values."""
    lattice = lattice_of(text)
    scales, rows = _dress_plan(lattice)
    assert scales and len(set(scales)) == len(scales) and 1 not in scales
    n = lattice.class_count
    for (u, v, q, positions), congruence in zip(rows, dress_congruences(lattice), strict=True):
        assert (u, v, q) == congruence[:3]
        read = [(at % n, scales[at // n - 1] if at >= n else 1) for at in positions]
        assert read == list(congruence.terms)


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
    The rows the exponent finds violated, with the class of N(U), are
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
        _, _, violated = _family_rows(lattice, family)
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


"""Cross-checks of the lattice and congruence kernels against the
closure-based implementations kept in ``_oracles``.

The coset-wise enumeration must give the same classes (same order, same
members, same flags) and the power-walk Dress system the same congruences
(same order, same terms) as joins closed from scratch.
"""

from __future__ import annotations

import random

import pytest

from _oracles import closure_dress_congruences, closure_enumerate_subgroups
from burnside import (
    build_group,
    dress_congruences,
    enumerate_subgroups,
    group_from_perm_generators,
    parse_group_spec,
    standard_catalog,
    table_of_marks,
)

CATALOG_UP_TO_64 = [spec.text() for spec in standard_catalog(64)]

PERM_FILES = {
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
    assert table_of_marks(lattice).entries == table_of_marks(oracle).entries


def _random_permutation(rng: random.Random, degree: int) -> tuple[int, ...]:
    points = list(range(degree))
    rng.shuffle(points)
    return tuple(points)


def test_catalog_sweep_covers_orders_up_to_64():
    assert len(CATALOG_UP_TO_64) > 30
    assert max(build_group(parse_group_spec(t)).order for t in CATALOG_UP_TO_64) == 64


@pytest.mark.parametrize("text", CATALOG_UP_TO_64)
def test_catalog_group_matches_closure_oracles(text):
    _assert_matches_oracles(build_group(parse_group_spec(text)))


@pytest.mark.parametrize("name", sorted(PERM_FILES))
def test_perm_file_group_matches_closure_oracles(name, tmp_path):
    path = tmp_path / f"{name}.perm"
    path.write_text(PERM_FILES[name], encoding="utf-8")
    _assert_matches_oracles(build_group(parse_group_spec(f"perm:{path}")))


@pytest.mark.parametrize("seed", range(12))
def test_random_two_generator_group_matches_closure_oracles(seed):
    rng = random.Random(seed)
    degree = rng.randint(2, 5)
    gens = [_random_permutation(rng, degree) for _ in range(2)]
    _assert_matches_oracles(group_from_perm_generators(degree, gens))

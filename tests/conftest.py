from __future__ import annotations

import pytest

from burnside import build_group, enumerate_subgroups, parse_group_spec


@pytest.fixture(scope="session")
def lattice_of():
    """Session-wide lattice cache keyed by group-spec text.

    Lattices carry their own derived caches (down-sets and marks), and
    the oracles keep their pair congruences (``_oracles.pair_congruences``),
    so sharing them across tests saves most of the suite's runtime.
    """
    cache = {}

    def get(spec_text: str):
        if spec_text not in cache:
            group = build_group(parse_group_spec(spec_text))
            cache[spec_text] = enumerate_subgroups(group)
        return cache[spec_text]

    return get

"""The enumeration and rendering fast paths against their definitions: the
preorder rows and their open sets, the per-universe label tables, and the
enumerate --json writer."""
import json
from itertools import product

import pytest

from topogamma.core import (
    MAX_POINTS,
    Universe,
    _opens_of_preorder,
    _preorder_rows,
    default_universe,
    enumerate_topologies,
)
from topogamma.errors import MaskOutOfRange
from topogamma.jsonio import space_to_json, topologies_to_json


def _brute_force_preorders(n: int) -> set:
    """Every reflexive transitive relation, by filtering all relations."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = set()
    for pick in product((0, 1), repeat=len(pairs)):
        rows = [1 << i for i in range(n)]
        for (i, j), bit in zip(pairs, pick):
            rows[i] |= bit << j
        transitive = all(
            rows[j] & ~rows[i] == 0
            for i in range(n) for j in range(n) if rows[i] >> j & 1
        )
        if transitive:
            found.add(tuple(rows))
    return found


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_preorder_rows_match_brute_force(n):
    rows = list(_preorder_rows(n))
    assert len(rows) == len(set(rows))
    assert set(rows) == _brute_force_preorders(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_opens_of_preorder_match_up_set_filter(n):
    full = (1 << n) - 1
    for rows in _preorder_rows(n):
        expected = tuple(
            a for a in range(full + 1)
            if all(rows[i] & ~a == 0 for i in range(n) if a >> i & 1)
        )
        assert _opens_of_preorder(rows) == expected, rows


UNIVERSES = [default_universe(n) for n in range(1, MAX_POINTS + 1)] + [
    Universe(("x1", "y_2", "zz")),
]


@pytest.mark.parametrize("universe", UNIVERSES, ids=lambda u: ",".join(u.labels))
def test_label_tables_match_definition(universe):
    for mask in range(universe.full + 1):
        names = tuple(lab for i, lab in enumerate(universe.labels) if mask >> i & 1)
        assert universe.names_of(mask) == names
        assert universe.format_set(mask) == "{" + ",".join(names) + "}"


@pytest.mark.parametrize("universe", UNIVERSES, ids=lambda u: ",".join(u.labels))
def test_label_lookups_still_check_the_mask(universe):
    for mask in (-1, universe.full + 1):
        with pytest.raises(MaskOutOfRange):
            universe.names_of(mask)
        with pytest.raises(MaskOutOfRange):
            universe.format_set(mask)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_topologies_to_json_matches_json_dumps(n):
    topologies = list(enumerate_topologies(n))
    payload = {
        "n": n,
        "count": len(topologies),
        "topologies": [space_to_json(t) for t in topologies],
    }
    assert topologies_to_json(n, topologies) == json.dumps(payload, indent=2, sort_keys=True)


def test_topologies_to_json_with_no_topologies():
    expected = json.dumps({"n": 1, "count": 0, "topologies": []}, indent=2, sort_keys=True)
    assert topologies_to_json(1, []) == expected

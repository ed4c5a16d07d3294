"""The enumeration and rendering fast paths against their definitions: the
open sets carried down the preorder search, the per-universe label
tables, and the enumerate --json writer and its batched stream."""
import hashlib
import json
import tracemalloc
from itertools import product

import pytest

from topogamma.cli import run
from topogamma.core import (
    MAX_POINTS,
    Universe,
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


def _specialization_rows(n: int, opens: tuple) -> tuple:
    """rows[i]: the least open holding point i, the points above i."""
    rows = []
    for i in range(n):
        row = (1 << n) - 1
        for a in opens:
            if a >> i & 1:
                row &= a
        rows.append(row)
    return tuple(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_preorder_rows_match_brute_force(n):
    rows = [_specialization_rows(n, t.opens) for t in enumerate_topologies(n)]
    assert len(rows) == len(set(rows))
    assert set(rows) == _brute_force_preorders(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_opens_of_preorder_match_up_set_filter(n):
    # each open is an up-set of the family's own specialization preorder,
    # so the family equals those up-sets exactly when it is a topology
    full = (1 << n) - 1
    for t in enumerate_topologies(n):
        rows = _specialization_rows(n, t.opens)
        expected = tuple(
            a for a in range(full + 1)
            if all(rows[i] & ~a == 0 for i in range(n) if a >> i & 1)
        )
        assert t.opens == expected, rows


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


class _CountingSink:
    """A stdout that keeps only a digest of what it is sent and the size of
    each write."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.writes = []

    def write(self, text):
        self.digest.update(text.encode())
        self.writes.append(len(text))
        return len(text)

    def flush(self):
        pass


def test_enumerate_json_streams_in_bounded_memory(monkeypatch):
    # the document is 4.6 MB: held whole (and joined, and given its newline)
    # it needs several times the bound, and goes out in one write
    expected = topologies_to_json(5, list(enumerate_topologies(5))) + "\n"
    sink = _CountingSink()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        code = run(["enumerate", "--n", "5", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 << 20
    assert len(sink.writes) > 1
    assert max(sink.writes) <= 1 << 20
    assert sink.digest.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()

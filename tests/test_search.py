"""Counterexample search: the shared-stream map search against the plain
loop it replaces, the cached point-map tables against their bit-loop
definitions, and the claims a search refuses."""
import itertools

import pytest

from topogamma import (
    GammaSpace,
    MapInstance,
    PointMap,
    SemistarContext,
    default_universe,
    evaluate_claim,
)
from topogamma.claims import (
    REFUTED,
    VACUOUS,
    EvalOptions,
    SearchConfig,
    _assignment_indices,
    _assignment_of,
    _replayable,
    get_claim,
    list_claims,
    search_counterexample,
)
from topogamma.core import enumerate_topologies
from topogamma.errors import MaskOutOfRange, ShapeMismatch
from topogamma.ops import enumerate_operations

MAP_CLAIMS = [c.id for c in list_claims() if c.kind == "map"]
FIXTURE_CLAIMS = [c.id for c in list_claims() if c.fixture is not None]


def reference_map_search(claim_id: str, config: SearchConfig) -> dict:
    """The map search as a plain loop: a fresh codomain stream for every
    domain space, a fresh PointMap for every instance, and a label built
    for every verdict. Returns what SearchOutcome.to_dict() returns."""
    claim = get_claim(claim_id)
    opt = config.options

    def spaces():
        for n in range(1, config.max_n + 1):
            for topology in enumerate_topologies(n):
                for op in enumerate_operations(topology, config.domain, config.op_budget):
                    yield GammaSpace(topology, op)

    def instances():
        for domain_space in spaces():
            ctx_x = SemistarContext(domain_space, config.closure_variant)
            for codomain_space in spaces():
                ctx_y = SemistarContext(codomain_space, config.closure_variant)
                size_x, size_y = ctx_x.universe.size, ctx_y.universe.size
                for idx in _assignment_indices(size_y**size_x):
                    pm = PointMap(ctx_x.universe, ctx_y.universe,
                                  _assignment_of(idx, size_x, size_y))
                    yield MapInstance(ctx_x, ctx_y, pm)

    visited = evaluated = refutations = 0
    first = None
    for instance in instances():
        visited += 1
        verdict = evaluate_claim(claim, instance, opt)
        if verdict.status == VACUOUS:
            continue
        evaluated += 1
        if verdict.status == REFUTED:
            refutations += 1
            verdict.witness["assign"] = instance.map.as_labels()
            if first is None:
                first = verdict
            if config.stop_at_first:
                break
    return {
        "claim": claim.id,
        "status": REFUTED if first else "EXHAUSTED",
        "witness": first.to_dict() if first else None,
        "visited": visited,
        "evaluated": evaluated,
        "refutations": refutations,
    }


class TestMapSearchMatchesReference:
    @pytest.mark.parametrize("closure", ["pointwise", "lattice"])
    @pytest.mark.parametrize("stop", [True, False], ids=["stop", "no-stop"])
    @pytest.mark.parametrize("claim_id", MAP_CLAIMS)
    def test_outcome(self, claim_id, stop, closure):
        config = SearchConfig(max_n=2, op_budget=3, stop_at_first=stop,
                              closure_variant=closure)
        got = search_counterexample(claim_id, config).to_dict()
        assert got == reference_map_search(claim_id, config)

    @pytest.mark.parametrize("stop", [True, False], ids=["stop", "no-stop"])
    def test_refuting_outcome_with_hypotheses_dropped(self, stop):
        # T4.7 without its three hypotheses refutes on many instances, so
        # the first witness and the refutation count are both compared
        config = SearchConfig(max_n=2, op_budget=3, stop_at_first=stop,
                              options=EvalOptions(drop=get_claim("T4.7").hypotheses))
        got = search_counterexample("T4.7", config).to_dict()
        assert got["status"] == REFUTED
        assert got == reference_map_search("T4.7", config)

    def test_witness_instance_is_the_labelled_one(self):
        outcome = search_counterexample("T4.9", SearchConfig(max_n=2, op_budget=3))
        assert outcome.status == REFUTED
        assert outcome.witness.instance == outcome.witness_instance.describe()
        assert outcome.witness.witness["assign"] == outcome.witness_instance.map.as_labels()


@pytest.mark.parametrize("claim_id, drop, closure", [
    ("T3.24", frozenset({"semi-regular"}), "pointwise"),
    ("T3.13", frozenset(), "pointwise"),
    ("T3.13", frozenset(), "lattice"),
])
def test_space_search_witness_is_the_labelled_verdict(claim_id, drop, closure):
    # the search renders its first witness after the sweep; it must equal
    # the verdict evaluate_claim renders for the same context, closure
    # included
    config = SearchConfig(max_n=3, op_budget=3, closure_variant=closure,
                          options=EvalOptions(drop=drop))
    outcome = search_counterexample(claim_id, config)
    assert outcome.status == REFUTED
    assert isinstance(outcome.witness_instance, SemistarContext)
    assert outcome.witness.variant["closure"] == closure
    expected = evaluate_claim(claim_id, outcome.witness_instance, config.options)
    assert expected.witness["slots"]
    assert outcome.witness.to_dict() == expected.to_dict()


class TestReplayable:
    def test_source_advances_only_on_demand(self):
        pulled = []

        def source():
            for i in range(5):
                pulled.append(i)
                yield i

        replay = _replayable(source())
        outer = replay()
        assert next(outer) == 0 and pulled == [0]
        assert list(itertools.islice(replay(), 3)) == [0, 1, 2]
        assert pulled == [0, 1, 2]
        assert next(outer) == 1 and pulled == [0, 1, 2]
        assert list(replay()) == [0, 1, 2, 3, 4]
        assert list(outer) == [2, 3, 4]

    def test_source_error_surfaces_where_it_is_reached(self):
        def source():
            yield 0
            raise ValueError("stream ended badly")

        replay = _replayable(source())
        outer = replay()
        assert next(outer) == 0
        with pytest.raises(ValueError):
            list(replay())


def _image_by_bits(assignment, mask):
    out = 0
    for i, t in enumerate(assignment):
        if mask >> i & 1:
            out |= 1 << t
    return out


def _preimage_by_bits(assignment, mask):
    out = 0
    for i, t in enumerate(assignment):
        if mask >> t & 1:
            out |= 1 << i
    return out


class TestPointMapTables:
    @pytest.mark.parametrize("size_x", [1, 2, 3])
    @pytest.mark.parametrize("size_y", [1, 2, 3])
    def test_tables_match_bit_loops(self, size_x, size_y):
        source, target = default_universe(size_x), default_universe(size_y)
        for assignment in itertools.product(range(size_y), repeat=size_x):
            pm = PointMap(source, target, assignment)
            assert pm.image_table == tuple(
                _image_by_bits(assignment, a) for a in range(source.full + 1))
            assert pm.preimage_table == tuple(
                _preimage_by_bits(assignment, b) for b in range(target.full + 1))

    def test_out_of_range_masks_still_raise(self):
        # the tables index by mask unchecked; a mask from outside is
        # checked on the map's source or target universe first
        pm = PointMap(default_universe(2), default_universe(3), (2, 0))
        for universe in (pm.source, pm.target):
            for bad in (-1, universe.full + 1, 2 * (universe.full + 1)):
                with pytest.raises(MaskOutOfRange):
                    universe.check(bad)

    def test_cached_tables_leave_equality_alone(self):
        u = default_universe(2)
        pm, same = PointMap(u, u, (1, 0)), PointMap(u, u, (1, 0))
        pm.image_table, pm.preimage_table, u.full
        assert pm == same and hash(pm) == hash(same)
        assert u == default_universe(2) and hash(u) == hash(default_universe(2))


@pytest.mark.parametrize("claim_id", FIXTURE_CLAIMS)
def test_search_refuses_fixture_claims(claim_id):
    with pytest.raises(ShapeMismatch):
        search_counterexample(claim_id, SearchConfig(max_n=1))

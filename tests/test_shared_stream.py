"""The search stream's shared tables against fresh objects.

Every table and classification flag of every streamed context must equal
that of a fresh SemistarContext(GammaSpace(topology, op), closure),
whatever the order in which the stream's consumer read them. Contexts of
one topology must hold the same InteriorTables exactly when their closure
variants' interior tables are equal, whatever the variants, so the fills
come to one per key, and the kernels under the tables (`image_joins` and
the bitset semi-open family) must equal their definitions."""
from functools import cached_property

import pytest

from topogamma import GammaSpace, SemistarContext, Universe, gamma_from_table, make_topology
from topogamma.claims import SearchConfig, _context_stream, search_counterexample
from topogamma.core import enumerate_topologies, image_joins, interval_family, submasks, supersets
from topogamma.gamma import CLOSURE_VARIANTS
from topogamma.ops import enumerate_operations
from topogamma.semistar import InteriorTables, interior_table

# what a context reads from its space, and what from its shared tables: the
# interior table they are built from, then every table it fills
SPACE_TABLES = ("int_pointwise_table", "sint_pointwise_table")
FLAGS = ("monotone", "open_op", "regular", "semi_open_op", "semi_regular_cap",
         "semi_regular_cup")
TABLES = ["int_table"] + sorted(
    name for name, attr in vars(InteriorTables).items() if isinstance(attr, cached_property)
)

CONFIGS = [
    (max_n, budget, domain, closure)
    for max_n, budget in ((3, 64), (4, 8))
    for domain in ("opens", "semi-opens")
    for closure in ("pointwise", "lattice")
]


def _read(ctx: SemistarContext, k: int) -> None:
    """Read part of the k-th context's tables before the next one is built:
    none on every third context, so some first contexts of a key stay
    unfilled; a rotating part, shared tables first, on the next;
    everything, flags and space tables first, on the third."""
    if k % 3 == 0:
        return
    if k % 3 == 1:
        names = TABLES + list(SPACE_TABLES)
        for name in names[k % len(names):][::2]:
            getattr(ctx.tables, name) if name in TABLES else getattr(ctx.space, name)
        return
    for flag in FLAGS:
        getattr(ctx.space, flag)
    for name in SPACE_TABLES:
        getattr(ctx.space, name)
    for name in TABLES:
        getattr(ctx.tables, name)


def _assert_matches_fresh(ctx: SemistarContext) -> None:
    space = ctx.space
    fresh = SemistarContext(GammaSpace(space.topology, space.gamma), ctx.closure_variant)
    assert ctx.describe() == fresh.describe()
    assert ctx.tables.universe == space.universe
    # the stream skips the constructor's check; its tables must pass it
    SemistarContext(space, ctx.closure_variant, ctx.tables)
    for name in SPACE_TABLES:
        assert getattr(space, name) == getattr(fresh.space, name), (name, ctx.describe())
    for name in TABLES:
        assert getattr(ctx.tables, name) == getattr(fresh.tables, name), (name, ctx.describe())
    for flag in FLAGS:
        assert getattr(space, flag) == getattr(fresh.space, flag), (flag, ctx.describe())


@pytest.mark.parametrize("max_n, budget, domain, closure", CONFIGS)
def test_shared_stream_matches_fresh_contexts(max_n, budget, domain, closure):
    config = SearchConfig(max_n=max_n, op_budget=budget, domain=domain,
                          closure_variant=closure)
    contexts = []
    for k, ctx in enumerate(_context_stream(config)):
        _read(ctx, k)
        contexts.append(ctx)
    assert len(contexts) == sum(
        1 for n in range(1, max_n + 1) for topology in enumerate_topologies(n)
        for _ in enumerate_operations(topology, domain, budget)
    )
    for ctx in contexts:
        _assert_matches_fresh(ctx)


SHARING = [
    (max_n, budget, domain, closures)
    for max_n, budget, domain, closure in CONFIGS
    for closures in ((closure,), CLOSURE_VARIANTS)
    if closures == (closure,) or closure == "pointwise"
]


@pytest.mark.parametrize("max_n, budget, domain, closures", SHARING, ids=[
    "-".join(map(str, config[:3])) + "-" + "+".join(config[3]) for config in SHARING
])
def test_contexts_share_tables_exactly_when_interiors_are_equal(max_n, budget, domain,
                                                                closures):
    config = SearchConfig(max_n=max_n, op_budget=budget, domain=domain)
    # one tables object per (topology, the closure variant's interior
    # table), under one closure or both, and no object under two keys:
    # together, `a.tables is b.tables` exactly when a and b have one
    # topology and equal interior tables, whatever their closures (the
    # contexts are kept, so no id is reused)
    contexts = list(_context_stream(config, closures))
    by_key: dict = {}
    for ctx in contexts:
        key = (ctx.space.topology.universe, ctx.space.topology.opens,
               interior_table(ctx.space, ctx.closure_variant))
        by_key.setdefault(key, set()).add(id(ctx.tables))
    assert all(len(ids) == 1 for ids in by_key.values())
    assert len(set().union(*by_key.values())) == len(by_key)


def _sharing(contexts) -> list:
    """Per context, the index of the first context holding its tables."""
    first: dict = {}
    return [first.setdefault(id(ctx.tables), k) for k, ctx in enumerate(contexts)]


@pytest.mark.parametrize("max_n, budget, domain", [(3, 64, "opens"), (3, 16, "semi-opens")])
def test_one_stream_under_both_closures_matches_one_stream_per_closure(max_n, budget, domain):
    # per operation one context per closure, in order, on one space; each
    # closure's contexts hold tables equal to those its own stream would
    # build, shared between operations exactly where that stream shares them
    config = SearchConfig(max_n=max_n, op_budget=budget, domain=domain)
    both = list(_context_stream(config, CLOSURE_VARIANTS))
    step = len(CLOSURE_VARIANTS)
    assert all(both[k].space is both[k + 1].space for k in range(0, len(both), step))
    for i, closure in enumerate(CLOSURE_VARIANTS):
        own = list(_context_stream(SearchConfig(max_n=max_n, op_budget=budget, domain=domain,
                                                closure_variant=closure)))
        mine = both[i::step]
        assert [ctx.closure_variant for ctx in mine] == [closure] * len(own)
        assert [ctx.describe() for ctx in mine] == [ctx.describe() for ctx in own]
        assert _sharing(mine) == _sharing(own)
        for ctx in mine:
            _assert_matches_fresh(ctx)


def _count_fills(monkeypatch, cls, name: str) -> list:
    fills = []
    fill = vars(cls)[name].func

    def counted(obj):
        fills.append(obj)
        return fill(obj)

    table = cached_property(counted)
    table.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, table)
    return fills


# Every space fills its own interior table once, the key its pointwise
# contexts' tables are shared by; P3.17b and T3.18.5 are gated on `open`,
# which reads that same table. A gated claim reads the semi-open family,
# once per tables object, only on the spaces that meet its gate.
@pytest.mark.parametrize("claim_id, evaluated, family_fills", [
    ("T3.14", 1556, 821), ("P3.17b", 1453, 718), ("T3.18.5", 1453, 718),
])
def test_t314_fills_once_per_space_and_per_interior_table(monkeypatch, claim_id, evaluated,
                                                          family_fills):
    # the benchmark's space-search bounds: 1556 instances, one space each,
    # 821 distinct (topology, interior)
    interiors = _count_fills(monkeypatch, GammaSpace, "int_pointwise_table")
    families = _count_fills(monkeypatch, InteriorTables, "so_family")
    built = []
    init = InteriorTables.__init__

    def counted(tables, *args):
        built.append(tables)
        init(tables, *args)

    monkeypatch.setattr(InteriorTables, "__init__", counted)
    config = SearchConfig(max_n=4, op_budget=4, stop_at_first=False)
    outcome = search_counterexample(claim_id, config)
    assert (outcome.visited, outcome.evaluated) == (1556, evaluated)
    assert len(interiors) == len({id(s) for s in interiors}) == 1556
    assert len(built) == 821
    assert len(families) == len({id(t) for t in families}) == family_fills


def test_kernels_match_their_definitions():
    for full in (0, 1, 3, 7, 15, 255):
        for mask in range(full + 1):
            assert list(submasks(mask)) == [s for s in range(mask + 1) if s & mask == s]
            assert list(supersets(mask, full)) == [
                s for s in range(full + 1) if s & mask == mask
            ]
    universe = Universe(("a", "b", "c", "d"))
    # every union of at most two intervals [B, closure[B]] on 3 points
    small = Universe(("a", "b", "c"))
    intervals = [(bottom, top) for top in range(8) for bottom in submasks(top)]
    for first in intervals:
        for second in [None] + intervals:
            family = [first] if second is None or second[0] == first[0] else [first, second]
            closure = list(range(8))
            for bottom, top in family:
                closure[bottom] = top
            union = {b | e for b, t in family for e in submasks(t & ~b)}
            assert interval_family([b for b, _ in family], closure, small) == tuple(sorted(union))
    for a, bits in enumerate(universe.superset_bits):
        assert [b for b in range(16) if bits >> b & 1] == list(supersets(a, 15))
    for a, bits in enumerate(universe.subset_bits):
        assert [b for b in range(16) if bits >> b & 1] == list(submasks(a))
    # every operation the stream builds over the opens on at most 3 points,
    # and the first 16 over the semi-opens on 3 points
    cases = [
        (topology, op)
        for n in (1, 2, 3)
        for topology in enumerate_topologies(n)
        for op in enumerate_operations(topology, "opens", None)
    ]
    assert len(cases) == 9188
    cases += [
        (topology, op)
        for topology in enumerate_topologies(3)
        for op in enumerate_operations(topology, "semi-opens", 16)
    ]
    for topology, op in cases:
        for family in (topology.opens, topology.semi_opens):
            expected = []
            for a in range(topology.full + 1):
                joined = 0
                for m in family:
                    if op.table[m] & ~a == 0:
                        joined |= m
                expected.append(joined)
            assert image_joins(family, op.table) == tuple(expected)


@pytest.mark.parametrize("closure", ["pointwise", "lattice"])
def test_semi_open_family_is_the_union_of_the_intervals(closure):
    # the masks between some gamma-open O and its closure, in ascending
    # order, on every operation over the opens on at most 3 points
    for n in (1, 2, 3):
        for topology in enumerate_topologies(n):
            for op in enumerate_operations(topology, "opens", None):
                interior = interior_table(GammaSpace(topology, op), closure)
                tables = InteriorTables(topology.universe, interior)
                cl = tables.cl_table
                union = {o | e for o in tables.tau_gamma for e in submasks(cl[o] & ~o)}
                assert tables.so_family == tuple(sorted(union)), (topology, op)


def test_a_context_refuses_tables_of_another_interior():
    # on the discrete 3 points with {b} -> {a,b}, {c} -> {b,c} and
    # {b,c} -> X, the pointwise interior of {b,c} is {c}, whose own is
    # empty, so the lattice interior differs and each variant's tables are
    # refused under the other; tables equal to the variant's own are taken
    discrete = make_topology(Universe(("a", "b", "c")), range(8))
    space = GammaSpace(discrete, gamma_from_table(discrete, {0b010: 0b011, 0b100: 0b110,
                                                             0b110: 0b111}))
    pointwise, lattice = (SemistarContext(space, closure).tables for closure in CLOSURE_VARIANTS)
    assert (pointwise.int_table[0b110], lattice.int_table[0b110]) == (0b100, 0)
    for closure, other in (("pointwise", lattice), ("lattice", pointwise)):
        with pytest.raises(ValueError, match="another interior table"):
            SemistarContext(space, closure, other)
    own = InteriorTables(space.universe, lattice.int_table)
    assert SemistarContext(space, "lattice", own).tables is own
    with pytest.raises(ValueError, match="unknown closure variant 'bogus'"):
        SemistarContext(space, "bogus")

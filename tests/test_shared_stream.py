"""The search stream's shared tables against fresh objects.

Every cached table and classification flag of every streamed context must
equal that of a fresh SemistarContext(GammaSpace(topology, op), closure),
whatever the order in which the stream's consumer read them. Every cached
name must be declared shared or unshared, sharing must cut the fills to
one per key, and the kernels under the tables must equal their
definitions."""
from functools import cached_property

import pytest

from topogamma import GammaSpace, SemistarContext, Universe
from topogamma.claims import SearchConfig, _context_stream, search_counterexample
from topogamma.core import enumerate_topologies, image_joins, submasks, supersets
from topogamma.ops import enumerate_operations


def _cached(cls) -> list:
    return sorted(name for name, attr in vars(cls).items() if isinstance(attr, cached_property))


# the operation-class flags are shared by equal operation tables: each
# reads only the topology and the table
SHARED_BY_TABLE_FLAGS = (
    "monotone", "open_op", "regular", "semi_open_op", "semi_regular_cap",
)
# cached names that no two operations share
UNSHARED = {GammaSpace: (), SemistarContext: ()}

SPACE_TABLES = [name for name in _cached(GammaSpace) if name not in SHARED_BY_TABLE_FLAGS]
CONTEXT_TABLES = _cached(SemistarContext)
FLAGS = list(SHARED_BY_TABLE_FLAGS) + ["semi_regular_cup"]


def test_every_cached_name_is_declared():
    space_shared = GammaSpace.SHARED_BY_TABLE + GammaSpace.SHARED_BY_INTERIOR
    context_shared = SemistarContext.SHARED_BY_TABLE + SemistarContext.SHARED_BY_INTERIOR
    for cls, shared in ((GammaSpace, space_shared), (SemistarContext, context_shared)):
        declared = shared + UNSHARED[cls]
        assert len(set(declared)) == len(declared), cls.__name__
        assert sorted(declared) == _cached(cls), cls.__name__
    assert sorted(GammaSpace.SHARED_BY_TABLE) == sorted(SHARED_BY_TABLE_FLAGS)


def _read(ctx: SemistarContext, k: int) -> None:
    """Read part of the k-th context's tables before the next one is built:
    none on every third context, so some first contexts of a key stay
    unfilled; a rotating part, contexts first, on the next; everything,
    spaces and flags first, on the third."""
    if k % 3 == 0:
        return
    if k % 3 == 1:
        names = CONTEXT_TABLES + SPACE_TABLES
        for name in names[k % len(names):][::2]:
            getattr(ctx, name) if name in CONTEXT_TABLES else getattr(ctx.space, name)
        return
    for flag in FLAGS:
        getattr(ctx.space, flag)
    for name in SPACE_TABLES:
        getattr(ctx.space, name)
    for name in CONTEXT_TABLES:
        getattr(ctx, name)


def _assert_matches_fresh(ctx: SemistarContext) -> None:
    space = ctx.space
    fresh = SemistarContext(GammaSpace(space.topology, space.gamma), ctx.closure_variant)
    assert ctx.describe() == fresh.describe()
    for name in SPACE_TABLES:
        assert getattr(space, name) == getattr(fresh.space, name), (name, ctx.describe())
    for name in CONTEXT_TABLES:
        assert getattr(ctx, name) == getattr(fresh, name), (name, ctx.describe())
    for flag in FLAGS:
        assert getattr(space, flag) == getattr(fresh.space, flag), (flag, ctx.describe())


@pytest.mark.parametrize("max_n, budget, domain, closure", [
    (max_n, budget, domain, closure)
    for max_n, budget in ((3, 64), (4, 8))
    for domain in ("opens", "semi-opens")
    for closure in ("pointwise", "lattice")
])
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


def test_t314_fills_once_per_images_and_per_interior_table(monkeypatch):
    # the benchmark's space-search bounds: 1556 instances, 858 distinct
    # (topology, images of the opens), 821 distinct (topology, interior)
    interiors = _count_fills(monkeypatch, GammaSpace, "int_pointwise_table")
    families = _count_fills(monkeypatch, SemistarContext, "so_family")
    config = SearchConfig(max_n=4, op_budget=4, stop_at_first=False)
    outcome = search_counterexample("T3.14", config)
    assert (outcome.visited, outcome.evaluated) == (1556, 1556)
    assert len(interiors) == 858
    assert len(families) == 821


def test_kernels_match_their_definitions():
    for full in (0, 1, 3, 7, 15, 255):
        for mask in range(full + 1):
            assert list(submasks(mask)) == [s for s in range(mask + 1) if s & mask == s]
            assert list(supersets(mask, full)) == [
                s for s in range(full + 1) if s & mask == mask
            ]
    universe = Universe(("a", "b", "c", "d"))
    for a, bits in enumerate(universe.superset_bits):
        assert [b for b in range(16) if bits >> b & 1] == list(supersets(a, 15))
    for topology in enumerate_topologies(3):
        for op in enumerate_operations(topology, "semi-opens", 16):
            for family in (topology.opens, topology.semi_opens):
                expected = []
                for a in range(8):
                    joined = 0
                    for m in family:
                        if op.table[m] & ~a == 0:
                            joined |= m
                    expected.append(joined)
                assert image_joins(family, op.table) == tuple(expected)

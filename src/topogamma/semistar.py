"""The tables a pointwise gamma-interior table fixes under one closure
variant, on one shared `InteriorTables`: tau_gamma, the gamma-closed
family, the variant's gamma-interior, closure and boundary, and the
starred semi operators (the semi-open family generated by gamma-open
intervals, the semi-closed family, semi-closure, semi-interior and
semi-boundary). A `SemistarContext` pairs one space with them.

Two closures coexist on purpose: the pointwise one collects the points
whose every open neighborhood has an image meeting the set, the lattice
one is the meet of the gamma-closed supersets. They differ for some
operations, and several audited worked examples hold only under the
lattice one, so a context pins one variant for every operator; comparing
variants is the claims engine's job, never an operator's.
"""
from __future__ import annotations

from functools import cached_property
from operator import and_
from typing import Iterable, Iterator, Optional

from .core import Mask, Topology, dual_table, image_joins, interval_family
from .gamma import CLOSURE_VARIANTS, GammaSpace
from .ops import GammaOperation


class InteriorTables:
    """The tables that `int_pointwise_table`, a pointwise gamma-interior
    table on `topology`, fixes under `closure_variant`, each filled the
    first time it is read. They read no operation, so operations with
    equal interior tables share one instance (`shared_contexts`); like a
    `GammaSpace`, an instance is safe to share between threads."""

    def __init__(self, topology: Topology, int_pointwise_table: tuple[Mask, ...],
                 closure_variant: str):
        if closure_variant not in CLOSURE_VARIANTS:
            raise ValueError(
                f"unknown closure variant {closure_variant!r}, expected one of {CLOSURE_VARIANTS}"
            )
        self.topology = topology
        self.int_pointwise_table = int_pointwise_table
        self.closure_variant = closure_variant
        self.universe = topology.universe
        self.full: Mask = topology.full
        # first failure per term that reads nothing beyond these tables
        # (`registry._Term.first_failure`)
        self.first_failures: dict = {}

    @cached_property
    def tau_gamma(self) -> tuple[Mask, ...]:
        table = self.int_pointwise_table
        return tuple([a for a, b in enumerate(table) if a == b])

    @cached_property
    def gamma_closed_family(self) -> tuple[Mask, ...]:
        # also the sets A with cl(A) inside A: int is deflationary, so that
        # holds iff X - A fits in int(X - A), i.e. X - A is gamma-open
        return tuple(sorted(self.full ^ o for o in self.tau_gamma))

    # variant-matched base operators ------------------------------------
    @cached_property
    def int_table(self) -> tuple[Mask, ...]:
        if self.closure_variant == "pointwise":
            return self.int_pointwise_table
        return image_joins(self.tau_gamma, range(self.full + 1))

    @cached_property
    def cl_table(self) -> tuple[Mask, ...]:
        # x misses the pointwise cl(A) when some open V around it has
        # gamma(V) inside X - A; the lattice closed sets are the complements
        # of the gamma-open ones
        return dual_table(self.int_table)

    @cached_property
    def bd_table(self) -> tuple[Mask, ...]:
        # entry X - A of a power-set table is its entry A read backwards
        return tuple(map(and_, self.cl_table, reversed(self.cl_table)))

    # starred semi families ---------------------------------------------
    @cached_property
    def so_family(self) -> tuple[Mask, ...]:
        # the union of the intervals [O, cl(O)] over the gamma-open O
        return interval_family(self.tau_gamma, self.cl_table, self.universe)

    @cached_property
    def so_set(self) -> frozenset:
        return frozenset(self.so_family)

    @cached_property
    def sc_family(self) -> tuple[Mask, ...]:
        return tuple(sorted(self.full ^ s for s in self.so_family))

    @cached_property
    def sc_set(self) -> frozenset:
        return frozenset(self.sc_family)

    @cached_property
    def scl_table(self) -> tuple[Mask, ...]:
        # the semi-closed sets are the complements of the semi-open ones
        return dual_table(self.sint_table)

    @cached_property
    def sbd_table(self) -> tuple[Mask, ...]:
        return tuple(map(and_, self.scl_table, reversed(self.scl_table)))

    @cached_property
    def sint_table(self) -> tuple[Mask, ...]:
        return image_joins(self.so_family, range(self.full + 1))


class SemistarContext:
    """A space plus a pinned closure variant and `tables`, the
    `InteriorTables` of its pointwise interior table under that variant.
    The search stream passes tables shared with other operations; any
    other caller gets fresh ones."""

    def __init__(self, space: GammaSpace, closure_variant: str = "pointwise",
                 tables: Optional[InteriorTables] = None):
        if tables is None:
            tables = InteriorTables(space.topology, space.int_pointwise_table, closure_variant)
        if tables.closure_variant != closure_variant:
            raise ValueError("the tables were built under another closure variant")
        self.space = space
        self.closure_variant = closure_variant
        self.universe = space.universe
        self.full: Mask = space.full
        self.tables = tables

    def describe(self) -> str:
        return f"{self.space.describe()} closure={self.closure_variant}"


def shared_contexts(topology: Topology, operations: Iterable[GammaOperation],
                    closure_variants: tuple[str, ...]) -> Iterator[SemistarContext]:
    """Per operation on `topology`, in order, one context per variant of
    `closure_variants`, in that order, all on one space; contexts whose
    pointwise interior tables and closure variants are equal hold the same
    `InteriorTables`."""
    by_interior: dict = {}
    for op in operations:
        space = GammaSpace(topology, op)
        interior = space.int_pointwise_table
        shared = by_interior.get(interior)
        if shared is None:
            shared = [InteriorTables(topology, interior, variant) for variant in closure_variants]
            by_interior[interior] = shared
        for tables in shared:
            yield SemistarContext(space, tables.closure_variant, tables)


def sandwich_closed(tables: InteriorTables, mask: Mask) -> bool:
    """Some gamma-closed F has int_g(F) inside `mask` inside F (unchecked)."""
    int_g = tables.int_table
    return any(int_g[f] & ~mask == 0 and mask & ~f == 0 for f in tables.gamma_closed_family)


def int_of_cl_closed(tables: InteriorTables, mask: Mask) -> bool:
    """int_g(cl_g(`mask`)) stays inside `mask` (unchecked)."""
    return tables.int_table[tables.cl_table[mask]] & ~mask == 0

"""The tables one gamma-interior table fixes, on one shared
`InteriorTables`: tau_gamma, the gamma-closed family, the closure and
boundary, and the starred semi operators (the semi-open family generated
by gamma-open intervals, the semi-closed family, semi-closure,
semi-interior and semi-boundary). A `SemistarContext` pairs one space
with the tables of its closure variant's interior.

Two closures coexist on purpose: the pointwise one collects the points
whose every open neighborhood has an image meeting the set, the lattice
one is the meet of the gamma-closed supersets. They differ for some
operations, and several audited worked examples hold only under the
lattice one, so a context pins one variant and its interior table;
comparing variants is the claims engine's job, never an operator's.
"""
from __future__ import annotations

from functools import cached_property
from operator import and_
from typing import Iterable, Iterator, Optional

from .core import Mask, Topology, Universe, dual_table, image_joins, interval_family
from .gamma import CLOSURE_VARIANTS, GammaSpace
from .ops import GammaOperation


class InteriorTables:
    """The tables a gamma-interior table `int_table` on `universe` fixes,
    each filled when first read. They read no operation and no closure
    variant, so contexts with equal interior tables share one instance
    (`shared_contexts`), safe to share between threads like a `GammaSpace`."""

    def __init__(self, universe: Universe, int_table: tuple[Mask, ...]):
        self.universe = universe
        self.full: Mask = universe.full
        self.int_table = int_table
        # first failure per term that reads nothing beyond these tables
        # (`registry._Term.first_failure`)
        self.first_failures: dict = {}

    @cached_property
    def tau_gamma(self) -> tuple[Mask, ...]:
        # exact under both closures, as tau_gamma is closed under union
        return tuple([a for a, b in enumerate(self.int_table) if a == b])

    @cached_property
    def gamma_closed_family(self) -> tuple[Mask, ...]:
        # also the sets A with cl(A) inside A: int is deflationary, so that
        # holds iff X - A fits in int(X - A), i.e. X - A is gamma-open
        return tuple(sorted(self.full ^ o for o in self.tau_gamma))

    @cached_property
    def cl_table(self) -> tuple[Mask, ...]:
        # the De Morgan dual of the interior, under either closure
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


def interior_table(space: GammaSpace, closure_variant: str) -> tuple[Mask, ...]:
    """`space`'s gamma-interior table under `closure_variant`: the pointwise
    one, iterated to its fixed point for the lattice closure."""
    if closure_variant == "pointwise":
        return space.int_pointwise_table
    if closure_variant != "lattice":
        raise ValueError(f"unknown closure variant {closure_variant!r}, "
                         f"expected one of {CLOSURE_VARIANTS}")
    # b = int_g(a) is a or a proper subset of it, so entry b is final already
    lattice = list(space.int_pointwise_table)
    for a, b in enumerate(lattice):
        lattice[a] = lattice[b]
    return tuple(lattice)


class SemistarContext:
    """A space plus a pinned closure variant and `tables`, the
    `InteriorTables` of the variant's interior table: shared with other
    contexts in the search stream, fresh for any other caller."""

    def __init__(self, space: GammaSpace, closure_variant: str = "pointwise",
                 tables: Optional[InteriorTables] = None):
        interior = interior_table(space, closure_variant)
        if tables is None:
            tables = InteriorTables(space.universe, interior)
        elif tables.int_table != interior:
            raise ValueError("the tables were built from another interior table")
        self._pin(space, closure_variant, tables)

    def _pin(self, space, closure_variant, tables) -> SemistarContext:
        # unchecked: `shared_contexts` calls it alone, not to iterate a table twice
        self.space = space
        self.closure_variant = closure_variant
        self.universe = space.universe
        self.full: Mask = space.full
        self.tables = tables
        return self

    def describe(self) -> str:
        return f"{self.space.describe()} closure={self.closure_variant}"


def shared_contexts(topology: Topology, operations: Iterable[GammaOperation],
                    closure_variants: tuple[str, ...]) -> Iterator[SemistarContext]:
    """Per operation on `topology`, in order, one context per variant of
    `closure_variants`, in that order, all on one space; contexts with equal
    interior tables hold the same `InteriorTables`, whatever their variants."""
    by_interior: dict = {}
    for op in operations:
        space = GammaSpace(topology, op)
        for variant in closure_variants:
            interior = interior_table(space, variant)
            tables = by_interior.get(interior)
            if tables is None:
                tables = by_interior[interior] = InteriorTables(topology.universe, interior)
            yield SemistarContext.__new__(SemistarContext)._pin(space, variant, tables)


def sandwich_closed(tables: InteriorTables, mask: Mask) -> bool:
    """Some gamma-closed F has int_g(F) inside `mask` inside F (unchecked)."""
    int_g = tables.int_table
    return any(int_g[f] & ~mask == 0 and mask & ~f == 0 for f in tables.gamma_closed_family)


def int_of_cl_closed(tables: InteriorTables, mask: Mask) -> bool:
    """int_g(cl_g(`mask`)) stays inside `mask` (unchecked)."""
    return tables.int_table[tables.cl_table[mask]] & ~mask == 0

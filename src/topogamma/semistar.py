"""The starred semi operators, as families and power-set tables cached on a
context: the semi-open family generated by gamma-open intervals, the
semi-closed family, semi-closure, semi-interior (lattice and pointwise
readings) and semi-boundary; and the two closedness readings the claims
registry compares with membership in the semi-closed family.

A context pins one closure variant for the whole operator suite; comparing
variants is the claims engine's job, never an operator's.
"""
from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from operator import and_
from typing import Iterable, Iterator

from .core import Mask, Topology, dual_table, image_joins, interval_family
from .gamma import CLOSURE_VARIANTS, GammaSpace
from .ops import GammaOperation


class SemistarContext:
    """A space plus a pinned closure variant, with cached derived families."""

    # shared like GammaSpace's; the pointwise semi-interior reads the table
    SHARED_BY_INTERIOR = ("cl_table", "int_table", "bd_table", "so_family", "so_set",
                          "sc_family", "sc_set", "sint_table", "scl_table", "sbd_table")
    SHARED_BY_TABLE = ("sint_pointwise_table",)

    def __init__(self, space: GammaSpace, closure_variant: str = "pointwise"):
        if closure_variant not in CLOSURE_VARIANTS:
            raise ValueError(
                f"unknown closure variant {closure_variant!r}, expected one of {CLOSURE_VARIANTS}"
            )
        self.space = space
        self.closure_variant = closure_variant
        self.universe = space.universe
        self.full: Mask = space.full

    def describe(self) -> str:
        return f"{self.space.describe()} closure={self.closure_variant}"

    # variant-matched base operators ------------------------------------
    @cached_property
    def cl_table(self) -> tuple[Mask, ...]:
        if self.closure_variant == "pointwise":
            return self.space.cl_pointwise_table
        return self.space.cl_lattice_table

    @cached_property
    def int_table(self) -> tuple[Mask, ...]:
        if self.closure_variant == "pointwise":
            return self.space.int_pointwise_table
        return self.space.int_lattice_table

    @cached_property
    def bd_table(self) -> tuple[Mask, ...]:
        # entry X - A of a power-set table is its entry A read backwards
        return tuple(map(and_, self.cl_table, reversed(self.cl_table)))

    # starred semi families ---------------------------------------------
    @cached_property
    def so_family(self) -> tuple[Mask, ...]:
        # one interval [O, cl(O)] per gamma-open O; the union of the
        # intervals is the whole family
        return interval_family(
            (o, self.cl_table[o]) for o in self.space.tau_gamma
        )

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

    @cached_property
    def sint_pointwise_table(self) -> tuple[Mask, ...]:
        # the points of A lying in a classically semi-open U with image(U)
        # inside A
        joins = image_joins(self.space.topology.semi_opens, self.space.gamma.table)
        return tuple(a & j for a, j in enumerate(joins))


# the (GammaSpace, SemistarContext) names an equal key of each kind shares
_BY_TABLE = (GammaSpace.SHARED_BY_TABLE, SemistarContext.SHARED_BY_TABLE)
_BY_INTERIOR = (GammaSpace.SHARED_BY_INTERIOR, SemistarContext.SHARED_BY_INTERIOR)


def _share(caches: tuple, pool: tuple, names: tuple) -> None:
    for cache, values, keep in zip(caches, pool, names):
        for name in cache.keys() & keep:
            values[name] = cache[name]


def shared_contexts(topology: Topology, operations: Iterable[GammaOperation],
                    closure_variant: str) -> Iterator[SemistarContext]:
    """One context per operation on `topology`, in order, each starting with
    the declared values filled on those with its table or interior table."""
    by_images: dict = {}
    tables: dict = defaultdict(lambda: ({}, {}))
    interiors: dict = defaultdict(lambda: ({}, {}))
    for op in operations:
        space = GammaSpace(topology, op)
        ctx = SemistarContext(space, closure_variant)
        caches = (vars(space), vars(ctx))
        images = tuple([op.table[v] for v in topology.opens])
        interior = by_images.get(images)
        if interior is None:
            # other images may give an interior table seen before
            interior = by_images[images] = space.int_pointwise_table
        table_pool, interior_pool = tables[op.table], interiors[interior]
        for pool in (table_pool, interior_pool):
            for cache, values in zip(caches, pool):
                cache.update(values)
        yield ctx
        # a context's fills are collected when the next one is asked for
        _share(caches, table_pool, _BY_TABLE)
        _share(caches, interior_pool, _BY_INTERIOR)


def sandwich_closed(ctx: SemistarContext, mask: Mask) -> bool:
    """Some gamma-closed F has int_g(F) inside `mask` inside F (unchecked)."""
    int_g = ctx.int_table
    return any(int_g[f] & ~mask == 0 and mask & ~f == 0 for f in ctx.space.gamma_closed_family)


def int_of_cl_closed(ctx: SemistarContext, mask: Mask) -> bool:
    """int_g(cl_g(`mask`)) stays inside `mask` (unchecked)."""
    return ctx.int_table[ctx.cl_table[mask]] & ~mask == 0

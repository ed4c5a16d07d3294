"""The tables of an expansive operation on a space that read the operation
itself: the pointwise gamma-interior, the pointwise semi-interior and the
operation-class flags.

Every other gamma table (tau_gamma, both closures, the semi-open
machinery) is fixed by one closure variant's gamma-interior table, this
one or its iterate to the fixed point, so it lives on the
`semistar.InteriorTables` that contexts with equal such tables share.
"""
from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .core import Mask, Topology, image_joins
from .ops import GammaOperation

CLOSURE_VARIANTS = ("pointwise", "lattice")


class GammaSpace:
    """A topology paired with an operation; caches the pointwise interior
    and semi-interior tables and the operation-class flags, each decided
    by exhaustive check the first time it is read.

    regular: any two open neighborhoods of a point dominate a third one's
    image (intersection form). open_op: every open neighborhood image
    contains a gamma-open neighborhood. monotone: images preserve inclusion.
    semi_regular_cap / _cup: the regularity pattern quantified over
    semi-open neighborhoods, with intersection / union on the right side
    (the union form holds for every operation, so it is a constant).
    semi_open_op: every semi-open neighborhood image contains a semi-open
    neighborhood.

    Inputs are immutable and every cached value is a pure function of them,
    so concurrent lazy fills are idempotent and the instance is safe to
    share between threads.
    """

    def __init__(self, topology: Topology, gamma: GammaOperation):
        if len(gamma.table) != topology.full + 1:
            raise ValueError("operation table does not cover the power set of the universe")
        # the interior kernel and every table built on it rely on V inside
        # gamma(V) for every open V, so the table itself is checked, not its flag
        table = gamma.table
        for v in topology.opens:
            if v & ~table[v]:
                raise ValueError("operation must be expansive on the open sets")
        self.topology = topology
        self.gamma = gamma
        self.universe = topology.universe
        self.full: Mask = topology.full

    def describe(self) -> str:
        opens = ",".join(self.universe.format_set(o) for o in self.topology.opens)
        return f"opens=[{opens}] op={self.gamma.origin}"

    @cached_property
    def int_pointwise_table(self) -> tuple[Mask, ...]:
        # x has an open V around it with gamma(V) inside A exactly when x is
        # in such a V, since V fits in gamma(V)
        return image_joins(self.topology.opens, self.gamma.table)

    @cached_property
    def sint_pointwise_table(self) -> tuple[Mask, ...]:
        # the points of A lying in a classically semi-open U with image(U)
        # inside A
        joins = image_joins(self.topology.semi_opens, self.gamma.table)
        return tuple(a & j for a, j in enumerate(joins))

    # operation-class flags -------------------------------------------
    def _regular_over(self, family: tuple[Mask, ...]) -> bool:
        tab = self.gamma.table
        up = self.universe.superset_bits
        for x in range(self.universe.size):
            # only the images of the neighborhoods matter, and a pair with
            # one image is dominated by its own neighborhood
            images = {tab[u] for u in family if u >> x & 1}
            # a pair is dominated iff its meet lies in the images' up-set
            above = 0
            for w in images:
                above |= up[w]
            for g, h in combinations(images, 2):
                if not above >> (g & h) & 1:
                    return False
        return True

    @cached_property
    def regular(self) -> bool:
        return self._regular_over(self.topology.opens)

    @cached_property
    def open_op(self) -> bool:
        # the gamma-opens inside image(U) cover U: U fits in the lattice
        # interior of image(U), the pointwise interior iterated to its fixed
        # point (README, "Derived facts")
        tab, interior = self.gamma.table, self.int_pointwise_table
        for u in self.topology.opens:
            a = tab[u]
            while interior[a] != a:
                a = interior[a]
            if u & ~a:
                return False
        return True

    @cached_property
    def monotone(self) -> bool:
        # inclusion is generated by adding one point at a time
        tab = self.gamma.table
        return all(
            tab[a] & ~tab[a | 1 << i] == 0
            for a in range(len(tab))
            for i in range(self.universe.size)
        )

    @cached_property
    def semi_regular_cap(self) -> bool:
        return self._regular_over(self.topology.semi_opens)

    # for any two images g and h around x, w = g gives w inside g | h
    semi_regular_cup = True

    @cached_property
    def semi_open_op(self) -> bool:
        # the same test, with the join of the semi-opens inside image(U)
        tab, interior = self.gamma.table, self.topology.semi_interior_table
        return all(u & ~interior[tab[u]] == 0 for u in self.topology.semi_opens)

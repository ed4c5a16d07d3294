"""Operators induced by an operation on a space, as tables over the power
set: gamma-interior, the two gamma-closures, the gamma-open and gamma-closed
families, and the operation-class flags.

Two closures coexist on purpose. The pointwise closure collects the points
whose every open neighborhood has an image meeting the set. The lattice
closure is the meet of all gamma-closed supersets (complements of gamma-open
sets). They agree for the identity operation but not in general, and several
of the audited worked examples are only reproducible under the lattice one,
so a `SemistarContext` pins one of them for every operator it derives.
"""
from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .core import Mask, Topology, dual_table, image_joins
from .ops import GammaOperation

CLOSURE_VARIANTS = ("pointwise", "lattice")


class GammaSpace:
    """A topology paired with an operation; caches the derived tables and
    the operation-class flags, each decided by exhaustive check the first
    time it is read.

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

    # shared by operations on one topology (semistar.shared_contexts): the
    # images of the opens give the pointwise interior table, which gives the
    # rest; the flags are shared by equal operation tables
    SHARED_BY_INTERIOR = ("int_pointwise_table", "tau_gamma", "tau_gamma_set",
                          "gamma_closed_family", "cl_pointwise_table", "cl_lattice_table",
                          "int_lattice_table")
    SHARED_BY_TABLE = ("regular", "open_op", "monotone", "semi_regular_cap", "semi_open_op")

    def __init__(self, topology: Topology, gamma: GammaOperation):
        if len(gamma.table) != topology.full + 1:
            raise ValueError("operation table does not cover the power set of the universe")
        # the interior and closure kernels below rely on V inside gamma(V)
        # for every open V, so the table itself is checked, not its flag
        if any(v & ~gamma.table[v] for v in topology.opens):
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
    def tau_gamma(self) -> tuple[Mask, ...]:
        table = self.int_pointwise_table
        return tuple([a for a, b in enumerate(table) if a == b])

    @cached_property
    def tau_gamma_set(self) -> frozenset:
        return frozenset(self.tau_gamma)

    @cached_property
    def gamma_closed_family(self) -> tuple[Mask, ...]:
        # also the sets A with cl(A) inside A: int is deflationary, so that
        # holds iff X - A fits in int(X - A), i.e. X - A is gamma-open
        return tuple(sorted(self.full ^ o for o in self.tau_gamma))

    @cached_property
    def cl_pointwise_table(self) -> tuple[Mask, ...]:
        # x misses cl(A) when some open V around it has gamma(V) inside X - A
        return dual_table(self.int_pointwise_table)

    @cached_property
    def cl_lattice_table(self) -> tuple[Mask, ...]:
        # gamma-closed sets are the complements of the gamma-open ones
        return dual_table(self.int_lattice_table)

    @cached_property
    def int_lattice_table(self) -> tuple[Mask, ...]:
        return image_joins(self.tau_gamma, range(self.full + 1))

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
        # the gamma-opens inside image(U) cover U: U fits in its lattice interior
        tab, interior = self.gamma.table, self.int_lattice_table
        return all(u & ~interior[tab[u]] == 0 for u in self.topology.opens)

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
        tab, semi = self.gamma.table, self.topology.semi_opens
        interior = image_joins(semi, range(len(tab)))
        return all(u & ~interior[tab[u]] == 0 for u in semi)

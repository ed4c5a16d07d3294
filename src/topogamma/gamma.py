"""Operators induced by an operation on a space: gamma-interior, the two
gamma-closures, the gamma-open family, gamma-closedness, gamma-boundary.

Two closures coexist on purpose. The pointwise closure collects the points
whose every open neighborhood has an image meeting the set. The lattice
closure is the meet of all gamma-closed supersets (complements of gamma-open
sets). They agree for the identity operation but not in general, and several
of the audited worked examples are only reproducible under the lattice one,
so every downstream operator accepts a variant switch.
"""
from __future__ import annotations

from functools import cached_property

from .core import Mask, Topology, dual_table, join_of_subsets
from .ops import GammaOperation, OperationClass

CLOSURE_VARIANTS = ("pointwise", "lattice")
CLOSED_VARIANTS = ("complement", "pointwise")


class GammaSpace:
    """A topology paired with an operation; caches the derived tables.

    Inputs are immutable and every cached table is a pure function of them,
    so concurrent lazy fills are idempotent and the instance is safe to
    share between threads.
    """

    def __init__(self, topology: Topology, gamma: GammaOperation):
        if len(gamma.table) != topology.full + 1:
            raise ValueError("operation table does not cover the power set of the universe")
        # the interior and closure kernels below rely on V inside gamma(V)
        # for every open V, so the table itself is checked, not its flag
        if any(v & ~gamma.table[v] for v in topology.opens):
            raise ValueError("operation must be expansive on the open sets")
        self.topology = topology
        self.gamma = gamma

    @property
    def universe(self):
        return self.topology.universe

    @property
    def full(self) -> Mask:
        return self.topology.full

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
        return tuple(a for a in range(self.full + 1) if table[a] == a)

    @cached_property
    def tau_gamma_set(self) -> frozenset:
        return frozenset(self.tau_gamma)

    @cached_property
    def gamma_closed_family(self) -> tuple[Mask, ...]:
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
        return tuple(
            join_of_subsets(a, self.tau_gamma) for a in range(self.full + 1)
        )

    @cached_property
    def pointwise_closed_family(self) -> tuple[Mask, ...]:
        table = self.cl_pointwise_table
        return tuple(a for a in range(self.full + 1) if table[a] & ~a == 0)

    @cached_property
    def classification(self) -> OperationClass:
        return OperationClass(self)


def image_joins(family: tuple[Mask, ...], table: tuple[Mask, ...]) -> tuple[Mask, ...]:
    """Per mask A, the union of the family members whose image fits in A."""
    pairs = [(table[m], m) for m in family]
    out = []
    for a in range(len(table)):
        joined = 0
        for image, m in pairs:
            if image & ~a == 0:
                joined |= m
        out.append(joined)
    return tuple(out)


def int_gamma(space: GammaSpace, mask: Mask) -> Mask:
    """Points of `mask` having an open neighborhood whose image fits in it."""
    space.universe.check(mask)
    return space.int_pointwise_table[mask]


def gamma_open_family(space: GammaSpace) -> tuple[Mask, ...]:
    """All fixed points of the pointwise gamma-interior, canonical order."""
    return space.tau_gamma


def cl_gamma(space: GammaSpace, mask: Mask) -> Mask:
    """Pointwise gamma-closure: points whose every open neighborhood image
    meets `mask`."""
    space.universe.check(mask)
    return space.cl_pointwise_table[mask]


def cl_gamma_lattice(space: GammaSpace, mask: Mask) -> Mask:
    """Meet of all gamma-closed supersets of `mask`."""
    space.universe.check(mask)
    return space.cl_lattice_table[mask]


def int_gamma_lattice(space: GammaSpace, mask: Mask) -> Mask:
    """Join of all gamma-open subsets of `mask`."""
    space.universe.check(mask)
    return space.int_lattice_table[mask]


def is_gamma_closed(space: GammaSpace, mask: Mask, variant: str = "complement") -> bool:
    """complement: the complement is gamma-open. pointwise: the pointwise
    closure stays inside the set."""
    space.universe.check(mask)
    if variant == "complement":
        return (space.full ^ mask) in space.tau_gamma_set
    if variant == "pointwise":
        return space.cl_pointwise_table[mask] & ~mask == 0
    raise ValueError(f"unknown gamma-closed variant {variant!r}, expected one of {CLOSED_VARIANTS}")


def bd_gamma(space: GammaSpace, mask: Mask, variant: str = "pointwise") -> Mask:
    """Gamma-boundary: the chosen closure of the set meets that of its
    complement."""
    space.universe.check(mask)
    if variant == "pointwise":
        table = space.cl_pointwise_table
    elif variant == "lattice":
        table = space.cl_lattice_table
    else:
        raise ValueError(f"unknown closure variant {variant!r}, expected one of {CLOSURE_VARIANTS}")
    return table[mask] & table[space.full ^ mask]

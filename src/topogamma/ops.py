"""Expansive operations on subsets: construction, classification, enumeration.

An operation maps every subset of the universe to another subset and must be
expansive on the open sets (V fits inside its image for every open V). Tables
are total on the power set even though only the open sets are constrained:
the semi-regular and semi-open operation classes apply the operation to
semi-open sets, so partial tables are completed with an explicit fill policy.
"""
from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from typing import Iterator, Mapping

from .core import FrozenValue, Mask, Topology, image_joins
from .errors import NotExpansiveOnOpens

BUILTIN_KINDS = ("identity", "closure", "interior-closure")
FILL_POLICIES = ("identity", "closure")
OPERATION_DOMAINS = ("opens", "semi-opens")


class GammaOperation(FrozenValue):
    """A total subset-to-subset table, expansive on the open sets."""

    _fields = ("table", "origin")

    def __init__(self, table: tuple[Mask, ...], origin: str):
        self._set(table, origin)

    def __call__(self, mask: Mask) -> Mask:
        return self.table[mask]


class OperationClass:
    """The operation-class flags of one GammaSpace, each decided by
    exhaustive check the first time it is read.

    regular: any two open neighborhoods of a point dominate a third one's
    image (intersection form). open: every open neighborhood image contains
    a gamma-open neighborhood. monotone: images preserve inclusion.
    semi_regular_cap / _cup: the regularity pattern quantified over
    semi-open neighborhoods, with intersection / union on the right side
    (the union form holds for every operation, so it is a constant).
    semi_open_op: every semi-open neighborhood image contains a semi-open
    neighborhood.
    """

    def __init__(self, space):
        self.space = space
        self.table = space.gamma.table

    def _regular_over(self, family: tuple[Mask, ...]) -> bool:
        tab = self.table
        up = self.space.universe.superset_bits
        for x in range(self.space.universe.size):
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
        return self._regular_over(self.space.topology.opens)

    @cached_property
    def open_op(self) -> bool:
        # the gamma-opens inside image(U) cover U: U fits in its lattice interior
        tab, interior = self.table, self.space.int_lattice_table
        return all(u & ~interior[tab[u]] == 0 for u in self.space.topology.opens)

    @cached_property
    def monotone(self) -> bool:
        # inclusion is generated by adding one point at a time
        tab = self.table
        return all(
            tab[a] & ~tab[a | 1 << i] == 0
            for a in range(len(tab))
            for i in range(self.space.universe.size)
        )

    @cached_property
    def semi_regular_cap(self) -> bool:
        return self._regular_over(self.space.topology.semi_opens)

    # for any two images g and h around x, w = g gives w inside g | h
    semi_regular_cup = True

    @cached_property
    def semi_open_op(self) -> bool:
        # the same test, with the join of the semi-opens inside image(U)
        tab, semi = self.table, self.space.topology.semi_opens
        interior = image_joins(semi, range(len(tab)))
        return all(u & ~interior[tab[u]] == 0 for u in semi)


def _finish(topology: Topology, table: list[Mask], origin: str) -> GammaOperation:
    for v in topology.opens:
        if v & ~table[v]:
            raise NotExpansiveOnOpens(v)
    return GammaOperation(tuple(table), origin)


def gamma_builtin(kind: str, topology: Topology) -> GammaOperation:
    """One of the three stock operations: identity, closure, interior of closure."""
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown builtin kind {kind!r}, expected one of {BUILTIN_KINDS}")
    if kind == "identity":
        table = list(range(topology.full + 1))
    elif kind == "closure":
        table = list(topology.closure_table)
    else:
        table = [topology.interior_table[c] for c in topology.closure_table]
    return _finish(topology, table, kind)


def gamma_from_table(
    topology: Topology,
    entries: Mapping[Mask, Mask],
    fill: str = "identity",
) -> GammaOperation:
    """Build an operation from listed entries, completing the rest by `fill`.

    Rejects tables that are not expansive on some open set.
    """
    if fill not in FILL_POLICIES:
        raise ValueError(f"unknown fill policy {fill!r}, expected one of {FILL_POLICIES}")
    universe = topology.universe
    if fill == "identity":
        table = list(range(topology.full + 1))
    else:
        table = list(topology.closure_table)
    for key, value in entries.items():
        table[universe.check(key)] = universe.check(value)
    return _finish(topology, table, "table")


def classify_operation(topology: Topology, op: GammaOperation) -> OperationClass:
    """The operation-class flags of `op` on `topology`, each decided the
    first time it is read."""
    from .gamma import GammaSpace

    return GammaSpace(topology, op).classification


def enumerate_operations(
    topology: Topology,
    domain: str = "opens",
    budget: int | None = None,
) -> Iterator[GammaOperation]:
    """Stream operations on a topology in a fixed, deterministic order.

    The three builtins come first, then explicit tables whose keys range
    over the selected domain and whose values range over supersets of each
    key (so every table is expansive by construction), identity fill
    elsewhere. Stops after `budget` operations when given.
    """
    if domain not in OPERATION_DOMAINS:
        raise ValueError(f"unknown domain {domain!r}, expected one of {OPERATION_DOMAINS}")
    if budget is not None and budget <= 0:
        return
    emitted = 0
    for kind in BUILTIN_KINDS:
        yield gamma_builtin(kind, topology)
        emitted += 1
        if budget is not None and emitted >= budget:
            return
    # every open set is semi-open, so the semi-open domain holds the opens
    keys = topology.opens if domain == "opens" else topology.semi_opens
    choice_lists = [topology.universe.superset_table[k] for k in keys]
    for combo in product(*choice_lists):
        yield gamma_from_table(topology, dict(zip(keys, combo)), fill="identity")
        emitted += 1
        if budget is not None and emitted >= budget:
            return

"""Expansive operations on subsets: construction and enumeration.

An operation maps every subset of the universe to another subset and must be
expansive on the open sets (V fits inside its image for every open V). Tables
are total on the power set even though only the open sets are constrained:
the semi-regular and semi-open operation classes apply the operation to
semi-open sets, so partial tables are completed with an explicit fill policy.
"""
from __future__ import annotations

from itertools import product
from typing import Iterator, Mapping

from .core import FrozenValue, Mask, Topology
from .errors import NotExpansiveOnOpens

BUILTIN_KINDS = ("identity", "closure", "interior-closure")
FILL_POLICIES = ("identity", "closure")
OPERATION_DOMAINS = ("opens", "semi-opens")


class GammaOperation(FrozenValue):
    """A total subset-to-subset table, expansive on the open sets."""

    _fields = ("table", "origin")

    def __init__(self, table: tuple[Mask, ...], origin: str):
        self._set(table, origin)


def _finish(topology: Topology, table: tuple[Mask, ...], origin: str) -> GammaOperation:
    for v in topology.opens:
        if v & ~table[v]:
            raise NotExpansiveOnOpens(v)
    return GammaOperation(table, origin)


def _builtin_table(kind: str, topology: Topology) -> tuple[Mask, ...]:
    if kind == "identity":
        return tuple(range(topology.full + 1))
    if kind == "closure":
        return topology.closure_table
    interior = topology.interior_table
    return tuple([interior[c] for c in topology.closure_table])


def gamma_builtin(kind: str, topology: Topology) -> GammaOperation:
    """One of the three stock operations: identity, closure, interior of closure."""
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown builtin kind {kind!r}, expected one of {BUILTIN_KINDS}")
    return _finish(topology, _builtin_table(kind, topology), kind)


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
    return _finish(topology, tuple(table), "table")


# kept for the benchmark tracer, which spans it; the package builds
# `GammaSpace` directly
def classify_operation(topology: Topology, op: GammaOperation):
    """The space of `op` on `topology`, whose operation-class flags are
    each decided the first time they are read."""
    from .gamma import GammaSpace

    return GammaSpace(topology, op)


def enumerate_operations(
    topology: Topology,
    domain: str = "opens",
    budget: int | None = None,
) -> Iterator[GammaOperation]:
    """Stream operations on a topology in a fixed, deterministic order.

    The three builtins come first, then explicit tables whose keys range
    over the selected domain and whose values range over supersets of each
    key (so every table is expansive by construction), identity fill
    elsewhere. Stops after `budget` operations when given. Nothing is
    checked here: `GammaSpace` checks each table it is given.
    """
    if domain not in OPERATION_DOMAINS:
        raise ValueError(f"unknown domain {domain!r}, expected one of {OPERATION_DOMAINS}")
    if budget is not None and budget <= 0:
        return
    emitted = 0
    for kind in BUILTIN_KINDS:
        # expansive on the opens of any topology: an open V lies in cl(V),
        # and V = int(V) lies in int(cl(V))
        yield GammaOperation(_builtin_table(kind, topology), kind)
        emitted += 1
        if budget is not None and emitted >= budget:
            return
    # every open set is semi-open, so the semi-open domain holds the opens
    keys = topology.opens if domain == "opens" else topology.semi_opens
    choice_lists = [topology.universe.superset_table[k] for k in keys]
    identity = list(range(topology.full + 1))
    for combo in product(*choice_lists):
        table = identity.copy()
        for key, value in zip(keys, combo):
            table[key] = value
        yield GammaOperation(tuple(table), "table")
        emitted += 1
        if budget is not None and emitted >= budget:
            return

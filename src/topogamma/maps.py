"""Point functions between two spaces, with the continuity and openness
predicates over the starred semi-open machinery.

An instance carries an independent operation on each side, so statements
mixing domain-side and codomain-side operators are all expressible.
"""
from __future__ import annotations

from functools import cached_property
from typing import Mapping, NamedTuple

from .core import FrozenValue, Mask, Universe
from .semistar import SemistarContext


class PointMap(FrozenValue):
    """A total assignment of source points to target points."""

    _fields = ("source", "target", "assignment")

    def __init__(self, source: Universe, target: Universe, assignment: tuple[int, ...]):
        if len(assignment) != source.size:
            raise ValueError("assignment must cover every source point")
        for t in assignment:
            if type(t) is not int:
                raise ValueError(f"assignment target index {t!r} is not an integer")
            if not 0 <= t < target.size:
                raise ValueError(f"assignment target index {t} out of range")
        self._set(source, target, tuple(assignment))

    @property
    def bijective(self) -> bool:
        return (
            self.source.size == self.target.size
            and len(set(self.assignment)) == self.source.size
        )

    @classmethod
    def from_labels(
        cls, source: Universe, target: Universe, mapping: Mapping[str, str]
    ) -> "PointMap":
        missing = [lab for lab in source.labels if lab not in mapping]
        if missing:
            raise ValueError(f"assignment missing source points {missing}")
        extra = [lab for lab in mapping if lab not in source.labels]
        if extra:
            raise ValueError(f"assignment names unknown source points {extra}")
        unknown = sorted({mapping[lab] for lab in source.labels} - set(target.labels))
        if unknown:
            raise ValueError(f"assignment names unknown target points {unknown}")
        return cls(
            source,
            target,
            tuple(target.labels.index(mapping[lab]) for lab in source.labels),
        )

    def as_labels(self) -> dict[str, str]:
        return {
            self.source.labels[i]: self.target.labels[t]
            for i, t in enumerate(self.assignment)
        }

    # Both tables are built by doubling: the entries for the masks holding
    # point i are the entries below bit i with point i's contribution added.
    @cached_property
    def image_table(self) -> tuple[Mask, ...]:
        """image_table[A] is the image of source mask A."""
        table = [0]
        for t in self.assignment:
            table += [m | (1 << t) for m in table]
        return tuple(table)

    @cached_property
    def preimage_table(self) -> tuple[Mask, ...]:
        """preimage_table[B] is the preimage of target mask B."""
        fibres = [0] * self.target.size
        for i, t in enumerate(self.assignment):
            fibres[t] |= 1 << i
        table = [0]
        for fibre in fibres:
            table += [m | fibre for m in table]
        return tuple(table)


class MapInstance:
    """A point map together with a semistar context on each side."""

    def __init__(
        self,
        domain_ctx: SemistarContext,
        codomain_ctx: SemistarContext,
        point_map: PointMap,
    ):
        # searches share universe objects, so `is` settles most instances
        if point_map.source is not domain_ctx.universe and point_map.source != domain_ctx.universe:
            raise ValueError("map source universe does not match the domain context")
        if point_map.target is not codomain_ctx.universe and point_map.target != codomain_ctx.universe:
            raise ValueError("map target universe does not match the codomain context")
        self.domain_ctx = domain_ctx
        self.codomain_ctx = codomain_ctx
        self.map = point_map

    def describe(self) -> str:
        assign = ",".join(f"{s}->{t}" for s, t in self.map.as_labels().items())
        return (
            f"X: {self.domain_ctx.describe()} | Y: {self.codomain_ctx.describe()}"
            f" | f: {assign}"
        )


class MapCheck(NamedTuple):
    ok: bool
    witness: Mask | None  # the offending gamma-open set when not ok


def is_gamma_semi_continuous(instance: MapInstance) -> MapCheck:
    """Preimages of codomain gamma-open sets are semi-open in the domain."""
    pre = instance.map.preimage_table
    so_x = instance.domain_ctx.tables.so_set
    for b in instance.codomain_ctx.tables.tau_gamma:
        if pre[b] not in so_x:
            return MapCheck(False, b)
    return MapCheck(True, None)


def is_gamma_semi_open_map(instance: MapInstance) -> MapCheck:
    """Images of domain gamma-open sets are semi-open in the codomain."""
    img = instance.map.image_table
    so_y = instance.codomain_ctx.tables.so_set
    for u in instance.domain_ctx.tables.tau_gamma:
        if img[u] not in so_y:
            return MapCheck(False, u)
    return MapCheck(True, None)

"""Point functions between two spaces, with the continuity and openness
predicates over the starred semi-open machinery.

An instance carries an independent operation on each side, so statements
mixing domain-side and codomain-side operators are all expressible.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

from .core import Mask, Universe
from .semistar import SemistarContext


@dataclass(frozen=True)
class PointMap:
    """A total assignment of source points to target points."""

    source: Universe
    target: Universe
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.source.size:
            raise ValueError("assignment must cover every source point")
        for t in self.assignment:
            if not 0 <= t < self.target.size:
                raise ValueError(f"assignment target index {t} out of range")

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


def image(point_map: PointMap, mask: Mask) -> Mask:
    point_map.source.check(mask)
    return point_map.image_table[mask]


def preimage(point_map: PointMap, mask: Mask) -> Mask:
    point_map.target.check(mask)
    return point_map.preimage_table[mask]


class MapInstance:
    """A point map together with a semistar context on each side."""

    def __init__(
        self,
        domain_ctx: SemistarContext,
        codomain_ctx: SemistarContext,
        point_map: PointMap,
    ):
        if point_map.source != domain_ctx.universe:
            raise ValueError("map source universe does not match the domain context")
        if point_map.target != codomain_ctx.universe:
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
    so_x = instance.domain_ctx.so_set
    for b in instance.codomain_ctx.space.tau_gamma:
        if pre[b] not in so_x:
            return MapCheck(False, b)
    return MapCheck(True, None)


def is_gamma_semi_open_map(instance: MapInstance) -> MapCheck:
    """Images of domain gamma-open sets are semi-open in the codomain."""
    img = instance.map.image_table
    so_y = instance.codomain_ctx.so_set
    for u in instance.domain_ctx.space.tau_gamma:
        if img[u] not in so_y:
            return MapCheck(False, u)
    return MapCheck(True, None)

"""Finite universes, bitmask subsets, validated topologies, and the classical
point-set operators (closure and interior tables, semi-open sets).

Subsets of an n-point universe are plain ints: bit i set means point i is in
the subset. Point i carries the i-th label of the universe. Families of
subsets are duplicate-free tuples in ascending mask order, which is the
canonical order used by every report and every "first witness" in the
package.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    MaskOutOfRange,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    UniverseTooLarge,
)

Mask = int

MAX_POINTS = 8
ENUMERATION_CAP = 5

_DEFAULT_LABELS = ("a", "b", "c", "d", "e", "f", "g", "h")


class FrozenValue:
    """Base of the immutable value types. A subclass names its fields in
    `_fields` and sets each once, in `__init__`, with `object.__setattr__`
    (`_set` sets them all in order). Two instances of one class are equal,
    and hash alike, when their field values are. Any other assignment or
    deletion of an attribute raises AttributeError. Cached tables
    (`cached_property`) write the instance dict directly, so they still
    fill, and they stay out of equality and hashing."""

    _fields: tuple = ()

    def _set(self, *values) -> None:
        # object.__setattr__ keeps the values inline in the instance, where
        # attribute reads are fastest; writing `__dict__` would not
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the key is read in one call: the field values, or the bare value
        # of a single field
        cls._key = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Universe(FrozenValue):
    """An ordered, labelled ground set of 1 to 8 points."""

    _fields = ("labels",)

    def __init__(self, labels: Iterable[str]):
        # a tuple, so that equal label sequences give equal, hashable universes
        labels = tuple(labels)
        if not 1 <= len(labels) <= MAX_POINTS:
            raise UniverseTooLarge(
                f"universe must have 1..{MAX_POINTS} points, got {len(labels)}"
            )
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate point labels: {labels}")
        for lab in labels:
            if not lab or not all(ch.isalnum() or ch == "_" for ch in lab):
                raise ValueError(f"label {lab!r} must be non-empty alphanumeric")
        self._set(labels)

    # cached in the instance dict: equality and hashing stay on `labels`
    @cached_property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def full(self) -> Mask:
        return (1 << self.size) - 1

    def check(self, mask: Mask) -> Mask:
        """Return `mask` when it is a subset of the universe, else raise
        MaskOutOfRange. The operator tables of `Topology`, `GammaSpace`,
        `InteriorTables` and `PointMap` are indexed by mask without a
        check, so a mask from outside the program goes through here first;
        a value whose type is not exactly int (a bool, a float, a string) is
        refused too."""
        if type(mask) is not int or mask < 0 or mask & ~self.full:
            raise MaskOutOfRange(mask, self.size)
        return mask

    def mask_of(self, names: Iterable[str]) -> Mask:
        mask = 0
        for name in names:
            try:
                mask |= 1 << self.labels.index(name)
            except ValueError:
                raise ValueError(f"unknown point {name!r} in universe {self.labels}")
        return mask

    # rendering tables, one entry per mask (at most 256), built on first use
    # and shared by every label site of the universe
    @cached_property
    def names_table(self) -> tuple[tuple[str, ...], ...]:
        """names_table[A] is the labels of A's points in bit order."""
        table: list[tuple[str, ...]] = [()]
        for lab in self.labels:
            # the masks with this point as their highest are the earlier
            # masks plus the point
            table += [names + (lab,) for names in table]
        return tuple(table)

    @cached_property
    def format_table(self) -> tuple[str, ...]:
        """format_table[A] is A as a brace literal like {a,b}."""
        return tuple("{" + ",".join(names) + "}" for names in self.names_table)

    @cached_property
    def superset_table(self) -> tuple[tuple[Mask, ...], ...]:
        return tuple(tuple(supersets(a, self.full)) for a in range(self.full + 1))

    @cached_property
    def superset_bits(self) -> tuple[int, ...]:
        """Entry A has bit B set for every superset B of A."""
        return tuple(sum(1 << s for s in above) for above in self.superset_table)

    @cached_property
    def subset_bits(self) -> tuple[int, ...]:
        """Entry A has bit B set for every subset B of A."""
        return tuple(sum(1 << s for s in submasks(a)) for a in range(self.full + 1))

    def names_of(self, mask: Mask) -> tuple[str, ...]:
        self.check(mask)
        return self.names_table[mask]

    def format_set(self, mask: Mask) -> str:
        self.check(mask)
        return self.format_table[mask]


def default_universe(n: int) -> Universe:
    """The n-point universe labelled a, b, c, ..."""
    if not 1 <= n <= MAX_POINTS:
        raise UniverseTooLarge(f"universe must have 1..{MAX_POINTS} points, got {n}")
    return Universe(_DEFAULT_LABELS[:n])


def canonical_family(masks: Iterable[Mask]) -> tuple[Mask, ...]:
    """Duplicate-free, ascending tuple: the canonical subset-family form."""
    return tuple(sorted(set(masks)))


def submasks(mask: Mask) -> Iterator[Mask]:
    """All subsets of `mask`, in ascending order."""
    # (s - mask) & mask is the next submask: the borrow skips bits outside
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def supersets(mask: Mask, full: Mask) -> Iterator[Mask]:
    """All supersets of `mask` inside `full`, in ascending order."""
    # (s + 1) | mask is the least superset of `mask` above s
    s = mask
    while s <= full:
        yield s
        s = (s + 1) | mask


@lru_cache(maxsize=None)
def _push_up_pairs(size: int) -> tuple[tuple[Mask, Mask], ...]:
    """(A, A - {x}) for every mask A below `size` and point x of A, one
    point at a time: the steps that push a power-set table up."""
    return tuple(
        (a, a ^ bit)
        for bit in (1 << i for i in range(size.bit_length() - 1))
        for a in range(size) if a & bit
    )


def image_joins(family: tuple[Mask, ...], table: Sequence[Mask]) -> tuple[Mask, ...]:
    """Per mask A, the union of the family members whose image fits in A:
    each member is put at its image, then pushed up one point at a time."""
    out = [0] * len(table)
    for m in family:
        out[table[m]] |= m
    for a, below in _push_up_pairs(len(out)):
        out[a] |= out[below]
    return tuple(out)


def dual_table(table: tuple[Mask, ...]) -> tuple[Mask, ...]:
    """The De Morgan dual of a subset operator given as a table over the
    power set: A -> X - t(X - A)."""
    full = len(table) - 1
    # entry X - A of a power-set table is its entry A read backwards
    return tuple([full ^ t for t in reversed(table)])


def interval_family(bottoms: Iterable[Mask], closure: Sequence[Mask],
                    universe: Universe) -> tuple[Mask, ...]:
    """All masks in some interval [B, closure[B]] with B in `bottoms`, in
    canonical order.

    The interval is the supersets of B that are subsets of closure[B], so as
    a bit set over the masks it is one AND of two `universe` tables."""
    up, down = universe.superset_bits, universe.subset_bits
    bits = 0
    for bottom in bottoms:
        bits |= up[bottom] & down[closure[bottom]]
    return tuple([a for a in range(universe.full + 1) if bits >> a & 1])


class Topology(FrozenValue):
    """A validated open-set family. Construct through `make_topology`."""

    _fields = ("universe", "opens")

    def __init__(self, universe: Universe, opens: tuple[Mask, ...]):
        # set one by one rather than through `_set`: enumeration builds one
        # Topology per open-set family, and the loop costs a third more;
        # tuple() of the tuples it passes returns them unchanged
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "opens", tuple(opens))

    @cached_property
    def full(self) -> Mask:
        return self.universe.full

    # per-topology tables, cached in the instance dict: equality and hashing
    # stay on the fields
    @cached_property
    def interior_table(self) -> tuple[Mask, ...]:
        # the opens are their own images under the identity
        return image_joins(self.opens, range(self.full + 1))

    @cached_property
    def closure_table(self) -> tuple[Mask, ...]:
        return dual_table(self.interior_table)

    @cached_property
    def semi_opens(self) -> tuple[Mask, ...]:
        """The classical semi-open family: A inside cl(int(A))."""
        closure, interior = self.closure_table, self.interior_table
        return tuple(a for a in range(self.full + 1) if a & ~closure[interior[a]] == 0)

    @cached_property
    def semi_interior_table(self) -> tuple[Mask, ...]:
        """Per mask A, the union of the semi-open subsets of A."""
        return image_joins(self.semi_opens, range(self.full + 1))


def make_topology(universe: Universe, opens: Iterable[Mask]) -> Topology:
    """Validate an open-set family and return the canonical Topology.

    Rejects families missing the empty or full set, or not closed under
    pairwise union / intersection (finite universe, so pairwise suffices).
    """
    fam = canonical_family(universe.check(m) for m in opens)
    members = set(fam)
    if 0 not in members or universe.full not in members:
        raise MissingEmptyOrFull(
            f"opens must contain {{}} and {universe.format_set(universe.full)}"
        )
    for a in fam:
        for b in fam:
            if a >= b:
                continue
            if (a | b) not in members:
                raise NotClosedUnderUnion(a, b)
            if (a & b) not in members:
                raise NotClosedUnderIntersection(a, b)
    return Topology(universe, fam)


# kept for the benchmark tracer, which spans it; the package reads
# `topology.semi_opens`
def semi_open_family(topology: Topology) -> tuple[Mask, ...]:
    """Every semi-open subset, in canonical order."""
    return topology.semi_opens


def semi_closure(topology: Topology, mask: Mask) -> Mask:
    """Intersection of all semi-closed supersets of `mask`: the dual of the
    semi-interior, as the semi-closed sets are the semi-open complements."""
    topology.universe.check(mask)
    full = topology.full
    return full ^ topology.semi_interior_table[full ^ mask]


def _preorder_rows(n: int) -> Iterator[tuple[Mask, ...]]:
    """Every reflexive transitive relation on n points, as up-set rows.

    rows[i] is the set of points reachable from i; reflexivity forces
    bit i. Rows are placed one at a time and each new row is checked
    against all earlier rows at once, so every leaf is a valid preorder and
    no leaf is visited twice. A candidate row for point i must
      - contain the rows of the earlier points it reaches: up[c below i],
        the union of those rows, fits in c, and
      - fit in the row of every earlier point that reaches i.
    """
    full = (1 << n) - 1
    with_point = [[c for c in range(full + 1) if c >> i & 1] for i in range(n)]
    rows: list[Mask] = [0] * n

    def place(i: int, up: list[Mask]) -> Iterator[tuple[Mask, ...]]:
        # up[A], for A among the first i points, is the union of their rows
        below = (1 << i) - 1
        allowed = full
        for row in rows[:i]:
            if row >> i & 1:
                allowed &= row
        for candidate in with_point[i]:
            if candidate & ~allowed == 0 and up[candidate & below] & ~candidate == 0:
                rows[i] = candidate
                if i + 1 == n:
                    yield tuple(rows)
                else:
                    yield from place(i + 1, up + [u | candidate for u in up])

    yield from place(0, [0])


def _opens_of_preorder(rows: tuple[Mask, ...]) -> tuple[Mask, ...]:
    """The open sets of the topology whose specialization preorder has up-set
    rows `rows`: exactly the up-sets, A open iff rows[i] fits in A for every
    i in A.

    The up-closure of A is the union of the rows of A's points, and A is
    open iff it equals its up-closure, so the opens are exactly the unions
    of rows. They are built one row at a time: the unions of the first i+1
    rows are the unions of the first i, each also joined with rows[i]. So
    each open found so far takes one step per row, with no loop over
    points. (A table of up-closures over every mask takes one step per
    mask instead; at n = 5 a topology has 9.6 opens on average against 32
    masks.)
    """
    opens = {0}
    for row in rows:
        opens |= {o | row for o in opens}
    return tuple(sorted(opens))


def enumerate_topologies(n: int) -> Iterator[Topology]:
    """Every topology on the n-point default universe, exactly once.

    Uses the bijection between finite topologies and reflexive transitive
    relations (the specialization preorder); minimal open neighborhoods of
    the points are the rows of the relation. Output order is canonical:
    ascending by open-set tuple.
    """
    if not 1 <= n <= ENUMERATION_CAP:
        raise UniverseTooLarge(f"topology enumeration supports 1..{ENUMERATION_CAP} points")
    universe = default_universe(n)
    families = sorted(_opens_of_preorder(rows) for rows in _preorder_rows(n))
    for fam in families:
        yield Topology(universe, fam)


def brute_force_topologies(n: int) -> tuple[tuple[Mask, ...], ...]:
    """Oracle enumerator: filter every subset family for the topology laws.

    Kept independent of `enumerate_topologies` on purpose; the two must
    agree exactly for n up to 4. Infeasible beyond n = 4.
    """
    if not 1 <= n <= 4:
        raise UniverseTooLarge("brute-force family filter supports 1..4 points")
    full = (1 << n) - 1
    proper = [m for m in range(1, full)]
    found = []
    for pick in range(1 << len(proper)):
        fam = [0] + [m for i, m in enumerate(proper) if pick >> i & 1] + [full]
        members = set(fam)
        ok = True
        for a in fam:
            for b in fam:
                if a >= b:
                    continue
                if (a | b) not in members or (a & b) not in members:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(fam))
    return tuple(sorted(found))

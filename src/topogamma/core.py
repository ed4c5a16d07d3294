"""Finite universes, bitmask subsets, validated topologies, and the classical
point-set operators (closure, interior, boundary, semi-open sets).

Subsets of an n-point universe are plain ints: bit i set means point i is in
the subset. Point i carries the i-th label of the universe. Families of
subsets are duplicate-free tuples in ascending mask order, which is the
canonical order used by every report and every "first witness" in the
package.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class Universe:
    """An ordered, labelled ground set of 1 to 8 points."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= len(self.labels) <= MAX_POINTS:
            raise UniverseTooLarge(
                f"universe must have 1..{MAX_POINTS} points, got {len(self.labels)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate point labels: {self.labels}")
        for lab in self.labels:
            if not lab or not all(ch.isalnum() or ch == "_" for ch in lab):
                raise ValueError(f"label {lab!r} must be non-empty alphanumeric")

    # cached in the instance dict: equality and hashing stay on `labels`
    @cached_property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def full(self) -> Mask:
        return (1 << self.size) - 1

    def check(self, mask: Mask) -> Mask:
        if mask < 0 or mask & ~self.full:
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
    for s in range(mask + 1):
        if s & mask == s:
            yield s


def supersets(mask: Mask, full: Mask) -> Iterator[Mask]:
    """All supersets of `mask` inside `full`, in ascending order."""
    for s in range(full + 1):
        if s & mask == mask:
            yield s


def join_of_subsets(a: Mask, family: Iterable[Mask]) -> Mask:
    """Union of all family members contained in `a` (lattice interior)."""
    out = 0
    for m in family:
        if m & ~a == 0:
            out |= m
    return out


def meet_of_supersets(a: Mask, family: Iterable[Mask], full: Mask) -> Mask:
    """Intersection of all family members containing `a` (lattice closure).

    Falls back to the full set when no member contains `a`.
    """
    out = full
    for m in family:
        if a & ~m == 0:
            out &= m
    return out


def dual_table(table: tuple[Mask, ...]) -> tuple[Mask, ...]:
    """The De Morgan dual of a subset operator given as a table over the
    power set: A -> X - t(X - A)."""
    full = len(table) - 1
    return tuple(full ^ table[full ^ a] for a in range(full + 1))


def interval_family(bottoms_with_tops: Iterable[tuple[Mask, Mask]]) -> tuple[Mask, ...]:
    """All masks sandwiched in some interval [bottom, top], canonical order."""
    out: set[Mask] = set()
    for bottom, top in bottoms_with_tops:
        free = top & ~bottom
        for extra in submasks(free):
            out.add(bottom | extra)
    return tuple(sorted(out))


@dataclass(frozen=True)
class Topology:
    """A validated open-set family. Construct through `make_topology`."""

    universe: Universe
    opens: tuple[Mask, ...]

    @property
    def full(self) -> Mask:
        return self.universe.full

    def is_open(self, mask: Mask) -> bool:
        self.universe.check(mask)
        return mask in self.opens

    @property
    def closeds(self) -> tuple[Mask, ...]:
        return canonical_family(self.full ^ o for o in self.opens)

    # per-topology tables, cached in the instance dict: equality and hashing
    # stay on the fields
    @cached_property
    def interior_table(self) -> tuple[Mask, ...]:
        return tuple(join_of_subsets(a, self.opens) for a in range(self.full + 1))

    @cached_property
    def closure_table(self) -> tuple[Mask, ...]:
        return dual_table(self.interior_table)

    @cached_property
    def semi_opens(self) -> tuple[Mask, ...]:
        """The classical semi-open family: A inside cl(int(A))."""
        closure, interior = self.closure_table, self.interior_table
        return tuple(a for a in range(self.full + 1) if a & ~closure[interior[a]] == 0)


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


def interior(topology: Topology, mask: Mask) -> Mask:
    """Largest open subset of `mask`."""
    topology.universe.check(mask)
    return topology.interior_table[mask]


def closure(topology: Topology, mask: Mask) -> Mask:
    """Smallest closed superset of `mask`."""
    topology.universe.check(mask)
    return topology.closure_table[mask]


def boundary(topology: Topology, mask: Mask) -> Mask:
    """cl(A) meets cl(X - A)."""
    topology.universe.check(mask)
    return closure(topology, mask) & closure(topology, topology.full ^ mask)


def is_semi_open(topology: Topology, mask: Mask) -> bool:
    """A is semi-open when A is inside the closure of its interior."""
    topology.universe.check(mask)
    return mask & ~topology.closure_table[topology.interior_table[mask]] == 0


def semi_open_family(topology: Topology) -> tuple[Mask, ...]:
    """Every semi-open subset, in canonical order."""
    return topology.semi_opens


def semi_closure(topology: Topology, mask: Mask) -> Mask:
    """Intersection of all semi-closed supersets of `mask`."""
    topology.universe.check(mask)
    full = topology.full
    semi_closed = [full ^ s for s in topology.semi_opens]
    return meet_of_supersets(mask, semi_closed, full)


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

"""The claims registry and its evaluation machinery.

Each claim encodes one algebraic statement about a space (or a map between
two spaces) as an executable predicate over quantified subset slots, plus
the named hypotheses the statement assumes. The engine evaluates claims
exhaustively on finite instances, searches enumerated instance streams for
counterexamples when hypotheses are dropped, and replays the whole registry
against the fixture catalog to produce a deterministic audit report.

A claim is a declaration over tables that already exist. A space claim's
predicate indexes its `SemistarContext` (`scl_table`, `sint_table`,
`sbd_table`, `so_set`, ...); a map claim's indexes the two contexts and the
point map's tables through a `MapEnv`. Every predicate is called as
`holds(subject, opt, binding)`, so the evaluation options reach it
explicitly. The map "iff" claims are declared as named sides that must
agree, and the worked-example entries (ids starting with E) as rows of a
table comparing a computed value with the one reported for a catalog
fixture; where the oracle disagrees, the audit files the entry under
errata instead of failing.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional

from . import maps
from .core import (
    ENUMERATION_CAP,
    Mask,
    interval_family,
    meet_of_supersets,
    submasks,
    supersets,
    enumerate_topologies,
)
from .errors import ShapeMismatch, UnknownClaim
from .fixtures import FIXTURE_NOTES, FIXTURE_ORDER, fixture_catalog
from .gamma import CLOSURE_VARIANTS, GammaSpace
from .maps import MapInstance, PointMap
from .ops import BUILTIN_KINDS, enumerate_operations, gamma_builtin
from .semistar import SemistarContext, int_of_cl_closed, sandwich_closed

CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"
VACUOUS = "VACUOUS"

SEMI_REGULAR_VARIANTS = ("cap", "cup")
INTERIOR_READINGS = ("lattice", "pointwise")

KNOWN_HYPOTHESES = (
    "regular",
    "semi-regular",
    "open",
    "monotone",
    "bijective",
    "semi-continuous",
    "semi-open-map",
)


@dataclass(frozen=True)
class EvalOptions:
    """Variant switches and hypothesis overrides for one evaluation."""

    closure_variant: str = "pointwise"
    semi_regular_variant: str = "cap"
    interior_reading: str = "lattice"
    drop: frozenset = frozenset()
    require: Optional[tuple] = None
    map_cap: int = 64
    map_seed: int = 0

    def __post_init__(self):
        # hashable fields, so that options can key the gate cache
        object.__setattr__(self, "drop", frozenset(self.drop))
        if self.require is not None:
            object.__setattr__(self, "require", tuple(self.require))
        if self.closure_variant not in CLOSURE_VARIANTS:
            raise ValueError(f"unknown closure variant {self.closure_variant!r}")
        if self.semi_regular_variant not in SEMI_REGULAR_VARIANTS:
            raise ValueError(f"unknown semi-regular variant {self.semi_regular_variant!r}")
        if self.interior_reading not in INTERIOR_READINGS:
            raise ValueError(f"unknown interior reading {self.interior_reading!r}")
        for name in self.drop:
            if name not in KNOWN_HYPOTHESES:
                raise ValueError(f"unknown hypothesis {name!r}")
        if self.require is not None:
            for name in self.require:
                if name not in KNOWN_HYPOTHESES:
                    raise ValueError(f"unknown hypothesis {name!r}")


class MapEnv:
    """Evaluation environment over one map instance: the two contexts and the
    point map's tables, which predicates index with masks of the right side."""

    def __init__(self, inst: MapInstance):
        self.inst = inst
        self.X = inst.domain_ctx
        self.Y = inst.codomain_ctx
        self.img = inst.map.image_table
        self.pre = inst.map.preimage_table

    def __getattr__(self, name: str) -> bool:
        # the whole-map flags, stored as plain attributes on first read: an env
        # lives for one instance, so a cached_property's lock costs every time
        if name == "semi_continuous":
            value = maps.is_gamma_semi_continuous(self.inst).ok
        elif name == "semi_open_map":
            value = maps.is_gamma_semi_open_map(self.inst).ok
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value


@dataclass(frozen=True)
class Claim:
    """One registry entry: an executable statement plus its hypotheses. The
    subject of `bindings`, `holds` and `detail` is the `SemistarContext` of a
    space claim or the `MapEnv` of a map claim."""

    id: str
    kind: str                                   # "space" | "map"
    statement: str
    bindings: Callable[[object], Iterable[tuple]]
    holds: Callable[[object, EvalOptions, tuple], bool]
    hypotheses: tuple = ()
    slots: tuple = ()                           # (name, render-kind) pairs
    fixture: Optional[str] = None               # E-claims bind to one fixture
    notes: str = ""
    uses_interior_reading: bool = False
    uses_sr_variant: bool = False
    detail: Optional[Callable[[object, EvalOptions, tuple], dict]] = None


@dataclass
class Verdict:
    claim_id: str
    instance: str
    status: str
    variant: dict
    witness: Optional[dict]

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "instance": self.instance,
            "status": self.status,
            "variant": dict(self.variant),
            "witness": self.witness,
        }


# --- binding generators --------------------------------------------------

def _unit(subject) -> Iterator[tuple]:
    yield ()


def _masks(ctx: SemistarContext) -> Iterator[tuple]:
    for a in range(ctx.full + 1):
        yield (a,)


def _pairs(ctx: SemistarContext) -> Iterator[tuple]:
    masks = range(ctx.full + 1)
    for a in masks:
        for b in masks:
            yield (a, b)


def _mask_clauses(ctx: SemistarContext) -> Iterator[tuple]:
    for a in range(ctx.full + 1):
        for clause in (1, 2, 3):
            yield (a, clause)


def _so_pairs(ctx: SemistarContext) -> Iterator[tuple]:
    for a in ctx.so_family:
        for b in ctx.so_family:
            yield (a, b)


def _sc_singles(ctx: SemistarContext) -> Iterator[tuple]:
    for a in ctx.sc_family:
        yield (a,)


def _so_with_supersets(ctx: SemistarContext) -> Iterator[tuple]:
    for a in ctx.so_family:
        for b in supersets(a, ctx.full):
            yield (a, b)


def _subset_of_sc(ctx: SemistarContext) -> Iterator[tuple]:
    for a in range(ctx.full + 1):
        for b in supersets(a, ctx.full):
            if b in ctx.sc_set:
                yield (a, b)


def _tau_disjoint(ctx: SemistarContext) -> Iterator[tuple]:
    for a in ctx.space.tau_gamma:
        for b in submasks(ctx.full ^ a):
            yield (a, b)


def _so_singles_x(env: MapEnv) -> Iterator[tuple]:
    for a in env.X.so_family:
        yield (a,)


_SET = "set"
_SETX = "setX"
_A = (("A", _SET),)
_AB = (("A", _SET), ("B", _SET))

# the slots a space claim's bindings fill, by binding generator
_SLOTS = {
    _masks: _A,
    _sc_singles: _A,
    _mask_clauses: (("A", _SET), ("clause", "clause")),
    _pairs: _AB,
    _so_pairs: _AB,
    _so_with_supersets: _AB,
    _subset_of_sc: _AB,
    _tau_disjoint: _AB,
}


# --- space predicates: holds(ctx, opt, binding) ------------------------------

def _si(ctx: SemistarContext, opt: EvalOptions) -> tuple:
    # the semi-interior of the interior reading the T3.26 claims run under
    if opt.interior_reading == "lattice":
        return ctx.sint_table
    return ctx.sint_pointwise_table


def _t313(ctx, opt, b):
    a, c = b
    scl = ctx.scl_table
    return scl[a | c] == scl[a] | scl[c]


def _t314(ctx, opt, b):
    a, clause = b
    full, scl, sint = ctx.full, ctx.scl_table, ctx.sint_table
    if clause == 1:
        return sint[full ^ a] == full ^ scl[a]
    if clause == 2:
        return scl[full ^ a] == full ^ sint[a]
    return sint[a] == full ^ scl[full ^ a]


def _t316(ctx, opt, b):
    (a,) = b
    fa = ctx.full ^ a
    scl, sint, sbd = ctx.scl_table, ctx.sint_table, ctx.sbd_table
    c1 = (ctx.full ^ sbd[a]) == sint[a] | sint[fa]
    c2 = scl[a] == sint[a] | sbd[a]
    c3 = sbd[a] == scl[a] & scl[fa] and sbd[a] == scl[a] & ~sint[a]
    return c1 == c2 == c3


def _p317a(ctx, opt, b):
    (a,) = b
    return ctx.sbd_table[a] == ctx.sbd_table[ctx.full ^ a]


def _p317b(ctx, opt, b):
    (a,) = b
    scl = ctx.scl_table
    return scl[scl[a]] == scl[a]


def _t318_1(ctx, opt, b):
    (a,) = b
    return ctx.sbd_table[a] == ctx.scl_table[a] & ~ctx.sint_table[a]


def _t318_2(ctx, opt, b):
    (a,) = b
    return ctx.sbd_table[a] & ctx.sint_table[a] == 0


def _t318_3(ctx, opt, b):
    (a,) = b
    return ctx.scl_table[a] == ctx.sint_table[a] | ctx.sbd_table[a]


def _t318_4(ctx, opt, b):
    (a,) = b
    sbd = ctx.sbd_table
    return sbd[ctx.sint_table[a]] & ~sbd[a] == 0


def _t318_5(ctx, opt, b):
    (a,) = b
    sbd = ctx.sbd_table
    return sbd[ctx.scl_table[a]] & ~sbd[a] == 0


def _t318_6(ctx, opt, b):
    (a,) = b
    sint = ctx.sint_table
    return ctx.full ^ ctx.sbd_table[a] == sint[a] | sint[ctx.full ^ a]


def _t318_7(ctx, opt, b):
    (a,) = b
    sint = ctx.sint_table
    return sint[a] | sint[ctx.full ^ a] | ctx.sbd_table[a] == ctx.full


def _t319_1(ctx, opt, b):
    (a,) = b
    return (a in ctx.so_set) == (a & ctx.sbd_table[a] == 0)


def _t319_2(ctx, opt, b):
    (a,) = b
    return (a in ctx.sc_set) == (ctx.sbd_table[a] & ~a == 0)


def _t320(ctx, opt, b):
    (a,) = b
    sbd = ctx.sbd_table
    bd2 = sbd[sbd[a]]
    return sbd[bd2] == bd2


def _t324(ctx, opt, b):
    a, c = b
    return (a & c) in ctx.so_set


def _t326_1(ctx, opt, b):
    (a,) = b
    si = _si(ctx, opt)
    return si[si[a]] == si[a]


def _t326_2(ctx, opt, b):
    a, c = b
    si = _si(ctx, opt)
    return (si[a] | si[c]) & ~si[a | c] == 0


def _t326_3(ctx, opt, b):
    a, c = b
    si = _si(ctx, opt)
    return si[a & c] == si[a] & si[c]


# the semi-exterior sext*(A) is sint*(X - A)

def _t327_1(ctx, opt, b):
    a, c = b
    full, sint = ctx.full, ctx.sint_table
    return sint[full ^ (a | c)] == sint[full ^ a] & sint[full ^ c]


def _t327_2(ctx, opt, b):
    a, c = b
    full, scl, sbd = ctx.full, ctx.scl_table, ctx.sbd_table
    return sbd[a | c] == (sbd[a] & scl[full ^ c]) | (sbd[c] & scl[full ^ a])


def _t327_3(ctx, opt, b):
    a, c = b
    scl, sbd = ctx.scl_table, ctx.sbd_table
    return sbd[a & c] == (sbd[a] & scl[c]) | (sbd[c] & scl[a])


def _p328_1(ctx, opt, b):
    (a,) = b
    # sext*(X - E) is sint*(E)
    ext = ctx.sint_table[ctx.full ^ a]
    return ctx.sint_table[ext] == ext


def _p328_2(ctx, opt, b):
    a, c = b
    full, sint = ctx.full, ctx.sint_table
    return (sint[full ^ a] | sint[full ^ c]) & ~sint[full ^ (a & c)] == 0


def _p329(ctx, opt, b):
    (a,) = b
    return sandwich_closed(ctx, a) == (a in ctx.sc_set)


def _t330(ctx, opt, b):
    (a,) = b
    return int_of_cl_closed(ctx, a) == (a in ctx.sc_set)


def _l44(ctx, opt, b):
    a, c = b
    return a & ~ctx.cl_table[ctx.int_table[c]] == 0


def _l410(ctx, opt, b):
    a, c = b
    return ctx.sbd_table[a] & ~c == 0


def _p411(ctx, opt, b):
    a, c = b
    return a & ctx.cl_table[c] == 0


def _l412(ctx, opt, b):
    a, c = b
    return a & ctx.bd_table[c] == 0


# --- map predicates and equivalence sides: side(env) ----------------------------

_continuity = attrgetter("semi_continuous")
_semi_open_map = attrgetter("semi_open_map")


def _pointwise_continuity(env: MapEnv) -> bool:
    # a semi-open A holding x has f(A) inside B exactly when A lies inside
    # f^-1(B), so f is pointwise continuous iff every f^-1(B) is its own
    # semi-interior
    sint, pre = env.X.sint_table, env.pre
    return all(sint[pre[b]] == pre[b] for b in env.Y.space.tau_gamma)


def _open_map_imageside(env: MapEnv) -> bool:
    img, int_x = env.img, env.X.int_table
    cl_y, int_y = env.Y.cl_table, env.Y.int_table
    for e in range(env.X.full + 1):
        if img[int_x[e]] & ~cl_y[int_y[img[e]]]:
            return False
    return True


def _open_map_preimageside(env: MapEnv) -> bool:
    pre, int_x, cl_x = env.pre, env.X.int_table, env.X.cl_table
    int_y = env.Y.int_table
    for g in range(env.Y.full + 1):
        if int_x[pre[g]] & ~cl_x[pre[int_y[g]]]:
            return False
    return True


def _scl_image_side(env: MapEnv) -> bool:
    img, scl_x, cl_y = env.img, env.X.scl_table, env.Y.cl_table
    return all(img[scl_x[a]] & ~cl_y[img[a]] == 0 for a in range(env.X.full + 1))


def _boundary_preimage_side(env: MapEnv) -> bool:
    pre, sbd_x, bd_y = env.pre, env.X.sbd_table, env.Y.bd_table
    return all(sbd_x[pre[b]] & ~pre[bd_y[b]] == 0 for b in range(env.Y.full + 1))


def _t49_side(env: MapEnv) -> bool:
    scl_x, cl_x = env.X.scl_table, env.X.cl_table
    return all(scl_x[p] & ~cl_x[p] == 0 for p in env.pre)


def _t49p_side(env: MapEnv) -> bool:
    img, pre = env.img, env.pre
    scl_x, cl_y = env.X.scl_table, env.Y.cl_table
    return all(img[scl_x[pre[g]]] & ~cl_y[g] == 0 for g in range(env.Y.full + 1))


def _t413_side(env: MapEnv) -> bool:
    pre, sbd_y, bd_x = env.pre, env.Y.sbd_table, env.X.bd_table
    return all(pre[sbd_y[c]] & ~bd_x[pre[c]] == 0 for c in range(env.Y.full + 1))


def _t47(env, opt, b):
    (a,) = b
    return env.img[a] in env.Y.so_set


# --- worked-example values: computed(ctx, opt) -------------------------------------

def _reported_sweep(family: tuple, full: Mask) -> tuple:
    """Interval sweep taking `family` itself as the gamma-open sets and
    the meet of its complements as closure."""
    closed = tuple(full ^ o for o in family)
    return interval_family(
        (o, meet_of_supersets(o, closed, full)) for o in family
    )


def _sr_flag(cls, opt: EvalOptions) -> bool:
    if opt.semi_regular_variant == "cap":
        return cls.semi_regular_cap
    return cls.semi_regular_cup


def _semi_regular(ctx, opt):
    return _sr_flag(ctx.space.classification, opt)


def _tau(ctx, opt):
    return ctx.space.tau_gamma


def _so(ctx, opt):
    return ctx.so_family


def _classical_so(ctx, opt):
    return ctx.space.topology.semi_opens


# reported families on the three-point fixtures, as masks (a,b,c = bits 0,1,2)
_F1_TAU = (0, 1, 5, 7)
_F2_TAU = (0, 1, 2, 3, 7)

# id, fixture, statement, computed(ctx, opt), reported[, notes]
_EXAMPLES = (
    ("E3.2a", "F1", "reported gamma-open family {{},{a},{a,c},X} matches the computed one",
     _tau, _F1_TAU),
    ("E3.2b", "F1", "reported semi-open family {{},{a},{a,b},{a,c},X} matches the computed one",
     _so, (0, 1, 3, 5, 7)),
    ("E3.2c", "F1", "interval sweep over the reported gamma-open family with lattice closure "
     "reproduces the reported semi-open family",
     lambda ctx, opt: _reported_sweep(_F1_TAU, 7), (0, 1, 3, 5, 7)),
    ("E3.2d", "F1", "{a,b} is semi-open", lambda ctx, opt: 3 in ctx.so_set, True),
    ("E3.2e", "F1", "{a,b} is not gamma-open",
     lambda ctx, opt: 3 in ctx.space.tau_gamma_set, False),
    ("E3.2f", "F1", "cl_g({a}) = X", lambda ctx, opt: ctx.cl_table[1], "{a,b,c}"),
    ("E3.3a", "F2", "reported gamma-open family {{},{a},{b},{a,b},X} matches the computed one",
     _tau, _F2_TAU),
    ("E3.3b", "F2", "{b,c} is semi-open", lambda ctx, opt: 6 in ctx.so_set, True),
    ("E3.3c", "F2", "{b,c} is not classically semi-open",
     lambda ctx, opt: 6 in _classical_so(ctx, opt), False),
    ("E3.3d", "F2", "interval sweep over the reported gamma-open family with lattice closure "
     "makes {b,c} semi-open",
     lambda ctx, opt: 6 in _reported_sweep(_F2_TAU, 7), True),
    ("E3.4a", "F3", "reported gamma-open family {{},{b},{a,b},{a,c},X} matches the computed one",
     _tau, (0, 2, 3, 5, 7)),
    ("E3.4b", "F3", "{a} is classically semi-open",
     lambda ctx, opt: 1 in _classical_so(ctx, opt), True),
    ("E3.4c", "F3", "{a} is not semi-open", lambda ctx, opt: 1 in ctx.so_set, False),
    ("E3.23a", "F4", "classical semi-open family is {{},{a},{a,b},{a,c},X}",
     _classical_so, (0, 1, 3, 5, 7)),
    ("E3.23b", "F4", "the closure operation is not semi-regular", _semi_regular, False,
     "operation read as A -> cl(A)"),
    ("E3.23c", "F4", "the closure operation is a semi-open operation",
     lambda ctx, opt: ctx.space.classification.semi_open_op, True),
    ("E3.25a", "F5", "reported semi-open family {{},{a},{c},{a,b},{b,c},X} matches the computed one",
     _so, (0, 1, 3, 4, 6, 7)),
    ("E3.25b", "F5", "{a,b} and {b,c} are semi-open but their intersection {b} is not",
     lambda ctx, opt: 3 in ctx.so_set and 6 in ctx.so_set and 2 not in ctx.so_set, True),
    ("E3.25c", "F5", "the interior-of-closure operation is not semi-regular", _semi_regular, False),
)


# --- registry ----------------------------------------------------------------

def _space_claim(cid, statement, bindings, holds, hyps=(), notes="", uses_interior=False):
    return Claim(
        id=cid,
        kind="space",
        statement=statement,
        bindings=bindings,
        holds=holds,
        hypotheses=tuple(hyps),
        slots=_SLOTS[bindings],
        notes=notes,
        uses_interior_reading=uses_interior,
        uses_sr_variant="semi-regular" in hyps,
    )


def _equivalence(cid, statement, sides, hyps=(), notes=""):
    """A map claim that whole-map properties agree: `holds` when every side
    gives the first side's value; the witness detail is every side's value,
    keyed by side name in declaration order."""
    first, *rest = sides.values()

    def holds(env, opt, b):
        want = first(env)
        for side in rest:
            if side(env) != want:
                return False
        return True

    def detail(env, opt, b):
        return {name: side(env) for name, side in sides.items()}

    return Claim(
        id=cid,
        kind="map",
        statement=statement,
        bindings=_unit,
        holds=holds,
        hypotheses=tuple(hyps),
        notes=notes,
        detail=detail,
    )


def _family_labels(ctx: SemistarContext, family) -> list:
    return [list(ctx.universe.names_of(m)) for m in family]


def _example(cid, fixture, statement, computed, reported, notes=""):
    """A worked-example claim: `computed` on the fixture's context against the
    reported value. The type of `reported` decides the witness detail: a
    family (tuple of masks) shows both families, a set rendered as text
    (str) shows both renderings, and a flag (bool) shows none. Evaluation
    refuses any instance other than the fixture, so `computed` reads the
    fixture's own context."""
    value, detail = computed, None
    if isinstance(reported, str):
        def value(ctx, opt):
            return ctx.universe.format_set(computed(ctx, opt))

        def detail(ctx, opt, b):
            return {"computed": value(ctx, opt), "reported": reported}
    elif isinstance(reported, tuple):
        def detail(ctx, opt, b):
            return {
                "computed": _family_labels(ctx, computed(ctx, opt)),
                "reported": _family_labels(ctx, reported),
            }
    return Claim(
        id=cid,
        kind="space",
        statement=statement,
        bindings=_unit,
        holds=lambda ctx, opt, b: value(ctx, opt) == reported,
        fixture=fixture,
        notes=notes,
        # the one computed value that reads the semi-regular reading
        uses_sr_variant=computed is _semi_regular,
        detail=detail,
    )


def _build_registry() -> tuple:
    semi_regular = ("semi-regular",)
    claims = [
        _space_claim("T3.13", "scl*(A u B) = scl*(A) u scl*(B)", _pairs, _t313, ("regular",)),
        _space_claim("T3.14", "duality: sint*(X-A) = X - scl*(A); scl*(X-A) = X - sint*(A); "
                     "sint*(A) = X - scl*(X-A)", _mask_clauses, _t314),
        _space_claim("T3.16", "the three boundary decompositions of A hold or fail together",
                     _masks, _t316),
        _space_claim("P3.17a", "sbd*(A) = sbd*(X-A)", _masks, _p317a),
        _space_claim("P3.17b", "scl*(scl*(A)) = scl*(A)", _masks, _p317b, ("open",)),
        _space_claim("T3.18.1", "sbd*(A) = scl*(A) - sint*(A)", _masks, _t318_1),
        _space_claim("T3.18.2", "sbd*(A) n sint*(A) = {}", _masks, _t318_2),
        _space_claim("T3.18.3", "scl*(A) = sint*(A) u sbd*(A)", _masks, _t318_3),
        _space_claim("T3.18.4", "sbd*(sint*(A)) is inside sbd*(A)", _masks, _t318_4),
        _space_claim("T3.18.5", "sbd*(scl*(A)) is inside sbd*(A)", _masks, _t318_5, ("open",)),
        _space_claim("T3.18.6", "X - sbd*(A) = sint*(A) u sint*(X-A)", _masks, _t318_6),
        _space_claim("T3.18.7", "X = sint*(A) u sint*(X-A) u sbd*(A)", _masks, _t318_7),
        _space_claim("T3.19.1", "A semi-open iff A n sbd*(A) = {}", _masks, _t319_1),
        _space_claim("T3.19.2", "A semi-closed iff sbd*(A) inside A", _masks, _t319_2),
        _space_claim("T3.20", "sbd*^3(A) = sbd*^2(A) on semi-closed A", _sc_singles, _t320,
                     ("regular",), notes="audited under regular, open, and both hypotheses"),
        _space_claim("T3.24", "A n B semi-open for semi-open A, B", _so_pairs, _t324, semi_regular),
        _space_claim("T3.26.1", "sint*(sint*(A)) = sint*(A)", _masks, _t326_1, semi_regular,
                     uses_interior=True),
        _space_claim("T3.26.2", "sint*(A u B) contains sint*(A) u sint*(B)", _pairs, _t326_2,
                     semi_regular, uses_interior=True),
        _space_claim("T3.26.3", "sint*(A n B) = sint*(A) n sint*(B)", _pairs, _t326_3,
                     semi_regular, uses_interior=True),
        _space_claim("T3.27.1", "sext*(A u B) = sext*(A) n sext*(B)", _pairs, _t327_1,
                     semi_regular),
        _space_claim("T3.27.2", "sbd*(A u B) = (sbd*(A) n scl*(X-B)) u (sbd*(B) n scl*(X-A))",
                     _pairs, _t327_2, semi_regular),
        _space_claim("T3.27.3", "sbd*(A n B) = (sbd*(A) n scl*(B)) u (sbd*(B) n scl*(A))",
                     _pairs, _t327_3, semi_regular),
        _space_claim("P3.28.1", "sext*(X - sext*(A)) = sext*(A)", _masks, _p328_1, semi_regular),
        _space_claim("P3.28.2", "sext*(A n B) contains sext*(A) u sext*(B)", _pairs, _p328_2,
                     semi_regular),
        _space_claim("P3.29", "A semi-closed iff some gamma-closed F has int_g(F) inside A "
                     "inside F", _masks, _p329),
        _space_claim("T3.30", "A semi-closed iff int_g(cl_g(A)) inside A", _masks, _t330),
        _space_claim("L4.4", "semi-open A inside B implies A inside cl_g(int_g(B))",
                     _so_with_supersets, _l44),
        _space_claim("L4.10", "A inside semi-closed B implies sbd*(A) inside B",
                     _subset_of_sc, _l410),
        _space_claim("P4.11", "gamma-open A disjoint from B implies A n cl_g(B) = {}",
                     _tau_disjoint, _p411),
        _space_claim("L4.12", "gamma-open A disjoint from B implies A n bd_g(B) = {}",
                     _tau_disjoint, _l412),
        _equivalence("T4.2", "preimage continuity iff pointwise continuity",
                     {"preimage_side": _continuity, "pointwise_side": _pointwise_continuity},
                     hyps=("regular",)),
        _equivalence("T4.5", "f semi-open iff f(int_g(E)) inside cl_g(int_g(f(E))) for all E",
                     {"image_side": _semi_open_map, "interior_closure_side": _open_map_imageside}),
        _equivalence("T4.6", "f semi-open iff int_g(f^-1(G)) inside cl_g(f^-1(int_g(G))) for all G",
                     {"image_side": _semi_open_map, "preimage_side": _open_map_preimageside}),
        Claim(id="T4.7", kind="map", statement="images of semi-open sets are semi-open",
              bindings=_so_singles_x, holds=_t47,
              hypotheses=("open", "semi-continuous", "semi-open-map"), slots=(("A", _SETX),)),
        _equivalence("T4.8", "continuity, scl-image containment, and boundary-preimage "
                     "containment are equivalent",
                     {"continuity": _continuity, "closure_of_image": _scl_image_side,
                      "boundary_preimage": _boundary_preimage_side}),
        _equivalence("T4.9", "f continuous iff scl*(f^-1(G)) inside cl_g(f^-1(G)) for all G",
                     {"continuity": _continuity, "containment_side": _t49_side}),
        _equivalence("T4.9p", "f continuous iff f(scl*(f^-1(G))) inside cl_g(G) for all G",
                     {"continuity": _continuity, "containment_side": _t49p_side},
                     notes="companion inequality to T4.9; registered separately"),
        _equivalence("T4.13", "bijective f semi-open iff f^-1(sbd*(B)) inside bd_g(f^-1(B)) "
                     "for all B", {"image_side": _semi_open_map, "boundary_side": _t413_side},
                     hyps=("bijective",)),
        _equivalence("T4.14", "f semi-open iff f(int_g(A)) inside cl_g(int_g(f(A))) for all A",
                     {"image_side": _semi_open_map, "interior_closure_side": _open_map_imageside},
                     notes="same predicate as T4.5; registered under both ids"),
    ]
    claims += [_example(*row) for row in _EXAMPLES]
    return tuple(claims)


_REGISTRY = _build_registry()
_BY_ID = {c.id: c for c in _REGISTRY}


def list_claims() -> tuple:
    """The full registry, in declaration order."""
    return _REGISTRY


def get_claim(claim_id: str) -> Claim:
    try:
        return _BY_ID[claim_id]
    except KeyError:
        raise UnknownClaim(f"no claim with id {claim_id!r}") from None


# --- evaluation ---------------------------------------------------------------

def _as_context(instance, opt: EvalOptions) -> SemistarContext:
    if isinstance(instance, SemistarContext):
        return instance
    if isinstance(instance, GammaSpace):
        return SemistarContext(instance, opt.closure_variant)
    raise ShapeMismatch(
        f"space claim needs a space or context, got {type(instance).__name__}"
    )


@lru_cache(maxsize=None)
def _fixture_shape(name: str) -> tuple:
    space = fixture_catalog()[name]
    return space.topology, space.gamma.table


def _claim_context(claim: Claim, instance, opt: EvalOptions) -> SemistarContext:
    """The context a space claim reads; a worked-example claim reads only
    its own fixture's topology and operation table."""
    ctx = _as_context(instance, opt)
    if claim.fixture is not None and (
        (ctx.space.topology, ctx.space.gamma.table) != _fixture_shape(claim.fixture)
    ):
        raise ShapeMismatch(
            f"claim {claim.id} checks fixture {claim.fixture}; the instance is another space"
        )
    return ctx


def _hypothesis_met(name: str, subject, opt: EvalOptions) -> bool:
    if isinstance(subject, SemistarContext):
        cls = subject.space.classification
        if name == "regular":
            return cls.regular
        if name == "open":
            return cls.open_op
        if name == "monotone":
            return cls.monotone
        if name == "semi-regular":
            return _sr_flag(cls, opt)
        raise ValueError(f"hypothesis {name!r} does not apply to a space claim")
    if name == "bijective":
        return subject.inst.map.bijective
    if name == "semi-continuous":
        return subject.semi_continuous
    if name == "semi-open-map":
        return subject.semi_open_map
    # a flag is decided when first read, so each hypothesis decides only
    # the flags it names (T4.2's `regular` never classifies the codomain)
    cls_x = subject.X.space.classification
    if name == "regular":
        return cls_x.regular
    if name == "semi-regular":
        return _sr_flag(cls_x, opt)
    cls_y = subject.Y.space.classification
    if name == "open":
        return cls_x.open_op and cls_y.open_op
    if name == "monotone":
        return cls_x.monotone and cls_y.monotone
    raise ValueError(f"unknown hypothesis {name!r}")


@lru_cache(maxsize=None)
def _gate(hypotheses: tuple, uses_interior: bool, opt: EvalOptions,
          closure: str) -> tuple:
    """The hypotheses a claim enforces under `opt`, and its variant record.
    Callers copy the record before adding to it."""
    base = hypotheses if opt.require is None else tuple(opt.require)
    hyps = tuple(h for h in base if h not in opt.drop)
    variant = {
        "closure": closure,
        "semi_regular": opt.semi_regular_variant,
        "interior": opt.interior_reading if uses_interior else "lattice",
        "hypotheses": "+".join(hyps) if hyps else "none",
    }
    return hyps, variant


def _render_binding(claim: Claim, subject, opt: EvalOptions, binding: tuple) -> dict:
    universe = subject.universe if claim.kind == "space" else subject.X.universe
    slots = {}
    for (name, kind), value in zip(claim.slots, binding):
        slots[name] = universe.format_set(value) if kind in (_SET, _SETX) else value
    witness = {"binding": list(binding)}
    if slots:
        witness["slots"] = slots
    if claim.detail is not None:
        witness["detail"] = claim.detail(subject, opt, binding)
    return witness


def _run(claim: Claim, subject, opt: EvalOptions, label: str,
         closure: str, extra_variant: Optional[dict] = None) -> Verdict:
    """Gate, then sweep the bindings. A verdict labelled "" is one the
    caller will most likely discard, so its witness holds the binding only."""
    hyps, variant = _gate(claim.hypotheses, claim.uses_interior_reading, opt, closure)
    variant = dict(variant)
    if extra_variant:
        variant.update(extra_variant)
    for h in hyps:
        if not _hypothesis_met(h, subject, opt):
            variant["unmet"] = h
            return Verdict(claim.id, label, VACUOUS, variant, None)
    for binding in claim.bindings(subject):
        if not claim.holds(subject, opt, binding):
            if label:
                witness = _render_binding(claim, subject, opt, binding)
            else:
                witness = {"binding": list(binding)}
            return Verdict(claim.id, label, REFUTED, variant, witness)
    return Verdict(claim.id, label, CONFIRMED, variant, None)


def _assignment_indices(total: int, opt: EvalOptions) -> list:
    if total <= opt.map_cap:
        return list(range(total))
    rng = random.Random(opt.map_seed)
    return sorted(rng.sample(range(total), opt.map_cap))


def _assignment_of(index: int, size_x: int, size_y: int) -> tuple:
    return tuple((index // size_y**i) % size_y for i in range(size_x))


def _point_maps(source, target, opt: EvalOptions) -> list:
    """The maps a sweep visits from `source` to `target`, in sweep order."""
    total = target.size**source.size
    return [
        PointMap(source, target, _assignment_of(idx, source.size, target.size))
        for idx in _assignment_indices(total, opt)
    ]


def _evaluate_map_sweep(claim: Claim, pair: tuple, opt: EvalOptions,
                        label: Optional[str]) -> Verdict:
    ctx_x = _as_context(pair[0], opt)
    ctx_y = _as_context(pair[1], opt)
    point_maps = _point_maps(ctx_x.universe, ctx_y.universe, opt)
    total = ctx_y.universe.size**ctx_x.universe.size
    sweep_note = (
        f"exhaustive({total})" if total <= opt.map_cap
        else f"sampled({len(point_maps)} of {total}, seed={opt.map_seed})"
    )
    closure = _closure_label(ctx_x, ctx_y)
    if label is None:
        label = f"{ctx_x.describe()} -> {ctx_y.describe()}"
    met = 0
    for pm in point_maps:
        env = MapEnv(MapInstance(ctx_x, ctx_y, pm))
        verdict = _run(claim, env, opt, label, closure, {"maps": sweep_note})
        if verdict.status == VACUOUS:
            continue
        met += 1
        if verdict.status == REFUTED:
            verdict.witness["assign"] = pm.as_labels()
            verdict.variant["maps"] = f"{sweep_note}, met={met}"
            return verdict
    variant = dict(_gate(claim.hypotheses, claim.uses_interior_reading, opt, closure)[1])
    variant["maps"] = f"{sweep_note}, met={met}"
    if met == 0:
        variant["unmet"] = "no map met the hypotheses"
        return Verdict(claim.id, label, VACUOUS, variant, None)
    return Verdict(claim.id, label, CONFIRMED, variant, None)


def _closure_label(ctx_x: SemistarContext, ctx_y: SemistarContext) -> str:
    if ctx_x.closure_variant == ctx_y.closure_variant:
        return ctx_x.closure_variant
    return f"{ctx_x.closure_variant}/{ctx_y.closure_variant}"


def evaluate_claim(claim_or_id, instance, options: Optional[EvalOptions] = None,
                   label: Optional[str] = None) -> Verdict:
    """Evaluate one claim on one instance, sweeping its quantified slots.

    Space claims take a GammaSpace or SemistarContext. Map claims take a
    MapInstance, or a (domain, codomain) pair in which case the point map
    becomes a swept slot (exhaustive up to `map_cap` assignments, then a
    seeded sample, recorded in the verdict).

    `label` names the instance in the verdict; None renders the instance's
    description. A caller that discards most verdicts passes "": a REFUTED
    verdict then carries only its binding, and the caller labels and renders
    only the verdicts it keeps.
    """
    claim = claim_or_id if isinstance(claim_or_id, Claim) else get_claim(claim_or_id)
    opt = options or EvalOptions()
    if claim.kind == "space":
        ctx = _claim_context(claim, instance, opt)
        if label is None:
            label = ctx.describe()
        return _run(claim, ctx, opt, label, ctx.closure_variant)
    if isinstance(instance, MapInstance):
        closure = _closure_label(instance.domain_ctx, instance.codomain_ctx)
        if label is None:
            label = instance.describe()
        return _run(claim, MapEnv(instance), opt, label, closure)
    if isinstance(instance, tuple) and len(instance) == 2:
        return _evaluate_map_sweep(claim, instance, opt, label)
    raise ShapeMismatch(
        f"map claim needs a map instance or a (domain, codomain) pair, "
        f"got {type(instance).__name__}"
    )


def reevaluate_witness(claim_or_id, instance, witness: dict,
                       options: Optional[EvalOptions] = None) -> bool:
    """True when the stored witness still falsifies the claim on re-evaluation."""
    claim = claim_or_id if isinstance(claim_or_id, Claim) else get_claim(claim_or_id)
    opt = options or EvalOptions()
    binding = tuple(witness.get("binding", ()))
    if claim.kind == "space":
        subject = _claim_context(claim, instance, opt)
    elif isinstance(instance, MapInstance):
        subject = MapEnv(instance)
    else:
        ctx_x = _as_context(instance[0], opt)
        ctx_y = _as_context(instance[1], opt)
        pm = PointMap.from_labels(ctx_x.universe, ctx_y.universe, witness["assign"])
        subject = MapEnv(MapInstance(ctx_x, ctx_y, pm))
    return not claim.holds(subject, opt, binding)


# --- counterexample search ------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Bounds and overrides for a counterexample search."""

    max_n: int = 4
    op_budget: int = 64
    domain: str = "opens"
    drop: frozenset = frozenset()
    stop_at_first: bool = True
    closure_variant: str = "pointwise"
    semi_regular_variant: str = "cap"
    interior_reading: str = "lattice"
    map_cap: int = 27
    map_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.max_n <= ENUMERATION_CAP:
            raise ValueError(f"max_n must be between 1 and {ENUMERATION_CAP}")
        if self.op_budget < 1:
            raise ValueError("op_budget must be positive")

    def options(self) -> EvalOptions:
        return EvalOptions(
            closure_variant=self.closure_variant,
            semi_regular_variant=self.semi_regular_variant,
            interior_reading=self.interior_reading,
            drop=frozenset(self.drop),
            map_cap=self.map_cap,
            map_seed=self.map_seed,
        )


@dataclass
class SearchOutcome:
    claim_id: str
    status: str                  # REFUTED | EXHAUSTED
    witness: Optional[Verdict]
    visited: int
    evaluated: int
    refutations: int
    witness_instance: object = None   # the refuting GammaSpace / MapInstance

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "status": self.status,
            "witness": self.witness.to_dict() if self.witness else None,
            "visited": self.visited,
            "evaluated": self.evaluated,
            "refutations": self.refutations,
        }


def _context_stream(config: SearchConfig) -> Iterator[SemistarContext]:
    for n in range(1, config.max_n + 1):
        for topology in enumerate_topologies(n):
            for op in enumerate_operations(topology, config.domain, config.op_budget):
                yield SemistarContext(GammaSpace(topology, op), config.closure_variant)


def _replayable(stream: Iterator) -> Callable[[], Iterator]:
    """Replays of one stream: each replay yields the same items in order,
    and the stream is advanced only when a replay first needs an item."""
    items: list = []

    def replay() -> Iterator:
        i = 0
        while True:
            if i == len(items):
                try:
                    items.append(next(stream))
                except StopIteration:
                    return
            yield items[i]
            i += 1

    return replay


def _map_instances(config: SearchConfig, opt: EvalOptions) -> Iterator[MapInstance]:
    """Every enumerated space paired with every one, each pair under each
    swept point map. Contexts and point maps are built once and shared, so
    their cached tables fill once per search."""
    contexts = _replayable(_context_stream(config))
    point_maps: dict = {}
    for ctx_x in contexts():
        for ctx_y in contexts():
            pair = (ctx_x.universe, ctx_y.universe)
            if pair not in point_maps:
                point_maps[pair] = _point_maps(*pair, opt)
            for pm in point_maps[pair]:
                yield MapInstance(ctx_x, ctx_y, pm)


def search_counterexample(claim_id: str, config: Optional[SearchConfig] = None) -> SearchOutcome:
    """Stream enumerated instances in canonical order and hunt for a refutation.

    Hypotheses named in `config.drop` are not enforced, which turns necessity
    examples into reproducible searches. Returns the first refuted verdict,
    or an exhausted outcome with full accounting. Only the first refutation
    is kept, so only it is labelled and has its witness rendered.
    Worked-example claims are bound to their fixture and cannot be searched.
    """
    claim = get_claim(claim_id)
    if claim.fixture is not None:
        raise ShapeMismatch(
            f"claim {claim.id} checks fixture {claim.fixture} and cannot be searched"
        )
    config = config or SearchConfig()
    opt = config.options()
    visited = evaluated = refutations = 0
    first: Optional[Verdict] = None
    first_instance = None

    if claim.kind == "space":
        instances = _context_stream(config)
    else:
        instances = _map_instances(config, opt)
    for instance in instances:
        visited += 1
        verdict = evaluate_claim(claim, instance, opt, label="")
        if verdict.status == VACUOUS:
            continue
        evaluated += 1
        if verdict.status == REFUTED:
            refutations += 1
            if first is None:
                verdict.instance = instance.describe()
                subject = instance if claim.kind == "space" else MapEnv(instance)
                binding = tuple(verdict.witness["binding"])
                verdict.witness = _render_binding(claim, subject, opt, binding)
                if claim.kind == "space":
                    first_instance = instance.space
                else:
                    verdict.witness["assign"] = instance.map.as_labels()
                    first_instance = instance
                first = verdict
            if config.stop_at_first:
                break

    status = REFUTED if first is not None else "EXHAUSTED"
    return SearchOutcome(
        claim.id, status, first, visited, evaluated, refutations, first_instance
    )


# --- the audit -------------------------------------------------------------------

STRUCTURAL_IDS = (
    "T3.14", "T3.16", "P3.17a",
    "T3.18.1", "T3.18.2", "T3.18.3", "T3.18.6", "T3.18.7",
    "T3.19.1", "T3.19.2",
)

_T320_MODES = (("regular",), ("open",), ("regular", "open"))


@dataclass
class AuditReport:
    fixtures: dict
    entries: list
    sweeps: list
    errata: list

    def to_json(self) -> str:
        payload = {
            "fixtures": self.fixtures,
            "entries": self.entries,
            "sweeps": self.sweeps,
            "errata": self.errata,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = []
        statuses = {}
        for e in self.entries:
            statuses[e["status"]] = statuses.get(e["status"], 0) + 1
        summary = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
        lines.append(
            f"audit: {len(set(e['claim'] for e in self.entries))} claims, "
            f"{len(self.entries)} verdicts ({summary}), {len(self.errata)} errata"
        )
        lines.append("")
        lines.append("errata (reported values the oracle contradicts):")
        if not self.errata:
            lines.append("  none")
        for e in self.errata:
            lines.append(f"  {_entry_line(e)}")
            if e.get("statement"):
                lines.append(f"      claim: {e['statement']}")
            detail = (e.get("witness") or {}).get("detail")
            if detail:
                lines.append(f"      {json.dumps(detail, sort_keys=True)}")
        lines.append("")
        lines.append("structural sweeps over enumerated instances:")
        for s in self.sweeps:
            lines.append(
                f"  {s['claim']} closure={s['closure']} universes={s['universes']}"
                f" instances={s['instances']} refuted={s['refuted']}"
            )
        lines.append("")
        lines.append("verdicts:")
        for e in self.entries:
            lines.append(f"  {_entry_line(e)}")
        return "\n".join(lines) + "\n"


def _entry_line(entry: dict) -> str:
    v = entry["variant"]
    bits = [f"closure={v['closure']}"]
    if v.get("semi_regular"):
        bits.append(f"sr={v['semi_regular']}")
    if v.get("interior") and v["interior"] != "lattice":
        bits.append(f"interior={v['interior']}")
    bits.append(f"hyp={v['hypotheses']}")
    if v.get("unmet"):
        bits.append(f"unmet={v['unmet']}")
    line = f"{entry['claim']} [{entry['instance']} {' '.join(bits)}]: {entry['status']}"
    witness = entry.get("witness")
    if witness and witness.get("slots"):
        parts = ",".join(f"{k}={w}" for k, w in witness["slots"].items())
        line += f" witness {parts}"
    return line


def _fixture_meta() -> dict:
    catalog = fixture_catalog()
    meta = {}
    for name in FIXTURE_ORDER:
        space = catalog[name]
        meta[name] = {
            "points": list(space.universe.labels),
            "opens": [list(space.universe.names_of(o)) for o in space.topology.opens],
            "operation": FIXTURE_NOTES[name],
        }
    return meta


def _structural_sweeps(max_n: int) -> list:
    spaces = []
    for n in range(1, max_n + 1):
        for topology in enumerate_topologies(n):
            for kind in BUILTIN_KINDS:
                spaces.append(GammaSpace(topology, gamma_builtin(kind, topology)))
    rows = []
    for cid in STRUCTURAL_IDS:
        claim = get_claim(cid)
        for closure_variant in CLOSURE_VARIANTS:
            opt = EvalOptions(closure_variant=closure_variant)
            refuted = 0
            first = None
            for space in spaces:
                verdict = evaluate_claim(claim, space, opt)
                if verdict.status == REFUTED:
                    refuted += 1
                    first = first or verdict.to_dict()
            rows.append({
                "claim": cid,
                "closure": closure_variant,
                "universes": f"1..{max_n}",
                "operations": "builtins",
                "instances": len(spaces),
                "refuted": refuted,
                "first_witness": first,
            })
    return rows


def audit_paper(sweep_max_n: int = 3, map_cap: int = 27, map_seed: int = 0) -> AuditReport:
    """Replay the whole registry against the fixture catalog.

    Every claim runs under both closure variants; claims sensitive to the
    semi-regular reading or the interior reading additionally run under both
    of those; the triple-boundary claim runs under three hypothesis modes.
    Every refuted witness is re-evaluated before it is reported. The report
    is fully deterministic.
    """
    catalog = fixture_catalog()
    entries = []
    for claim in _REGISTRY:
        fixture_names = (claim.fixture,) if claim.fixture else FIXTURE_ORDER
        sr_variants = SEMI_REGULAR_VARIANTS if claim.uses_sr_variant else ("cap",)
        readings = INTERIOR_READINGS if claim.uses_interior_reading else ("lattice",)
        modes = _T320_MODES if claim.id == "T3.20" else (None,)
        for fname in fixture_names:
            space = catalog[fname]
            for closure_variant in CLOSURE_VARIANTS:
                for sr in sr_variants:
                    for reading in readings:
                        for mode in modes:
                            opt = EvalOptions(
                                closure_variant=closure_variant,
                                semi_regular_variant=sr,
                                interior_reading=reading,
                                require=mode,
                                map_cap=map_cap,
                                map_seed=map_seed,
                            )
                            if claim.kind == "space":
                                verdict = evaluate_claim(claim, space, opt, label=fname)
                                recheck_instance = space
                            else:
                                verdict = evaluate_claim(
                                    claim, (space, space), opt,
                                    label=f"{fname}->{fname}",
                                )
                                recheck_instance = (space, space)
                            if verdict.status == REFUTED:
                                reproduced = reevaluate_witness(
                                    claim, recheck_instance, verdict.witness, opt
                                )
                                verdict.witness["reproduced"] = reproduced
                            entries.append(verdict.to_dict())
    errata = [
        dict(e, statement=get_claim(e["claim"]).statement)
        for e in entries
        if e["claim"].startswith("E") and e["status"] == REFUTED
    ]
    return AuditReport(
        fixtures=_fixture_meta(),
        entries=entries,
        sweeps=_structural_sweeps(sweep_max_n),
        errata=errata,
    )

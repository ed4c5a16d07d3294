"""The claims registry and its evaluation machinery.

Each claim encodes one algebraic statement about a space (or a map between
two spaces) as an executable predicate over quantified subset slots, plus
the named hypotheses the statement assumes. The engine evaluates claims
exhaustively on finite instances, searches enumerated instance streams for
counterexamples when hypotheses are dropped, and replays the whole registry
against the fixture catalog to produce a deterministic audit report.

Worked-example entries (ids starting with E) compare families and flags
reported for the catalog fixtures against the definitional oracle; where the
oracle disagrees, the audit files the entry under errata instead of failing.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Union

from . import maps
from .core import (
    ENUMERATION_CAP,
    Mask,
    interval_family,
    meet_of_supersets,
    semi_open_family as classical_semi_open_family,
    submasks,
    supersets,
    enumerate_topologies,
)
from .errors import ShapeMismatch, UnknownClaim
from .fixtures import FIXTURE_NOTES, FIXTURE_ORDER, fixture_catalog
from .gamma import CLOSURE_VARIANTS, GammaSpace
from .maps import MapInstance, PointMap
from .ops import BUILTIN_KINDS, enumerate_operations, gamma_builtin
from .semistar import SemistarContext

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


class SpaceEnv:
    """Evaluation environment over one semistar context."""

    kind = "space"

    def __init__(self, ctx: SemistarContext, opt: EvalOptions):
        self.ctx = ctx
        self.opt = opt
        self.full = ctx.full
        self.universe = ctx.universe

    @property
    def masks(self) -> range:
        return range(self.full + 1)

    @property
    def so(self):
        return self.ctx.so_family

    @property
    def so_set(self):
        return self.ctx.so_set

    @property
    def sc(self):
        return self.ctx.sc_family

    @property
    def sc_set(self):
        return self.ctx.sc_set

    @property
    def tau(self):
        return self.ctx.space.tau_gamma

    @property
    def tau_set(self):
        return self.ctx.space.tau_gamma_set

    def scl(self, a: Mask) -> Mask:
        return self.ctx.scl_table[a]

    def sint(self, a: Mask) -> Mask:
        return self.ctx.sint_table[a]

    def sint_pw(self, a: Mask) -> Mask:
        return self.ctx.sint_pointwise_table[a]

    def si(self, a: Mask) -> Mask:
        if self.opt.interior_reading == "lattice":
            return self.ctx.sint_table[a]
        return self.ctx.sint_pointwise_table[a]

    def sbd(self, a: Mask) -> Mask:
        return self.ctx.sbd_table[a]

    def sext(self, a: Mask) -> Mask:
        return self.sint(self.full ^ a)

    def cl_g(self, a: Mask) -> Mask:
        return self.ctx.cl_g(a)

    def int_g(self, a: Mask) -> Mask:
        return self.ctx.int_g(a)

    def bd_g(self, a: Mask) -> Mask:
        return self.ctx.bd_g(a)

    @property
    def gclosed(self):
        return self.ctx.gamma_closed_family

    @property
    def classification(self):
        return self.ctx.space.classification

    def fmt(self, mask: Mask) -> str:
        return self.universe.format_set(mask)

    def fmt_family(self, fam) -> list:
        return [list(self.universe.names_of(m)) for m in fam]


class MapEnv:
    """Evaluation environment over one map instance: the two contexts and the
    point map's tables, which predicates index with masks of the right side."""

    kind = "map"

    def __init__(self, inst: MapInstance, opt: EvalOptions):
        self.inst = inst
        self.opt = opt
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


Env = Union[SpaceEnv, MapEnv]


@dataclass(frozen=True)
class Claim:
    """One registry entry: an executable statement plus its hypotheses."""

    id: str
    kind: str                                   # "space" | "map"
    statement: str
    bindings: Callable[[Env], Iterable[tuple]]
    holds: Callable[[Env, tuple], bool]
    hypotheses: tuple = ()
    slots: tuple = ()                           # (name, render-kind) pairs
    fixture: Optional[str] = None               # E-claims bind to one fixture
    notes: str = ""
    uses_interior_reading: bool = False
    uses_sr_variant: bool = False
    detail: Optional[Callable[[Env, tuple], dict]] = None


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

def _unit(env: Env) -> Iterator[tuple]:
    yield ()


def _masks(env: SpaceEnv) -> Iterator[tuple]:
    for a in env.masks:
        yield (a,)


def _pairs(env: SpaceEnv) -> Iterator[tuple]:
    for a in env.masks:
        for b in env.masks:
            yield (a, b)


def _mask_clauses(env: SpaceEnv) -> Iterator[tuple]:
    for a in env.masks:
        for clause in (1, 2, 3):
            yield (a, clause)


def _so_pairs(env: SpaceEnv) -> Iterator[tuple]:
    for a in env.so:
        for b in env.so:
            yield (a, b)


def _sc_singles(env: SpaceEnv) -> Iterator[tuple]:
    for a in env.sc:
        yield (a,)


def _so_with_supersets(env: SpaceEnv) -> Iterator[tuple]:
    for a in env.so:
        for b in supersets(a, env.full):
            yield (a, b)


def _subset_of_sc(env: SpaceEnv) -> Iterator[tuple]:
    for a in env.masks:
        for b in supersets(a, env.full):
            if b in env.sc_set:
                yield (a, b)


def _tau_disjoint(env: SpaceEnv) -> Iterator[tuple]:
    for a in env.tau:
        for b in submasks(env.full ^ a):
            yield (a, b)


def _so_singles_x(env: MapEnv) -> Iterator[tuple]:
    for a in env.X.so_family:
        yield (a,)


# --- space predicates -----------------------------------------------------

def _t313(env, b):
    a, c = b
    return env.scl(a | c) == env.scl(a) | env.scl(c)


def _t314(env, b):
    a, clause = b
    fa = env.full ^ a
    if clause == 1:
        return env.sint(fa) == env.full ^ env.scl(a)
    if clause == 2:
        return env.scl(fa) == env.full ^ env.sint(a)
    return env.sint(a) == env.full ^ env.scl(fa)


def _t316(env, b):
    (a,) = b
    fa = env.full ^ a
    c1 = (env.full ^ env.sbd(a)) == env.sint(a) | env.sint(fa)
    c2 = env.scl(a) == env.sint(a) | env.sbd(a)
    c3 = env.sbd(a) == env.scl(a) & env.scl(fa) and env.sbd(a) == env.scl(a) & ~env.sint(a)
    return c1 == c2 == c3


def _p317a(env, b):
    (a,) = b
    return env.sbd(a) == env.sbd(env.full ^ a)


def _p317b(env, b):
    (a,) = b
    return env.scl(env.scl(a)) == env.scl(a)


def _t318_1(env, b):
    (a,) = b
    return env.sbd(a) == env.scl(a) & ~env.sint(a)


def _t318_2(env, b):
    (a,) = b
    return env.sbd(a) & env.sint(a) == 0


def _t318_3(env, b):
    (a,) = b
    return env.scl(a) == env.sint(a) | env.sbd(a)


def _t318_4(env, b):
    (a,) = b
    return env.sbd(env.sint(a)) & ~env.sbd(a) == 0


def _t318_5(env, b):
    (a,) = b
    return env.sbd(env.scl(a)) & ~env.sbd(a) == 0


def _t318_6(env, b):
    (a,) = b
    return env.full ^ env.sbd(a) == env.sint(a) | env.sint(env.full ^ a)


def _t318_7(env, b):
    (a,) = b
    return env.sint(a) | env.sint(env.full ^ a) | env.sbd(a) == env.full


def _t319_1(env, b):
    (a,) = b
    return (a in env.so_set) == (a & env.sbd(a) == 0)


def _t319_2(env, b):
    (a,) = b
    return (a in env.sc_set) == (env.sbd(a) & ~a == 0)


def _t320(env, b):
    (a,) = b
    bd2 = env.sbd(env.sbd(a))
    return env.sbd(bd2) == bd2


def _t324(env, b):
    a, c = b
    return (a & c) in env.so_set


def _t326_1(env, b):
    (a,) = b
    return env.si(env.si(a)) == env.si(a)


def _t326_2(env, b):
    a, c = b
    return (env.si(a) | env.si(c)) & ~env.si(a | c) == 0


def _t326_3(env, b):
    a, c = b
    return env.si(a & c) == env.si(a) & env.si(c)


def _t327_1(env, b):
    a, c = b
    return env.sext(a | c) == env.sext(a) & env.sext(c)


def _t327_2(env, b):
    a, c = b
    lhs = env.sbd(a | c)
    rhs = (env.sbd(a) & env.scl(env.full ^ c)) | (env.sbd(c) & env.scl(env.full ^ a))
    return lhs == rhs


def _t327_3(env, b):
    a, c = b
    lhs = env.sbd(a & c)
    rhs = (env.sbd(a) & env.scl(c)) | (env.sbd(c) & env.scl(a))
    return lhs == rhs


def _p328_1(env, b):
    (a,) = b
    return env.sext(env.full ^ env.sext(a)) == env.sext(a)


def _p328_2(env, b):
    a, c = b
    return (env.sext(a) | env.sext(c)) & ~env.sext(a & c) == 0


def _sandwich_closed(env: SpaceEnv, a: Mask) -> bool:
    return any(
        env.int_g(f) & ~a == 0 and a & ~f == 0 for f in env.gclosed
    )


def _p329(env, b):
    (a,) = b
    return _sandwich_closed(env, a) == (a in env.sc_set)


def _t330(env, b):
    (a,) = b
    return (env.int_g(env.cl_g(a)) & ~a == 0) == (a in env.sc_set)


def _l44(env, b):
    a, c = b
    return a & ~env.cl_g(env.int_g(c)) == 0


def _l410(env, b):
    a, c = b
    return env.sbd(a) & ~c == 0


def _p411(env, b):
    a, c = b
    return a & env.cl_g(c) == 0


def _l412(env, b):
    a, c = b
    return a & env.bd_g(c) == 0


# --- map predicates ---------------------------------------------------------

def _pointwise_continuity(env: MapEnv) -> bool:
    # a semi-open A holding x has f(A) inside B exactly when A lies inside
    # f^-1(B), so f is pointwise continuous iff every f^-1(B) is its own
    # semi-interior
    sint, pre = env.X.sint_table, env.pre
    return all(sint[pre[b]] == pre[b] for b in env.Y.space.tau_gamma)


def _t42(env, b):
    return env.semi_continuous == _pointwise_continuity(env)


def _t42_detail(env, b):
    return {
        "preimage_side": env.semi_continuous,
        "pointwise_side": _pointwise_continuity(env),
    }


def _open_map_imageside(env: MapEnv) -> bool:
    img, int_x = env.img, env.X.int_table
    cl_y, int_y = env.Y.cl_table, env.Y.int_table
    for e in range(env.X.full + 1):
        if img[int_x[e]] & ~cl_y[int_y[img[e]]]:
            return False
    return True


def _t45(env, b):
    return env.semi_open_map == _open_map_imageside(env)


def _t45_detail(env, b):
    return {
        "image_side": env.semi_open_map,
        "interior_closure_side": _open_map_imageside(env),
    }


def _open_map_preimageside(env: MapEnv) -> bool:
    pre, int_x, cl_x = env.pre, env.X.int_table, env.X.cl_table
    int_y = env.Y.int_table
    for g in range(env.Y.full + 1):
        if int_x[pre[g]] & ~cl_x[pre[int_y[g]]]:
            return False
    return True


def _t46(env, b):
    return env.semi_open_map == _open_map_preimageside(env)


def _t46_detail(env, b):
    return {
        "image_side": env.semi_open_map,
        "preimage_side": _open_map_preimageside(env),
    }


def _t47(env, b):
    (a,) = b
    return env.img[a] in env.Y.so_set


def _t48_sides(env: MapEnv) -> tuple:
    img, pre = env.img, env.pre
    e1 = env.semi_continuous
    scl_x, cl_y = env.X.scl_table, env.Y.cl_table
    e2 = all(img[scl_x[a]] & ~cl_y[img[a]] == 0 for a in range(env.X.full + 1))
    sbd_x, bd_y = env.X.sbd_table, env.Y.bd_table
    e3 = all(sbd_x[pre[b]] & ~pre[bd_y[b]] == 0 for b in range(env.Y.full + 1))
    return e1, e2, e3


def _t48(env, b):
    e1, e2, e3 = _t48_sides(env)
    return e1 == e2 == e3


def _t48_detail(env, b):
    e1, e2, e3 = _t48_sides(env)
    return {"continuity": e1, "closure_of_image": e2, "boundary_preimage": e3}


def _t49_rhs(env: MapEnv) -> bool:
    scl_x, cl_x = env.X.scl_table, env.X.cl_table
    return all(scl_x[p] & ~cl_x[p] == 0 for p in env.pre)


def _t49(env, b):
    return env.semi_continuous == _t49_rhs(env)


def _t49_detail(env, b):
    return {"continuity": env.semi_continuous, "containment_side": _t49_rhs(env)}


def _t49p_rhs(env: MapEnv) -> bool:
    img, pre = env.img, env.pre
    scl_x, cl_y = env.X.scl_table, env.Y.cl_table
    return all(img[scl_x[pre[g]]] & ~cl_y[g] == 0 for g in range(env.Y.full + 1))


def _t49p(env, b):
    return env.semi_continuous == _t49p_rhs(env)


def _t49p_detail(env, b):
    return {"continuity": env.semi_continuous, "containment_side": _t49p_rhs(env)}


def _t413_rhs(env: MapEnv) -> bool:
    pre, sbd_y, bd_x = env.pre, env.Y.sbd_table, env.X.bd_table
    return all(pre[sbd_y[c]] & ~bd_x[pre[c]] == 0 for c in range(env.Y.full + 1))


def _t413(env, b):
    return env.semi_open_map == _t413_rhs(env)


def _t413_detail(env, b):
    return {"image_side": env.semi_open_map, "boundary_side": _t413_rhs(env)}


# --- worked-example (audit) predicates --------------------------------------

# reported families on the three-point fixtures, as masks (a,b,c = bits 0,1,2)
_REPORTED = {
    "F1_tau": (0, 1, 5, 7),
    "F1_so": (0, 1, 3, 5, 7),
    "F2_tau": (0, 1, 2, 3, 7),
    "F3_tau": (0, 2, 3, 5, 7),
    "F4_semi_open": (0, 1, 3, 5, 7),
    "F5_so": (0, 1, 3, 4, 6, 7),
}


def _reported_sweep(family: tuple, full: Mask) -> tuple:
    """Interval sweep taking `family` itself as the gamma-open sets and
    the meet of its complements as closure."""
    closed = tuple(full ^ o for o in family)
    return interval_family(
        (o, meet_of_supersets(o, closed, full)) for o in family
    )


def _fam_detail(env: SpaceEnv, computed, reported) -> dict:
    return {
        "computed": env.fmt_family(computed),
        "reported": env.fmt_family(reported),
    }


def _make_e_claim(cid, fixture, statement, pred, detail=None, notes="", uses_sr=False):
    # evaluation refuses any instance other than the fixture, so the
    # predicate and the detail read the fixture's own space
    return Claim(
        id=cid,
        kind="space",
        statement=statement,
        bindings=_unit,
        holds=lambda env, b: pred(env),
        fixture=fixture,
        notes=notes,
        uses_sr_variant=uses_sr,
        detail=(lambda env, b: detail(env)) if detail else None,
    )


def _sr_flag(cls, opt: EvalOptions) -> bool:
    if opt.semi_regular_variant == "cap":
        return cls.semi_regular_cap
    return cls.semi_regular_cup


# --- registry ----------------------------------------------------------------

def _space_claim(cid, statement, bindings, holds, hyps=(), slots=(), notes="",
                 uses_interior=False):
    return Claim(
        id=cid,
        kind="space",
        statement=statement,
        bindings=bindings,
        holds=holds,
        hypotheses=tuple(hyps),
        slots=tuple(slots),
        notes=notes,
        uses_interior_reading=uses_interior,
        uses_sr_variant="semi-regular" in hyps,
    )


def _map_claim(cid, statement, holds, hyps=(), bindings=_unit, slots=(),
               detail=None, notes=""):
    return Claim(
        id=cid,
        kind="map",
        statement=statement,
        bindings=bindings,
        holds=holds,
        hypotheses=tuple(hyps),
        slots=tuple(slots),
        detail=detail,
        notes=notes,
    )


_SET = "set"
_SETX = "setX"
_CLAUSE = "clause"
_TAG = "tag"


def _build_registry() -> tuple:
    claims = [
        _space_claim("T3.13", "scl*(A u B) = scl*(A) u scl*(B)",
                     _pairs, _t313, hyps=("regular",), slots=(("A", _SET), ("B", _SET))),
        _space_claim("T3.14", "duality: sint*(X-A) = X - scl*(A); scl*(X-A) = X - sint*(A); sint*(A) = X - scl*(X-A)",
                     _mask_clauses, _t314, slots=(("A", _SET), ("clause", _CLAUSE))),
        _space_claim("T3.16", "the three boundary decompositions of A hold or fail together",
                     _masks, _t316, slots=(("A", _SET),)),
        _space_claim("P3.17a", "sbd*(A) = sbd*(X-A)",
                     _masks, _p317a, slots=(("A", _SET),)),
        _space_claim("P3.17b", "scl*(scl*(A)) = scl*(A)",
                     _masks, _p317b, hyps=("open",), slots=(("A", _SET),)),
        _space_claim("T3.18.1", "sbd*(A) = scl*(A) - sint*(A)",
                     _masks, _t318_1, slots=(("A", _SET),)),
        _space_claim("T3.18.2", "sbd*(A) n sint*(A) = {}",
                     _masks, _t318_2, slots=(("A", _SET),)),
        _space_claim("T3.18.3", "scl*(A) = sint*(A) u sbd*(A)",
                     _masks, _t318_3, slots=(("A", _SET),)),
        _space_claim("T3.18.4", "sbd*(sint*(A)) is inside sbd*(A)",
                     _masks, _t318_4, slots=(("A", _SET),)),
        _space_claim("T3.18.5", "sbd*(scl*(A)) is inside sbd*(A)",
                     _masks, _t318_5, hyps=("open",), slots=(("A", _SET),)),
        _space_claim("T3.18.6", "X - sbd*(A) = sint*(A) u sint*(X-A)",
                     _masks, _t318_6, slots=(("A", _SET),)),
        _space_claim("T3.18.7", "X = sint*(A) u sint*(X-A) u sbd*(A)",
                     _masks, _t318_7, slots=(("A", _SET),)),
        _space_claim("T3.19.1", "A semi-open iff A n sbd*(A) = {}",
                     _masks, _t319_1, slots=(("A", _SET),)),
        _space_claim("T3.19.2", "A semi-closed iff sbd*(A) inside A",
                     _masks, _t319_2, slots=(("A", _SET),)),
        _space_claim("T3.20", "sbd*^3(A) = sbd*^2(A) on semi-closed A",
                     _sc_singles, _t320, hyps=("regular",), slots=(("A", _SET),),
                     notes="audited under regular, open, and both hypotheses"),
        _space_claim("T3.24", "A n B semi-open for semi-open A, B",
                     _so_pairs, _t324, hyps=("semi-regular",),
                     slots=(("A", _SET), ("B", _SET))),
        _space_claim("T3.26.1", "sint*(sint*(A)) = sint*(A)",
                     _masks, _t326_1, hyps=("semi-regular",), slots=(("A", _SET),),
                     uses_interior=True),
        _space_claim("T3.26.2", "sint*(A u B) contains sint*(A) u sint*(B)",
                     _pairs, _t326_2, hyps=("semi-regular",),
                     slots=(("A", _SET), ("B", _SET)), uses_interior=True),
        _space_claim("T3.26.3", "sint*(A n B) = sint*(A) n sint*(B)",
                     _pairs, _t326_3, hyps=("semi-regular",),
                     slots=(("A", _SET), ("B", _SET)), uses_interior=True),
        _space_claim("T3.27.1", "sext*(A u B) = sext*(A) n sext*(B)",
                     _pairs, _t327_1, hyps=("semi-regular",),
                     slots=(("A", _SET), ("B", _SET))),
        _space_claim("T3.27.2", "sbd*(A u B) = (sbd*(A) n scl*(X-B)) u (sbd*(B) n scl*(X-A))",
                     _pairs, _t327_2, hyps=("semi-regular",),
                     slots=(("A", _SET), ("B", _SET))),
        _space_claim("T3.27.3", "sbd*(A n B) = (sbd*(A) n scl*(B)) u (sbd*(B) n scl*(A))",
                     _pairs, _t327_3, hyps=("semi-regular",),
                     slots=(("A", _SET), ("B", _SET))),
        _space_claim("P3.28.1", "sext*(X - sext*(A)) = sext*(A)",
                     _masks, _p328_1, hyps=("semi-regular",), slots=(("A", _SET),)),
        _space_claim("P3.28.2", "sext*(A n B) contains sext*(A) u sext*(B)",
                     _pairs, _p328_2, hyps=("semi-regular",),
                     slots=(("A", _SET), ("B", _SET))),
        _space_claim("P3.29", "A semi-closed iff some gamma-closed F has int_g(F) inside A inside F",
                     _masks, _p329, slots=(("A", _SET),)),
        _space_claim("T3.30", "A semi-closed iff int_g(cl_g(A)) inside A",
                     _masks, _t330, slots=(("A", _SET),)),
        _space_claim("L4.4", "semi-open A inside B implies A inside cl_g(int_g(B))",
                     _so_with_supersets, _l44, slots=(("A", _SET), ("B", _SET))),
        _space_claim("L4.10", "A inside semi-closed B implies sbd*(A) inside B",
                     _subset_of_sc, _l410, slots=(("A", _SET), ("B", _SET))),
        _space_claim("P4.11", "gamma-open A disjoint from B implies A n cl_g(B) = {}",
                     _tau_disjoint, _p411, slots=(("A", _SET), ("B", _SET))),
        _space_claim("L4.12", "gamma-open A disjoint from B implies A n bd_g(B) = {}",
                     _tau_disjoint, _l412, slots=(("A", _SET), ("B", _SET))),
        _map_claim("T4.2", "preimage continuity iff pointwise continuity",
                   _t42, hyps=("regular",), detail=_t42_detail),
        _map_claim("T4.5", "f semi-open iff f(int_g(E)) inside cl_g(int_g(f(E))) for all E",
                   _t45, detail=_t45_detail),
        _map_claim("T4.6", "f semi-open iff int_g(f^-1(G)) inside cl_g(f^-1(int_g(G))) for all G",
                   _t46, detail=_t46_detail),
        _map_claim("T4.7", "images of semi-open sets are semi-open",
                   _t47, hyps=("open", "semi-continuous", "semi-open-map"),
                   bindings=_so_singles_x, slots=(("A", _SETX),)),
        _map_claim("T4.8", "continuity, scl-image containment, and boundary-preimage containment are equivalent",
                   _t48, detail=_t48_detail),
        _map_claim("T4.9", "f continuous iff scl*(f^-1(G)) inside cl_g(f^-1(G)) for all G",
                   _t49, detail=_t49_detail),
        _map_claim("T4.9p", "f continuous iff f(scl*(f^-1(G))) inside cl_g(G) for all G",
                   _t49p, detail=_t49p_detail,
                   notes="companion inequality to T4.9; registered separately"),
        _map_claim("T4.13", "bijective f semi-open iff f^-1(sbd*(B)) inside bd_g(f^-1(B)) for all B",
                   _t413, hyps=("bijective",), detail=_t413_detail),
        _map_claim("T4.14", "f semi-open iff f(int_g(A)) inside cl_g(int_g(f(A))) for all A",
                   _t45, detail=_t45_detail,
                   notes="same predicate as T4.5; registered under both ids"),
        # worked-example audit entries
        _make_e_claim(
            "E3.2a", "F1",
            "reported gamma-open family {{},{a},{a,c},X} matches the computed one",
            lambda env: env.tau == _REPORTED["F1_tau"],
            detail=lambda env: _fam_detail(env, env.tau, _REPORTED["F1_tau"]),
        ),
        _make_e_claim(
            "E3.2b", "F1",
            "reported semi-open family {{},{a},{a,b},{a,c},X} matches the computed one",
            lambda env: env.so == _REPORTED["F1_so"],
            detail=lambda env: _fam_detail(env, env.so, _REPORTED["F1_so"]),
        ),
        _make_e_claim(
            "E3.2c", "F1",
            "interval sweep over the reported gamma-open family with lattice closure reproduces the reported semi-open family",
            lambda env: _reported_sweep(_REPORTED["F1_tau"], 7) == _REPORTED["F1_so"],
            detail=lambda env: _fam_detail(env, _reported_sweep(_REPORTED["F1_tau"], 7), _REPORTED["F1_so"]),
        ),
        _make_e_claim(
            "E3.2d", "F1",
            "{a,b} is semi-open",
            lambda env: 3 in env.so_set,
        ),
        _make_e_claim(
            "E3.2e", "F1",
            "{a,b} is not gamma-open",
            lambda env: 3 not in env.tau_set,
        ),
        _make_e_claim(
            "E3.2f", "F1",
            "cl_g({a}) = X",
            lambda env: env.cl_g(1) == 7,
            detail=lambda env: {"computed": env.fmt(env.cl_g(1)), "reported": "{a,b,c}"},
        ),
        _make_e_claim(
            "E3.3a", "F2",
            "reported gamma-open family {{},{a},{b},{a,b},X} matches the computed one",
            lambda env: env.tau == _REPORTED["F2_tau"],
            detail=lambda env: _fam_detail(env, env.tau, _REPORTED["F2_tau"]),
        ),
        _make_e_claim(
            "E3.3b", "F2",
            "{b,c} is semi-open",
            lambda env: 6 in env.so_set,
        ),
        _make_e_claim(
            "E3.3c", "F2",
            "{b,c} is not classically semi-open",
            lambda env: 6 not in classical_semi_open_family(env.ctx.space.topology),
        ),
        _make_e_claim(
            "E3.3d", "F2",
            "interval sweep over the reported gamma-open family with lattice closure makes {b,c} semi-open",
            lambda env: 6 in _reported_sweep(_REPORTED["F2_tau"], 7),
        ),
        _make_e_claim(
            "E3.4a", "F3",
            "reported gamma-open family {{},{b},{a,b},{a,c},X} matches the computed one",
            lambda env: env.tau == _REPORTED["F3_tau"],
            detail=lambda env: _fam_detail(env, env.tau, _REPORTED["F3_tau"]),
        ),
        _make_e_claim(
            "E3.4b", "F3",
            "{a} is classically semi-open",
            lambda env: 1 in classical_semi_open_family(env.ctx.space.topology),
        ),
        _make_e_claim(
            "E3.4c", "F3",
            "{a} is not semi-open",
            lambda env: 1 not in env.so_set,
        ),
        _make_e_claim(
            "E3.23a", "F4",
            "classical semi-open family is {{},{a},{a,b},{a,c},X}",
            lambda env: classical_semi_open_family(env.ctx.space.topology) == _REPORTED["F4_semi_open"],
            detail=lambda env: _fam_detail(env, classical_semi_open_family(env.ctx.space.topology), _REPORTED["F4_semi_open"]),
        ),
        _make_e_claim(
            "E3.23b", "F4",
            "the closure operation is not semi-regular",
            lambda env: not _sr_flag(env.classification, env.opt),
            uses_sr=True,
            notes="operation read as A -> cl(A)",
        ),
        _make_e_claim(
            "E3.23c", "F4",
            "the closure operation is a semi-open operation",
            lambda env: env.classification.semi_open_op,
        ),
        _make_e_claim(
            "E3.25a", "F5",
            "reported semi-open family {{},{a},{c},{a,b},{b,c},X} matches the computed one",
            lambda env: env.so == _REPORTED["F5_so"],
            detail=lambda env: _fam_detail(env, env.so, _REPORTED["F5_so"]),
        ),
        _make_e_claim(
            "E3.25b", "F5",
            "{a,b} and {b,c} are semi-open but their intersection {b} is not",
            lambda env: 3 in env.so_set and 6 in env.so_set and 2 not in env.so_set,
        ),
        _make_e_claim(
            "E3.25c", "F5",
            "the interior-of-closure operation is not semi-regular",
            lambda env: not _sr_flag(env.classification, env.opt),
            uses_sr=True,
        ),
    ]
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


def _hypothesis_met(name: str, env: Env) -> bool:
    if env.kind == "space":
        cls = env.classification
        if name == "regular":
            return cls.regular
        if name == "open":
            return cls.open_op
        if name == "monotone":
            return cls.monotone
        if name == "semi-regular":
            return _sr_flag(cls, env.opt)
        raise ValueError(f"hypothesis {name!r} does not apply to a space claim")
    if name == "bijective":
        return env.inst.map.bijective
    if name == "semi-continuous":
        return env.semi_continuous
    if name == "semi-open-map":
        return env.semi_open_map
    # a flag is decided when first read, so each hypothesis decides only
    # the flags it names (T4.2's `regular` never classifies the codomain)
    cls_x = env.X.space.classification
    if name == "regular":
        return cls_x.regular
    if name == "semi-regular":
        return _sr_flag(cls_x, env.opt)
    cls_y = env.Y.space.classification
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


def _render_binding(claim: Claim, env: Env, binding: tuple) -> dict:
    universe = env.universe if env.kind == "space" else env.X.universe
    slots = {}
    for (name, kind), value in zip(claim.slots, binding):
        slots[name] = universe.format_set(value) if kind in (_SET, _SETX) else value
    witness = {"binding": list(binding)}
    if slots:
        witness["slots"] = slots
    if claim.detail is not None:
        witness["detail"] = claim.detail(env, binding)
    return witness


def _run_env(claim: Claim, env: Env, opt: EvalOptions, label: str,
             closure: str, extra_variant: Optional[dict] = None) -> Verdict:
    """Gate, then sweep the bindings. A verdict labelled "" is one the
    caller will most likely discard, so its witness holds the binding only."""
    hyps, variant = _gate(claim.hypotheses, claim.uses_interior_reading, opt, closure)
    variant = dict(variant)
    if extra_variant:
        variant.update(extra_variant)
    for h in hyps:
        if not _hypothesis_met(h, env):
            variant["unmet"] = h
            return Verdict(claim.id, label, VACUOUS, variant, None)
    for binding in claim.bindings(env):
        if not claim.holds(env, binding):
            if label:
                witness = _render_binding(claim, env, binding)
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
        env = MapEnv(MapInstance(ctx_x, ctx_y, pm), opt)
        verdict = _run_env(claim, env, opt, label, closure, {"maps": sweep_note})
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
        env = SpaceEnv(ctx, opt)
        if label is None:
            label = ctx.describe()
        return _run_env(claim, env, opt, label, ctx.closure_variant)
    if isinstance(instance, MapInstance):
        env = MapEnv(instance, opt)
        closure = _closure_label(instance.domain_ctx, instance.codomain_ctx)
        if label is None:
            label = instance.describe()
        return _run_env(claim, env, opt, label, closure)
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
        env: Env = SpaceEnv(_claim_context(claim, instance, opt), opt)
    elif isinstance(instance, MapInstance):
        env = MapEnv(instance, opt)
    else:
        ctx_x = _as_context(instance[0], opt)
        ctx_y = _as_context(instance[1], opt)
        pm = PointMap.from_labels(ctx_x.universe, ctx_y.universe, witness["assign"])
        env = MapEnv(MapInstance(ctx_x, ctx_y, pm), opt)
    return not claim.holds(env, binding)


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
                env = SpaceEnv(instance, opt) if claim.kind == "space" else MapEnv(instance, opt)
                verdict.witness = _render_binding(claim, env, tuple(verdict.witness["binding"]))
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

"""The claims registry: what a claim is, and the 58 claims of the paper.

Each claim encodes one algebraic statement about a space (or a map between
two spaces) as an executable predicate over quantified subset slots, plus
the named hypotheses the statement assumes. `claims.py` evaluates them.

A claim is a declaration over tables that already exist. A T/P/L space
claim is a term such as `scl[A | B] == scl[A] | scl[B]` over the names of
its `SemistarContext` tables, compiled on first use into one sweep that
returns the first failing binding; a map claim's predicate reads its
`MapInstance`: the two contexts and the point map's tables. Every
predicate is called as `holds(subject, opt, binding)`, so the evaluation
options reach it explicitly. The map "iff" claims are declared as named
sides that must agree, and the worked-example entries (ids starting with
E) as rows of a table comparing a computed value with the one reported
for a catalog fixture; where the oracle disagrees, the audit files the
entry under errata instead of failing.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from . import maps
from .core import FrozenValue, image_joins, submasks, supersets
from .errors import UnknownClaim
from .maps import MapInstance
from .semistar import InteriorTables, SemistarContext, int_of_cl_closed, sandwich_closed

CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"
VACUOUS = "VACUOUS"

SEMI_REGULAR_VARIANTS = ("cap", "cup")
INTERIOR_READINGS = ("lattice", "pointwise")


def _semi_regular(ctx, opt):
    space = ctx.space
    return space.semi_regular_cap if opt.semi_regular_variant == "cap" else space.semi_regular_cup


# each hypothesis: what it reads of a space claim's context, and what it
# reads of a map claim's instance (None where it does not apply). A flag is
# decided when first read, so each reader decides only the flags it names:
# T4.2's `regular` never classifies the codomain. The whole-map flags are
# decided through the `maps` module attributes, which a tracer may rebind
HYPOTHESES = {
    "regular": (lambda ctx, opt: ctx.space.regular,
                lambda inst, opt: inst.domain_ctx.space.regular),
    "semi-regular": (_semi_regular, lambda inst, opt: _semi_regular(inst.domain_ctx, opt)),
    "open": (lambda ctx, opt: ctx.space.open_op,
             lambda inst, opt: inst.domain_ctx.space.open_op and inst.codomain_ctx.space.open_op),
    "monotone": (lambda ctx, opt: ctx.space.monotone,
                 lambda inst, opt: (inst.domain_ctx.space.monotone
                                    and inst.codomain_ctx.space.monotone)),
    "bijective": (None, lambda inst, opt: inst.map.bijective),
    "semi-continuous": (None, lambda inst, opt: _continuity(inst)),
    "semi-open-map": (None, lambda inst, opt: _semi_open_map(inst)),
}
KNOWN_HYPOTHESES = tuple(HYPOTHESES)


def _hypothesis_names(arg: str, names: Iterable[str]) -> tuple:
    # a lone string would be read letter by letter
    if isinstance(names, str):
        raise ValueError(f"{arg}={names!r} is one string; {arg} takes hypothesis names, "
                         f"such as [{names!r}]")
    names = tuple(names)
    for name in names:
        if name not in HYPOTHESES:
            raise ValueError(f"unknown hypothesis {name!r}")
    return names


class EvalOptions(FrozenValue):
    """Readings and hypothesis overrides for one evaluation. The closure
    variant is not an option: it is the evaluated context's own."""

    _fields = ("semi_regular_variant", "interior_reading", "drop", "require")

    def __init__(self, semi_regular_variant: str = "cap", interior_reading: str = "lattice",
                 drop: Iterable[str] = frozenset(), require: Optional[Iterable[str]] = None):
        # hashable fields, so that options can key the gate cache
        drop = frozenset(_hypothesis_names("drop", drop))
        if require is not None:
            require = _hypothesis_names("require", require)
        if semi_regular_variant not in SEMI_REGULAR_VARIANTS:
            raise ValueError(f"unknown semi-regular variant {semi_regular_variant!r}")
        if interior_reading not in INTERIOR_READINGS:
            raise ValueError(f"unknown interior reading {interior_reading!r}")
        self._set(semi_regular_variant, interior_reading, drop, require)
        # taken once, as every evaluation looks its options up in the gate cache
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash


class Claim(FrozenValue):
    """One registry entry: an executable statement plus its hypotheses. The
    subject of `bindings`, `holds` and `detail` is the `SemistarContext` of a
    space claim or the `MapInstance` of a map claim."""

    _fields = ("id", "kind", "statement", "bindings", "holds", "hypotheses", "slots",
               "fixture", "uses_sr_variant", "detail", "term")

    def __init__(
        self,
        id: str,
        kind: str,                                  # "space" | "map"
        statement: str,
        bindings: Callable[[object], Iterable[tuple]],
        holds: Callable[[object, EvalOptions, tuple], bool],
        hypotheses: tuple = (),
        slots: tuple = (),                          # (name, render-kind) pairs
        fixture: Optional[str] = None,              # E-claims bind to one fixture
        uses_sr_variant: bool = False,
        detail: Optional[Callable[[object, EvalOptions, tuple], dict]] = None,
        term: Optional[_Term] = None,               # a T/P/L space claim's statement
    ):
        # checked here, as the gate would meet an unknown name only once it runs
        hypotheses = _hypothesis_names("hypotheses", hypotheses)
        self._set(id, kind, statement, bindings, holds, hypotheses, slots, fixture,
                  uses_sr_variant, detail, term)

    @property
    def uses_interior_reading(self) -> bool:
        return self.term is not None and "si" in self.term.reads


class Verdict:
    __slots__ = ("claim_id", "instance", "status", "variant", "witness")

    def __init__(self, claim_id: str, instance: str, status: str, variant: dict,
                 witness: Optional[dict]):
        self.claim_id = claim_id
        self.instance = instance
        self.status = status
        self.variant = variant
        self.witness = witness

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
    for a in ctx.tables.so_family:
        for b in ctx.tables.so_family:
            yield (a, b)


def _sc_singles(ctx: SemistarContext) -> Iterator[tuple]:
    for a in ctx.tables.sc_family:
        yield (a,)


def _so_with_supersets(ctx: SemistarContext) -> Iterator[tuple]:
    for a in ctx.tables.so_family:
        for b in supersets(a, ctx.full):
            yield (a, b)


def _subset_of_sc(ctx: SemistarContext) -> Iterator[tuple]:
    for a in range(ctx.full + 1):
        for b in supersets(a, ctx.full):
            if b in ctx.tables.sc_set:
                yield (a, b)


def _tau_disjoint(ctx: SemistarContext) -> Iterator[tuple]:
    for a in ctx.tables.tau_gamma:
        for b in submasks(ctx.full ^ a):
            yield (a, b)


def _so_singles_x(inst: MapInstance) -> Iterator[tuple]:
    for a in inst.domain_ctx.tables.so_family:
        yield (a,)


_SET = "set"
_A = (("A", _SET),)
_AB = (("A", _SET), ("B", _SET))

# per binding generator: the slots its bindings fill, and the vocabulary
# names (below) it reads
_BINDINGS = {
    _masks: (_A, ("full",)),
    _sc_singles: (_A, ("sc",)),
    _mask_clauses: ((("A", _SET), ("clause", "clause")), ("full",)),
    _pairs: (_AB, ("full",)),
    _so_pairs: (_AB, ("so",)),
    _so_with_supersets: (_AB, ("so", "full")),
    _subset_of_sc: (_AB, ("full", "sc")),
    _tau_disjoint: (_AB, ("tau", "full")),
}


# --- space claims as terms ------------------------------------------------------

# What a name can depend on, from least to most. A family name is a
# function of the semi-open family alone (which holds X, so it fixes the
# universe too); a tables name, of the context's `InteriorTables` (its
# closure variant's gamma-interior table); a space name, of the topology
# and the operation.
_FAMILY = "family"
_TABLES = "tables"
_SPACE = "space"
_LEVELS = (_FAMILY, _TABLES, _SPACE)

# The names a term may read: what a sweep binds each to (None: a function
# of the sweep's namespace), and what it depends on, per interior reading
# where the reading matters. A name that can reach `ctx.space` is a space
# name.
_VOCABULARY = {
    "full": ("ctx.full", _FAMILY),
    "so": ("ctx.tables.so_set", _FAMILY),
    "sc": ("ctx.tables.sc_set", _FAMILY),
    "scl": ("ctx.tables.scl_table", _FAMILY),
    "sint": ("ctx.tables.sint_table", _FAMILY),
    "sbd": ("ctx.tables.sbd_table", _FAMILY),
    # the semi-interior of the interior reading the T3.26 claims run under
    "si": ("ctx.tables.sint_table if opt.interior_reading == 'lattice' "
           "else ctx.space.sint_pointwise_table",
           {"lattice": _FAMILY, "pointwise": _SPACE}),
    "tau": ("ctx.tables.tau_gamma", _TABLES),
    "cl": ("ctx.tables.cl_table", _TABLES),
    "int": ("ctx.tables.int_table", _TABLES),
    "bd": ("ctx.tables.bd_table", _TABLES),
    "tables": ("ctx.tables", _TABLES),
    # functions of the tables they are passed
    "sandwich_closed": (None, _FAMILY),
    "int_of_cl_closed": (None, _FAMILY),
}


def _dependency(name: str, reading: str) -> str:
    dep = _VOCABULARY[name][1]
    return dep[reading] if isinstance(dep, dict) else dep


class _Term:
    """A space claim's statement: one expression over its slot names and the
    vocabulary, compiled on first use into `sweep(ctx, opt, bindings)`, the
    first binding the expression fails on (or None). Called as
    `holds(ctx, opt, binding)`, it sweeps that one binding."""

    def __init__(self, cid: str, text: str, bindings):
        slots, self.binding_reads = _BINDINGS[bindings]
        self.cid, self.text = cid, text
        self.slots = tuple(name for name, _ in slots)
        # first failure by semi-open family, for the readings under which
        # the term and its bindings read nothing else; kept as long as the
        # claim (README, "Claims registry", gives its size)
        self.memo: dict = {}

    def __getattr__(self, name: str):
        # `reads`, `level` and `sweep` are set by the compile
        if name not in ("reads", "level", "sweep"):
            raise AttributeError(name)
        self._compile()
        return vars(self)[name]

    def __call__(self, ctx, opt, binding) -> bool:
        return self.sweep(ctx, opt, (binding,)) is None

    def _compile(self) -> None:
        names = compile(self.text, self.cid, "eval").co_names
        reads = frozenset(names) - set(self.slots)
        unknown = [name for name in sorted(reads) if name not in _VOCABULARY]
        if unknown:
            raise ValueError(f"claim {self.cid}: the term reads undeclared names {unknown}")
        binds = "".join(
            f"    {name} = {_VOCABULARY[name][0]}\n"
            for name in sorted(reads) if _VOCABULARY[name][0] is not None
        )
        target = ", ".join(self.slots) + ("," if len(self.slots) == 1 else "")
        source = (
            f"def sweep(ctx, opt, bindings):\n{binds}    for {target} in bindings:\n"
            f"        if not ({self.text}):\n            return ({target})\n    return None\n"
        )
        namespace = {"sandwich_closed": sandwich_closed, "int_of_cl_closed": int_of_cl_closed}
        exec(compile(source, f"<claim {self.cid}>", "exec"), namespace)
        self.reads = reads
        # per reading, the most the term and its bindings depend on
        self.level = {
            reading: max((_dependency(name, reading) for name in reads | set(self.binding_reads)),
                         key=_LEVELS.index)
            for reading in INTERIOR_READINGS
        }
        self.sweep = namespace["sweep"]

    def first_failure(self, ctx: SemistarContext, opt: EvalOptions, bindings) -> Optional[tuple]:
        """`sweep` over `bindings`, looked up where the term and its
        bindings read only the semi-open family (keyed by the family, in
        this term's memo) or only the context's tables (keyed by this term,
        in the tables' `first_failures`), and swept only on a miss. Below
        the space level a term reads `opt` only as the lattice reading of
        `si`, so the answer is a function of the key, and concurrent fills
        of one key store the same value."""
        level = self.level[opt.interior_reading]
        if level == _FAMILY:
            memo, key = self.memo, ctx.tables.so_family
        elif level == _TABLES:
            memo, key = ctx.tables.first_failures, self
        else:
            return self.sweep(ctx, opt, bindings)
        if key not in memo:
            memo[key] = self.sweep(ctx, opt, bindings)
        return memo[key]


# --- map predicates and equivalence sides: side(inst) ---------------------------

def _continuity(inst: MapInstance) -> bool:
    return maps.is_gamma_semi_continuous(inst).ok


def _semi_open_map(inst: MapInstance) -> bool:
    return maps.is_gamma_semi_open_map(inst).ok


def _pointwise_continuity(inst: MapInstance) -> bool:
    # a semi-open A holding x has f(A) inside B exactly when A lies inside
    # f^-1(B), so f is pointwise continuous iff every f^-1(B) is its own
    # semi-interior
    sint, pre = inst.domain_ctx.tables.sint_table, inst.map.preimage_table
    return all(sint[pre[b]] == pre[b] for b in inst.codomain_ctx.tables.tau_gamma)


def _open_map_imageside(inst: MapInstance) -> bool:
    X, Y, img = inst.domain_ctx.tables, inst.codomain_ctx.tables, inst.map.image_table
    int_x, cl_y, int_y = X.int_table, Y.cl_table, Y.int_table
    for e in range(X.full + 1):
        if img[int_x[e]] & ~cl_y[int_y[img[e]]]:
            return False
    return True


def _open_map_preimageside(inst: MapInstance) -> bool:
    X, Y, pre = inst.domain_ctx.tables, inst.codomain_ctx.tables, inst.map.preimage_table
    int_x, cl_x, int_y = X.int_table, X.cl_table, Y.int_table
    for g in range(Y.full + 1):
        if int_x[pre[g]] & ~cl_x[pre[int_y[g]]]:
            return False
    return True


def _scl_image_side(inst: MapInstance) -> bool:
    X, Y, img = inst.domain_ctx.tables, inst.codomain_ctx.tables, inst.map.image_table
    scl_x, cl_y = X.scl_table, Y.cl_table
    return all(img[scl_x[a]] & ~cl_y[img[a]] == 0 for a in range(X.full + 1))


def _boundary_preimage_side(inst: MapInstance) -> bool:
    X, Y, pre = inst.domain_ctx.tables, inst.codomain_ctx.tables, inst.map.preimage_table
    sbd_x, bd_y = X.sbd_table, Y.bd_table
    return all(sbd_x[pre[b]] & ~pre[bd_y[b]] == 0 for b in range(Y.full + 1))


def _t49_side(inst: MapInstance) -> bool:
    scl_x, cl_x = inst.domain_ctx.tables.scl_table, inst.domain_ctx.tables.cl_table
    return all(scl_x[p] & ~cl_x[p] == 0 for p in inst.map.preimage_table)


def _t49p_side(inst: MapInstance) -> bool:
    X, Y, pm = inst.domain_ctx.tables, inst.codomain_ctx.tables, inst.map
    img, pre, scl_x, cl_y = pm.image_table, pm.preimage_table, X.scl_table, Y.cl_table
    return all(img[scl_x[pre[g]]] & ~cl_y[g] == 0 for g in range(Y.full + 1))


def _t413_side(inst: MapInstance) -> bool:
    X, Y, pre = inst.domain_ctx.tables, inst.codomain_ctx.tables, inst.map.preimage_table
    sbd_y, bd_x = Y.sbd_table, X.bd_table
    return all(pre[sbd_y[c]] & ~bd_x[pre[c]] == 0 for c in range(Y.full + 1))


def _t47(inst, opt, b):
    (a,) = b
    return inst.map.image_table[a] in inst.codomain_ctx.tables.so_set


# --- worked-example values: computed(ctx, opt) -------------------------------------

def _reported_tables(family: tuple, ctx: SemistarContext) -> InteriorTables:
    """The tables whose interior joins the `family` members inside a set."""
    return InteriorTables(ctx.universe, image_joins(family, range(ctx.full + 1)))


def _tau(ctx, opt):
    return ctx.tables.tau_gamma


def _so(ctx, opt):
    return ctx.tables.so_family


def _classical_so(ctx, opt):
    return ctx.space.topology.semi_opens


# reported families on the three-point fixtures, as masks (a,b,c = bits 0,1,2)
_F1_TAU = (0, 1, 5, 7)
_F2_TAU = (0, 1, 2, 3, 7)

# id, fixture, statement, computed(ctx, opt), reported
_EXAMPLES = (
    ("E3.2a", "F1", "reported gamma-open family {{},{a},{a,c},X} matches the computed one",
     _tau, _F1_TAU),
    ("E3.2b", "F1", "reported semi-open family {{},{a},{a,b},{a,c},X} matches the computed one",
     _so, (0, 1, 3, 5, 7)),
    ("E3.2c", "F1", "interval sweep over the reported gamma-open family with lattice closure "
     "reproduces the reported semi-open family",
     lambda ctx, opt: _reported_tables(_F1_TAU, ctx).so_family, (0, 1, 3, 5, 7)),
    ("E3.2d", "F1", "{a,b} is semi-open", lambda ctx, opt: 3 in ctx.tables.so_set, True),
    ("E3.2e", "F1", "{a,b} is not gamma-open",
     lambda ctx, opt: 3 in ctx.tables.tau_gamma, False),
    ("E3.2f", "F1", "cl_g({a}) = X", lambda ctx, opt: ctx.tables.cl_table[1], "{a,b,c}"),
    ("E3.3a", "F2", "reported gamma-open family {{},{a},{b},{a,b},X} matches the computed one",
     _tau, _F2_TAU),
    ("E3.3b", "F2", "{b,c} is semi-open", lambda ctx, opt: 6 in ctx.tables.so_set, True),
    ("E3.3c", "F2", "{b,c} is not classically semi-open",
     lambda ctx, opt: 6 in _classical_so(ctx, opt), False),
    ("E3.3d", "F2", "interval sweep over the reported gamma-open family with lattice closure "
     "makes {b,c} semi-open",
     lambda ctx, opt: 6 in _reported_tables(_F2_TAU, ctx).so_set, True),
    ("E3.4a", "F3", "reported gamma-open family {{},{b},{a,b},{a,c},X} matches the computed one",
     _tau, (0, 2, 3, 5, 7)),
    ("E3.4b", "F3", "{a} is classically semi-open",
     lambda ctx, opt: 1 in _classical_so(ctx, opt), True),
    ("E3.4c", "F3", "{a} is not semi-open", lambda ctx, opt: 1 in ctx.tables.so_set, False),
    ("E3.23a", "F4", "classical semi-open family is {{},{a},{a,b},{a,c},X}",
     _classical_so, (0, 1, 3, 5, 7)),
    # the operation is read as A -> cl(A)
    ("E3.23b", "F4", "the closure operation is not semi-regular", _semi_regular, False),
    ("E3.23c", "F4", "the closure operation is a semi-open operation",
     lambda ctx, opt: ctx.space.semi_open_op, True),
    ("E3.25a", "F5", "reported semi-open family {{},{a},{c},{a,b},{b,c},X} matches the computed one",
     _so, (0, 1, 3, 4, 6, 7)),
    ("E3.25b", "F5", "{a,b} and {b,c} are semi-open but their intersection {b} is not",
     lambda ctx, opt: {3, 6} <= ctx.tables.so_set and 2 not in ctx.tables.so_set, True),
    ("E3.25c", "F5", "the interior-of-closure operation is not semi-regular", _semi_regular, False),
)


# --- the space laws: id, statement, bindings, term, hypotheses ------------------
#
# A term is one expression over the binding's slots (A, B, clause) and the
# vocabulary; sext*(A) is sint*(X - A), and `si` is the semi-interior of
# the interior reading.

_SR = ("semi-regular",)

_LAWS = (
    ("T3.13", "scl*(A u B) = scl*(A) u scl*(B)", _pairs,
     "scl[A | B] == scl[A] | scl[B]", ("regular",)),
    ("T3.14", "duality: sint*(X-A) = X - scl*(A); scl*(X-A) = X - sint*(A); "
     "sint*(A) = X - scl*(X-A)", _mask_clauses,
     "(sint[full ^ A] == full ^ scl[A]) if clause == 1 else "
     "(scl[full ^ A] == full ^ sint[A]) if clause == 2 else "
     "(sint[A] == full ^ scl[full ^ A])"),
    ("T3.16", "the three boundary decompositions of A hold or fail together", _masks,
     "((full ^ sbd[A]) == sint[A] | sint[full ^ A]) == (scl[A] == sint[A] | sbd[A]) == "
     "(sbd[A] == scl[A] & scl[full ^ A] and sbd[A] == scl[A] & ~sint[A])"),
    ("P3.17a", "sbd*(A) = sbd*(X-A)", _masks, "sbd[A] == sbd[full ^ A]"),
    ("P3.17b", "scl*(scl*(A)) = scl*(A)", _masks, "scl[scl[A]] == scl[A]", ("open",)),
    ("T3.18.1", "sbd*(A) = scl*(A) - sint*(A)", _masks, "sbd[A] == scl[A] & ~sint[A]"),
    ("T3.18.2", "sbd*(A) n sint*(A) = {}", _masks, "sbd[A] & sint[A] == 0"),
    ("T3.18.3", "scl*(A) = sint*(A) u sbd*(A)", _masks, "scl[A] == sint[A] | sbd[A]"),
    ("T3.18.4", "sbd*(sint*(A)) is inside sbd*(A)", _masks, "sbd[sint[A]] & ~sbd[A] == 0"),
    ("T3.18.5", "sbd*(scl*(A)) is inside sbd*(A)", _masks, "sbd[scl[A]] & ~sbd[A] == 0",
     ("open",)),
    ("T3.18.6", "X - sbd*(A) = sint*(A) u sint*(X-A)", _masks,
     "full ^ sbd[A] == sint[A] | sint[full ^ A]"),
    ("T3.18.7", "X = sint*(A) u sint*(X-A) u sbd*(A)", _masks,
     "sint[A] | sint[full ^ A] | sbd[A] == full"),
    ("T3.19.1", "A semi-open iff A n sbd*(A) = {}", _masks, "(A in so) == (A & sbd[A] == 0)"),
    ("T3.19.2", "A semi-closed iff sbd*(A) inside A", _masks, "(A in sc) == (sbd[A] & ~A == 0)"),
    # audited under regular, open, and both hypotheses
    ("T3.20", "sbd*^3(A) = sbd*^2(A) on semi-closed A", _sc_singles,
     "sbd[sbd[sbd[A]]] == sbd[sbd[A]]", ("regular",)),
    ("T3.24", "A n B semi-open for semi-open A, B", _so_pairs, "(A & B) in so", _SR),
    ("T3.26.1", "sint*(sint*(A)) = sint*(A)", _masks, "si[si[A]] == si[A]", _SR),
    ("T3.26.2", "sint*(A u B) contains sint*(A) u sint*(B)", _pairs,
     "(si[A] | si[B]) & ~si[A | B] == 0", _SR),
    ("T3.26.3", "sint*(A n B) = sint*(A) n sint*(B)", _pairs,
     "si[A & B] == si[A] & si[B]", _SR),
    ("T3.27.1", "sext*(A u B) = sext*(A) n sext*(B)", _pairs,
     "sint[full ^ (A | B)] == sint[full ^ A] & sint[full ^ B]", _SR),
    ("T3.27.2", "sbd*(A u B) = (sbd*(A) n scl*(X-B)) u (sbd*(B) n scl*(X-A))", _pairs,
     "sbd[A | B] == (sbd[A] & scl[full ^ B]) | (sbd[B] & scl[full ^ A])", _SR),
    ("T3.27.3", "sbd*(A n B) = (sbd*(A) n scl*(B)) u (sbd*(B) n scl*(A))", _pairs,
     "sbd[A & B] == (sbd[A] & scl[B]) | (sbd[B] & scl[A])", _SR),
    ("P3.28.1", "sext*(X - sext*(A)) = sext*(A)", _masks,
     "sint[sint[full ^ A]] == sint[full ^ A]", _SR),
    ("P3.28.2", "sext*(A n B) contains sext*(A) u sext*(B)", _pairs,
     "(sint[full ^ A] | sint[full ^ B]) & ~sint[full ^ (A & B)] == 0", _SR),
    ("P3.29", "A semi-closed iff some gamma-closed F has int_g(F) inside A inside F", _masks,
     "sandwich_closed(tables, A) == (A in sc)"),
    ("T3.30", "A semi-closed iff int_g(cl_g(A)) inside A", _masks,
     "int_of_cl_closed(tables, A) == (A in sc)"),
    ("L4.4", "semi-open A inside B implies A inside cl_g(int_g(B))", _so_with_supersets,
     "A & ~cl[int[B]] == 0"),
    ("L4.10", "A inside semi-closed B implies sbd*(A) inside B", _subset_of_sc,
     "sbd[A] & ~B == 0"),
    ("P4.11", "gamma-open A disjoint from B implies A n cl_g(B) = {}", _tau_disjoint,
     "A & cl[B] == 0"),
    ("L4.12", "gamma-open A disjoint from B implies A n bd_g(B) = {}", _tau_disjoint,
     "A & bd[B] == 0"),
)


# --- registry ----------------------------------------------------------------

def _space_claim(cid, statement, bindings, term, hyps=()):
    term = _Term(cid, term, bindings)
    return Claim(
        id=cid,
        kind="space",
        statement=statement,
        bindings=bindings,
        holds=term,
        hypotheses=tuple(hyps),
        slots=_BINDINGS[bindings][0],
        uses_sr_variant="semi-regular" in hyps,
        term=term,
    )


def _equivalence(cid, statement, sides, hyps=()):
    """A map claim that whole-map properties agree: `holds` when every side
    gives the first side's value; the witness detail is every side's value,
    keyed by side name in declaration order."""
    first, *rest = sides.values()

    def holds(inst, opt, b):
        want = first(inst)
        for side in rest:
            if side(inst) != want:
                return False
        return True

    def detail(inst, opt, b):
        return {name: side(inst) for name, side in sides.items()}

    return Claim(
        id=cid,
        kind="map",
        statement=statement,
        bindings=_unit,
        holds=holds,
        hypotheses=tuple(hyps),
        detail=detail,
    )


def _family_labels(ctx: SemistarContext, family) -> list:
    return [list(ctx.universe.names_of(m)) for m in family]


def _example(cid, fixture, statement, computed, reported):
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
        # the one computed value that reads the semi-regular reading
        uses_sr_variant=computed is _semi_regular,
        detail=detail,
    )


def _build_registry() -> tuple:
    claims = [_space_claim(*row) for row in _LAWS]
    claims += [
        _equivalence("T4.2", "preimage continuity iff pointwise continuity",
                     {"preimage_side": _continuity, "pointwise_side": _pointwise_continuity},
                     hyps=("regular",)),
        _equivalence("T4.5", "f semi-open iff f(int_g(E)) inside cl_g(int_g(f(E))) for all E",
                     {"image_side": _semi_open_map, "interior_closure_side": _open_map_imageside}),
        _equivalence("T4.6", "f semi-open iff int_g(f^-1(G)) inside cl_g(f^-1(int_g(G))) for all G",
                     {"image_side": _semi_open_map, "preimage_side": _open_map_preimageside}),
        Claim(id="T4.7", kind="map", statement="images of semi-open sets are semi-open",
              bindings=_so_singles_x, holds=_t47,
              hypotheses=("open", "semi-continuous", "semi-open-map"), slots=_A),
        _equivalence("T4.8", "continuity, scl-image containment, and boundary-preimage "
                     "containment are equivalent",
                     {"continuity": _continuity, "closure_of_image": _scl_image_side,
                      "boundary_preimage": _boundary_preimage_side}),
        _equivalence("T4.9", "f continuous iff scl*(f^-1(G)) inside cl_g(f^-1(G)) for all G",
                     {"continuity": _continuity, "containment_side": _t49_side}),
        # companion inequality to T4.9; registered separately
        _equivalence("T4.9p", "f continuous iff f(scl*(f^-1(G))) inside cl_g(G) for all G",
                     {"continuity": _continuity, "containment_side": _t49p_side}),
        _equivalence("T4.13", "bijective f semi-open iff f^-1(sbd*(B)) inside bd_g(f^-1(B)) "
                     "for all B", {"image_side": _semi_open_map, "boundary_side": _t413_side},
                     hyps=("bijective",)),
        # same predicate as T4.5; registered under both ids
        _equivalence("T4.14", "f semi-open iff f(int_g(A)) inside cl_g(int_g(f(A))) for all A",
                     {"image_side": _semi_open_map, "interior_closure_side": _open_map_imageside}),
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


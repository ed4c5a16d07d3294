"""The space-claim predicates, which index context tables and take the
evaluation options explicitly, against a copy of the reading path they
replaced: an environment that wraps the context and the options and
forwards each operator per mask, with the predicates written over it.

Cases: every topology on at most 3 points under the three builtins, both
closures, both interior readings and both semi-regular readings."""
import pytest

from topogamma import GammaSpace, SemistarContext, enumerate_topologies, gamma_builtin
from topogamma.claims import EvalOptions, _hypothesis_met, list_claims
from topogamma.core import submasks, supersets
from topogamma.ops import BUILTIN_KINDS

# --- the reference reading path ------------------------------------------------


class RefSpaceEnv:
    def __init__(self, ctx, opt):
        self.ctx = ctx
        self.opt = opt
        self.full = ctx.full

    @property
    def masks(self):
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

    def scl(self, a):
        return self.ctx.scl_table[a]

    def sint(self, a):
        return self.ctx.sint_table[a]

    def si(self, a):
        if self.opt.interior_reading == "lattice":
            return self.ctx.sint_table[a]
        return self.ctx.sint_pointwise_table[a]

    def sbd(self, a):
        return self.ctx.sbd_table[a]

    def sext(self, a):
        return self.sint(self.full ^ a)

    def cl_g(self, a):
        if self.ctx.closure_variant == "pointwise":
            return self.ctx.space.cl_pointwise_table[a]
        return self.ctx.space.cl_lattice_table[a]

    def int_g(self, a):
        if self.ctx.closure_variant == "pointwise":
            return self.ctx.space.int_pointwise_table[a]
        return self.ctx.space.int_lattice_table[a]

    def bd_g(self, a):
        return self.cl_g(a) & self.cl_g(self.full ^ a)

    @property
    def gclosed(self):
        if self.ctx.closure_variant == "pointwise":
            return self.ctx.space.pointwise_closed_family
        return self.ctx.space.gamma_closed_family


def _ref_hypothesis(name, env):
    cls = env.ctx.space.classification
    if name == "semi-regular":
        if env.opt.semi_regular_variant == "cap":
            return cls.semi_regular_cap
        return cls.semi_regular_cup
    return {"regular": cls.regular, "open": cls.open_op, "monotone": cls.monotone}[name]


def _masks(env):
    return [(a,) for a in env.masks]


def _pairs(env):
    return [(a, b) for a in env.masks for b in env.masks]


def _mask_clauses(env):
    return [(a, clause) for a in env.masks for clause in (1, 2, 3)]


def _so_pairs(env):
    return [(a, b) for a in env.so for b in env.so]


def _sc_singles(env):
    return [(a,) for a in env.sc]


def _so_with_supersets(env):
    return [(a, b) for a in env.so for b in supersets(a, env.full)]


def _subset_of_sc(env):
    return [(a, b) for a in env.masks for b in supersets(a, env.full) if b in env.sc_set]


def _tau_disjoint(env):
    return [(a, b) for a in env.tau for b in submasks(env.full ^ a)]


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


def _t320(env, b):
    bd2 = env.sbd(env.sbd(b[0]))
    return env.sbd(bd2) == bd2


def _t327_2(env, b):
    a, c = b
    rhs = (env.sbd(a) & env.scl(env.full ^ c)) | (env.sbd(c) & env.scl(env.full ^ a))
    return env.sbd(a | c) == rhs


def _t327_3(env, b):
    a, c = b
    return env.sbd(a & c) == (env.sbd(a) & env.scl(c)) | (env.sbd(c) & env.scl(a))


def _p329(env, b):
    (a,) = b
    sandwich = any(env.int_g(f) & ~a == 0 and a & ~f == 0 for f in env.gclosed)
    return sandwich == (a in env.sc_set)


# claim id -> (bindings, holds); a one-slot binding is (A,), a two-slot one (A, B)
REFERENCE = {
    "T3.13": (_pairs, lambda env, b: env.scl(b[0] | b[1]) == env.scl(b[0]) | env.scl(b[1])),
    "T3.14": (_mask_clauses, _t314),
    "T3.16": (_masks, _t316),
    "P3.17a": (_masks, lambda env, b: env.sbd(b[0]) == env.sbd(env.full ^ b[0])),
    "P3.17b": (_masks, lambda env, b: env.scl(env.scl(b[0])) == env.scl(b[0])),
    "T3.18.1": (_masks, lambda env, b: env.sbd(b[0]) == env.scl(b[0]) & ~env.sint(b[0])),
    "T3.18.2": (_masks, lambda env, b: env.sbd(b[0]) & env.sint(b[0]) == 0),
    "T3.18.3": (_masks, lambda env, b: env.scl(b[0]) == env.sint(b[0]) | env.sbd(b[0])),
    "T3.18.4": (_masks, lambda env, b: env.sbd(env.sint(b[0])) & ~env.sbd(b[0]) == 0),
    "T3.18.5": (_masks, lambda env, b: env.sbd(env.scl(b[0])) & ~env.sbd(b[0]) == 0),
    "T3.18.6": (_masks, lambda env, b: (
        env.full ^ env.sbd(b[0]) == env.sint(b[0]) | env.sint(env.full ^ b[0]))),
    "T3.18.7": (_masks, lambda env, b: (
        env.sint(b[0]) | env.sint(env.full ^ b[0]) | env.sbd(b[0]) == env.full)),
    "T3.19.1": (_masks, lambda env, b: (b[0] in env.so_set) == (b[0] & env.sbd(b[0]) == 0)),
    "T3.19.2": (_masks, lambda env, b: (b[0] in env.sc_set) == (env.sbd(b[0]) & ~b[0] == 0)),
    "T3.20": (_sc_singles, _t320),
    "T3.24": (_so_pairs, lambda env, b: (b[0] & b[1]) in env.so_set),
    "T3.26.1": (_masks, lambda env, b: env.si(env.si(b[0])) == env.si(b[0])),
    "T3.26.2": (_pairs, lambda env, b: (
        (env.si(b[0]) | env.si(b[1])) & ~env.si(b[0] | b[1]) == 0)),
    "T3.26.3": (_pairs, lambda env, b: env.si(b[0] & b[1]) == env.si(b[0]) & env.si(b[1])),
    "T3.27.1": (_pairs, lambda env, b: (
        env.sext(b[0] | b[1]) == env.sext(b[0]) & env.sext(b[1]))),
    "T3.27.2": (_pairs, _t327_2),
    "T3.27.3": (_pairs, _t327_3),
    "P3.28.1": (_masks, lambda env, b: env.sext(env.full ^ env.sext(b[0])) == env.sext(b[0])),
    "P3.28.2": (_pairs, lambda env, b: (
        (env.sext(b[0]) | env.sext(b[1])) & ~env.sext(b[0] & b[1]) == 0)),
    "P3.29": (_masks, _p329),
    "T3.30": (_masks, lambda env, b: (
        (env.int_g(env.cl_g(b[0])) & ~b[0] == 0) == (b[0] in env.sc_set))),
    "L4.4": (_so_with_supersets, lambda env, b: b[0] & ~env.cl_g(env.int_g(b[1])) == 0),
    "L4.10": (_subset_of_sc, lambda env, b: env.sbd(b[0]) & ~b[1] == 0),
    "P4.11": (_tau_disjoint, lambda env, b: b[0] & env.cl_g(b[1]) == 0),
    "L4.12": (_tau_disjoint, lambda env, b: b[0] & env.bd_g(b[1]) == 0),
}

SPACES = [
    GammaSpace(topology, gamma_builtin(kind, topology))
    for n in (1, 2, 3)
    for topology in enumerate_topologies(n)
    for kind in BUILTIN_KINDS
]


def test_reference_covers_every_space_claim():
    assert sorted(REFERENCE) == sorted(
        c.id for c in list_claims() if c.kind == "space" and c.fixture is None
    )


@pytest.mark.parametrize("closure", ["pointwise", "lattice"])
def test_predicates_match_reference(closure):
    claims = [c for c in list_claims() if c.id in REFERENCE]
    options = [
        EvalOptions(closure_variant=closure, interior_reading=reading, semi_regular_variant=sr)
        for reading in ("lattice", "pointwise") for sr in ("cap", "cup")
    ]
    outcomes = set()
    for space in SPACES:
        ctx = SemistarContext(space, closure)
        for opt in options:
            ref = RefSpaceEnv(ctx, opt)
            for claim in claims:
                label = (claim.id, ctx.describe(), opt)
                for h in claim.hypotheses:
                    assert _hypothesis_met(h, ctx, opt) == _ref_hypothesis(h, ref), label
                bindings, holds = REFERENCE[claim.id]
                expected = bindings(ref)
                assert list(claim.bindings(ctx)) == expected, label
                for binding in expected:
                    got = claim.holds(ctx, opt, binding)
                    assert got == holds(ref, binding), (*label, binding)
                    outcomes.add((claim.id, opt.interior_reading, got))
    assert len(SPACES) == 3 * (1 + 4 + 29)
    # both outcomes occur, under both interior readings, so the comparison
    # is not between two constant answers
    for reading in ("lattice", "pointwise"):
        assert {("T3.26.3", reading, False), ("T3.26.3", reading, True)} <= outcomes
    assert {("T3.13", False), ("T3.24", False)} <= {(c, g) for c, _, g in outcomes}

"""The space-claim terms, compiled into `holds` and into one sweep per
claim, against a copy of the reading path they replaced: an environment
that wraps the context and the options and forwards each operator per mask,
with the predicates written over it. Also the names each term reads, which
decide when a sweep's first failure is reused across contexts that share a
semi-open family, and that reuse itself.

Cases: every topology on at most 3 points under the three builtins, both
closures, both interior readings and both semi-regular readings; and the
search stream on at most 3 points with 8 operations per topology."""
import pytest

from topogamma import GammaSpace, SemistarContext, enumerate_topologies, gamma_builtin
from topogamma.claims import (
    EvalOptions,
    SearchConfig,
    _context_stream,
    evaluate_claim,
    list_claims,
)
from topogamma.registry import (
    HYPOTHESES, _BINDINGS, _FAMILY, _LAWS, _SPACE, _TABLES, _VOCABULARY, _dependency,
    _space_claim,
)
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
        return self.ctx.tables.so_family

    @property
    def so_set(self):
        return self.ctx.tables.so_set

    @property
    def sc(self):
        return self.ctx.tables.sc_family

    @property
    def sc_set(self):
        return self.ctx.tables.sc_set

    @property
    def tau(self):
        return self.ctx.tables.tau_gamma

    def scl(self, a):
        return self.ctx.tables.scl_table[a]

    def sint(self, a):
        return self.ctx.tables.sint_table[a]

    def si(self, a):
        if self.opt.interior_reading == "lattice":
            return self.ctx.tables.sint_table[a]
        return self.ctx.space.sint_pointwise_table[a]

    def sbd(self, a):
        return self.ctx.tables.sbd_table[a]

    def sext(self, a):
        return self.sint(self.full ^ a)

    def cl_g(self, a):
        return self.ctx.tables.cl_table[a]

    def int_g(self, a):
        return self.ctx.tables.int_table[a]

    def bd_g(self, a):
        return self.cl_g(a) & self.cl_g(self.full ^ a)

    @property
    def gclosed(self):
        if self.ctx.closure_variant == "pointwise":
            # the sets holding their pointwise closure, by definition, so the
            # P3.29 reference checks that they are the gamma-closed sets
            table = self.ctx.tables.cl_table
            return tuple(a for a in range(self.full + 1) if table[a] & ~a == 0)
        return self.ctx.tables.gamma_closed_family


def _ref_hypothesis(name, env):
    space = env.ctx.space
    if name == "semi-regular":
        if env.opt.semi_regular_variant == "cap":
            return space.semi_regular_cap
        return space.semi_regular_cup
    return {"regular": space.regular, "open": space.open_op, "monotone": space.monotone}[name]


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
        EvalOptions(interior_reading=reading, semi_regular_variant=sr)
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
                    assert HYPOTHESES[h][0](ctx, opt) == _ref_hypothesis(h, ref), label
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


@pytest.mark.parametrize("closure", ["pointwise", "lattice"])
def test_sweeps_find_the_reference_first_failure(closure):
    # the compiled sweep, and the sweep behind the family memo (warm across
    # the spaces that share a family), return the first binding of the
    # claim's own bindings on which the reference predicate fails
    claims = [c for c in list_claims() if c.id in REFERENCE]
    options = [
        EvalOptions(interior_reading=reading, semi_regular_variant=sr)
        for reading in ("lattice", "pointwise") for sr in ("cap", "cup")
    ]
    failures = set()
    for space in SPACES:
        ctx = SemistarContext(space, closure)
        for opt in options:
            ref = RefSpaceEnv(ctx, opt)
            for claim in claims:
                bindings, holds = REFERENCE[claim.id]
                expected = next((b for b in bindings(ref) if not holds(ref, b)), None)
                label = (claim.id, ctx.describe(), opt)
                assert claim.term.sweep(ctx, opt, claim.bindings(ctx)) == expected, label
                got = claim.term.first_failure(ctx, opt, claim.bindings(ctx))
                assert got == expected, label
                failures.add((claim.id, expected is None))
    assert {("T3.13", False), ("T3.13", True), ("T3.24", False)} <= failures


# claim id -> (the vocabulary names its term reads, and what its first
# failure is reused by under the lattice and under the pointwise interior
# reading: the semi-open family, the context's tables, or nothing)
F, T, S = _FAMILY, _TABLES, _SPACE
READS = {
    "T3.13": ({"scl"}, F, F),
    "T3.14": ({"full", "scl", "sint"}, F, F),
    "T3.16": ({"full", "sbd", "scl", "sint"}, F, F),
    "P3.17a": ({"full", "sbd"}, F, F),
    "P3.17b": ({"scl"}, F, F),
    "T3.18.1": ({"sbd", "scl", "sint"}, F, F),
    "T3.18.2": ({"sbd", "sint"}, F, F),
    "T3.18.3": ({"sbd", "scl", "sint"}, F, F),
    "T3.18.4": ({"sbd", "sint"}, F, F),
    "T3.18.5": ({"sbd", "scl"}, F, F),
    "T3.18.6": ({"full", "sbd", "sint"}, F, F),
    "T3.18.7": ({"full", "sbd", "sint"}, F, F),
    "T3.19.1": ({"so", "sbd"}, F, F),
    "T3.19.2": ({"sc", "sbd"}, F, F),
    "T3.20": ({"sbd"}, F, F),
    "T3.24": ({"so"}, F, F),
    "T3.26.1": ({"si"}, F, S),
    "T3.26.2": ({"si"}, F, S),
    "T3.26.3": ({"si"}, F, S),
    "T3.27.1": ({"full", "sint"}, F, F),
    "T3.27.2": ({"full", "sbd", "scl"}, F, F),
    "T3.27.3": ({"sbd", "scl"}, F, F),
    "P3.28.1": ({"full", "sint"}, F, F),
    "P3.28.2": ({"full", "sint"}, F, F),
    "P3.29": ({"tables", "sandwich_closed", "sc"}, T, T),
    "T3.30": ({"tables", "int_of_cl_closed", "sc"}, T, T),
    "L4.4": ({"cl", "int"}, T, T),
    "L4.10": ({"sbd"}, F, F),
    "P4.11": ({"cl"}, T, T),
    "L4.12": ({"bd"}, T, T),
}


def test_terms_read_the_pinned_names():
    # P4.11 and L4.12 hold on every instance under both closures (README,
    # "Derived facts"), so no sweep can tell their cl and bd from scl and
    # sbd: the names are pinned here instead
    claim_by_id = {c.id: c for c in list_claims()}
    terms = {c.id: c.term for c in list_claims() if c.term is not None}
    assert sorted(terms) == sorted(READS)
    for cid, (reads, lattice, pointwise) in READS.items():
        term = terms[cid]
        assert term.reads == reads, cid
        assert term.level == {"lattice": lattice, "pointwise": pointwise}, cid
        assert claim_by_id[cid].uses_interior_reading == ("si" in reads), cid
    assert [lattice for _, lattice, _ in READS.values()].count(F) == 25
    assert [lattice for _, lattice, _ in READS.values()].count(T) == 5


def _search_stream_contexts() -> list:
    return [
        ctx for closure in ("pointwise", "lattice")
        for ctx in _context_stream(SearchConfig(max_n=3, op_budget=8, closure_variant=closure))
    ]


def _assert_levels_follow(groups, levels) -> None:
    """Each vocabulary name and binding generator whose level is in
    `levels` binds one value per group; every other one takes two values
    on some group."""
    for reading in ("lattice", "pointwise"):
        opt = EvalOptions(interior_reading=reading)
        for name, (source, _) in _VOCABULARY.items():
            if source is None:
                continue
            spread = max(
                len({eval(source, {"ctx": ctx, "opt": opt}) for ctx in group})
                for group in groups
            )
            assert (spread == 1) == (_dependency(name, reading) in levels), (name, reading)
    for generator, (_, reads) in _BINDINGS.items():
        spread = max(len({tuple(generator(ctx)) for ctx in group}) for group in groups)
        within = all(_dependency(name, "lattice") in levels for name in reads)
        assert (spread == 1) == within, generator.__name__


def test_family_only_names_follow_the_family():
    # on a stream where many contexts of both closures share a semi-open
    # family, each name declared family-only under a reading binds to one
    # value per family, and each name declared otherwise takes two values
    # on some family; likewise for the binding generators
    by_family = {}
    for ctx in _search_stream_contexts():
        by_family.setdefault(ctx.tables.so_family, []).append(ctx)
    _assert_levels_follow(by_family.values(), {_FAMILY})


class _WithoutSpace:
    """A context's full set and tables, with no way to reach its space."""

    def __init__(self, ctx):
        self.full, self.tables = ctx.full, ctx.tables


def test_tables_names_follow_the_tables():
    # likewise per InteriorTables for the names below the space level, and
    # those names and every binding generator are read without the space
    contexts = _search_stream_contexts()
    by_tables = {}
    for ctx in contexts:
        by_tables.setdefault(ctx.tables, []).append(ctx)
    assert len(by_tables) < len(contexts)
    _assert_levels_follow(by_tables.values(), {_FAMILY, _TABLES})
    without_space = _WithoutSpace(contexts[-1])
    for reading in ("lattice", "pointwise"):
        opt = EvalOptions(interior_reading=reading)
        for name, (source, _) in _VOCABULARY.items():
            if source is None:
                continue
            try:
                eval(source, {"ctx": without_space, "opt": opt})
            except AttributeError:
                assert _dependency(name, reading) == _SPACE, (name, reading)
            else:
                assert _dependency(name, reading) != _SPACE, (name, reading)
    for generator in _BINDINGS:
        assert list(generator(without_space)) == list(generator(contexts[-1]))


def _stream_verdicts(claims, contexts, options):
    return [
        [evaluate_claim(claim, ctx, opt, label="").to_dict() for opt in options for claim in claims]
        for ctx in contexts
    ]


@pytest.mark.parametrize("closure", ["pointwise", "lattice"])
def test_family_reuse_is_order_free(closure):
    # the search stream at --max-n 3 --budget 16, on which many contexts
    # share a family and some share tables, swept by fresh claims (empty
    # memos), again by the same claims (every family and tables memoized),
    # and by other fresh claims in reverse order, against the memo-free sweep
    contexts = list(_context_stream(SearchConfig(max_n=3, op_budget=16,
                                                 closure_variant=closure)))
    assert len({ctx.tables.so_family for ctx in contexts}) * 8 < len(contexts)
    assert len({id(ctx.tables) for ctx in contexts}) < len(contexts)
    options = [EvalOptions(interior_reading=reading, require=())
               for reading in ("lattice", "pointwise")]
    cold = [_space_claim(*row) for row in _LAWS]
    first = _stream_verdicts(cold, contexts, options)
    assert _stream_verdicts(cold, contexts, options) == first
    reverse = [_space_claim(*row) for row in _LAWS]
    assert _stream_verdicts(reverse, contexts[::-1], options)[::-1] == first
    witnesses = [v["witness"] and tuple(v["witness"]["binding"]) for row in first for v in row]
    assert witnesses == [
        claim.term.sweep(ctx, opt, claim.bindings(ctx))
        for ctx in contexts for opt in options for claim in cold
    ]
    assert {v["status"] for row in first for v in row} == {"CONFIRMED", "REFUTED"}


def test_sweep_reads_bindings_off_the_claim():
    # a claim's `bindings` can be re-bound (the benchmark's tracer counts
    # bindings this way), so a sweep takes exactly the bindings evaluation
    # reads off the claim, and a memoized family takes none
    row = next(r for r in _LAWS if r[0] == "T3.18.1")
    claim = _space_claim(*row)
    taken = []

    def counted(ctx):
        for binding in row[2](ctx):
            taken.append(binding)
            yield binding

    object.__setattr__(claim, "bindings", counted)
    space = SPACES[-1]
    for closure in ("pointwise", "lattice"):
        evaluate_claim(claim, SemistarContext(space, closure))
        # both closures give this space one family, so the second is a hit
        assert taken == [(a,) for a in range(space.full + 1)], closure


def test_tables_memo_lives_on_the_tables():
    # a law that reads the context's tables keeps its first failure on
    # them, one entry per term, and is swept once per tables object; a
    # fresh context of the same space starts with an empty memo
    row = next(r for r in _LAWS if r[0] == "P3.29")
    claim = _space_claim(*row)
    assert claim.term.level == {"lattice": _TABLES, "pointwise": _TABLES}
    swept = []
    sweep = claim.term.sweep

    def counted(ctx, opt, bindings):
        swept.append(ctx.tables)
        return sweep(ctx, opt, bindings)

    claim.term.sweep = counted
    contexts = list(_context_stream(SearchConfig(max_n=3, op_budget=16)))
    for ctx in contexts:
        evaluate_claim(claim, ctx)
    assert len(swept) == len({id(t) for t in swept}) == len({id(c.tables) for c in contexts})
    assert len(swept) < len(contexts)
    for ctx in contexts:
        assert ctx.tables.first_failures == {claim.term: None}
    assert SemistarContext(contexts[-1].space).tables.first_failures == {}

"""Differential oracle: the cached topology, gamma and semistar tables and the
lazily decided operation-class flags against their definitions.

The definitions below are written from the paper's quantifiers (per-point
neighborhood conditions, or meets and joins over a family) and share no code
with the package's tables. Cases: every topology on at most 4 points under
the three builtins, plus the first 8 table operations per topology on at
most 3 points, over both key domains.
"""
from itertools import islice

import pytest

from topogamma import GammaSpace, SemistarContext, enumerate_topologies, gamma_builtin
from topogamma.claims import CONFIRMED, EvalOptions, evaluate_claim, get_claim
from topogamma.core import semi_closure, semi_open_family
from topogamma.ops import BUILTIN_KINDS, OPERATION_DOMAINS, enumerate_operations


def _cases() -> list:
    cases = []
    for n in (1, 2, 3, 4):
        for topology in enumerate_topologies(n):
            cases += [GammaSpace(topology, gamma_builtin(k, topology)) for k in BUILTIN_KINDS]
            if n <= 3:
                for domain in OPERATION_DOMAINS:
                    tables = enumerate_operations(topology, domain, len(BUILTIN_KINDS) + 8)
                    cases += [
                        GammaSpace(topology, op)
                        for op in islice(tables, len(BUILTIN_KINDS), None)
                    ]
    return cases


CASES = _cases()


def _points(n: int, mask: int) -> list:
    return [x for x in range(n) if mask >> x & 1]


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _meet(masks, full: int) -> int:
    out = full
    for m in masks:
        out &= m
    return out


def _subset(a: int, b: int) -> bool:
    return a & ~b == 0


def _ref_interior(topology, a: int) -> int:
    return _union(o for o in topology.opens if _subset(o, a))


def _ref_closure(topology, a: int) -> int:
    full = topology.full
    return _meet((full ^ o for o in topology.opens if _subset(a, full ^ o)), full)


def _ref_semi_opens(topology) -> tuple:
    return tuple(
        a for a in range(topology.full + 1)
        if _subset(a, _ref_closure(topology, _ref_interior(topology, a)))
    )


def _ref_int_pointwise(space, a: int) -> int:
    tab, n = space.gamma.table, space.universe.size
    return sum(
        1 << x for x in _points(n, a)
        if any(v >> x & 1 and _subset(tab[v], a) for v in space.topology.opens)
    )


def _ref_cl_pointwise(space, a: int) -> int:
    tab, n = space.gamma.table, space.universe.size
    return sum(
        1 << x for x in range(n)
        if all(tab[v] & a for v in space.topology.opens if v >> x & 1)
    )


def _ref_tau_gamma(space) -> tuple:
    return tuple(a for a in range(space.full + 1) if _ref_int_pointwise(space, a) == a)


# a copy of the eager classifier the lazy flags replaced: every flag decided
# by its quantifiers, straight from the docstring of GammaSpace
def _ref_classify(space) -> dict:
    n, full = space.universe.size, space.full
    opens = space.topology.opens
    semi = _ref_semi_opens(space.topology)
    tab = space.gamma.table
    tau_gamma = _ref_tau_gamma(space)

    def regular_over(family, cap):
        for x in range(n):
            nbds = [u for u in family if u >> x & 1]
            for u in nbds:
                for v in nbds:
                    target = tab[u] & tab[v] if cap else tab[u] | tab[v]
                    if not any(_subset(tab[w], target) for w in nbds):
                        return False
        return True

    def inner_nbds(family, inner):
        return all(
            any(b >> x & 1 and _subset(b, tab[u]) for b in inner)
            for x in range(n) for u in family if u >> x & 1
        )

    monotone = all(
        _subset(tab[a], tab[b])
        for a in range(full + 1) for b in range(full + 1) if _subset(a, b)
    )
    return {
        "regular": regular_over(opens, True),
        "open_op": inner_nbds(opens, tau_gamma),
        "monotone": monotone,
        "semi_regular_cap": regular_over(semi, True),
        "semi_regular_cup": regular_over(semi, False),
        "semi_open_op": inner_nbds(semi, semi),
    }


def _topologies():
    seen = {}
    for space in CASES:
        seen.setdefault((space.universe, space.topology.opens), space.topology)
    return list(seen.values())


def test_case_counts():
    # 389 topologies on at most 4 points, 34 of them on at most 3
    assert len(_topologies()) == 1 + 4 + 29 + 355
    assert len(CASES) > 3 * 389 + 34


def test_topology_tables():
    for topology in _topologies():
        masks = range(topology.full + 1)
        interior, closure = topology.interior_table, topology.closure_table
        assert list(interior) == [_ref_interior(topology, a) for a in masks], topology
        assert list(closure) == [_ref_closure(topology, a) for a in masks], topology
        semi = _ref_semi_opens(topology)
        assert semi_open_family(topology) == semi, topology
        assert [_subset(a, closure[interior[a]]) for a in masks] == [a in semi for a in masks]
        assert list(topology.semi_interior_table) == [
            _union(s for s in semi if _subset(s, a)) for a in masks
        ], topology
        assert [semi_closure(topology, a) for a in masks] == [
            _meet((topology.full ^ s for s in semi if _subset(a, topology.full ^ s)),
                  topology.full)
            for a in masks
        ], topology


def test_gamma_tables():
    for space in CASES:
        masks = range(space.full + 1)
        label = space.describe()
        pointwise = SemistarContext(space, "pointwise").tables
        lattice = SemistarContext(space, "lattice").tables
        assert space.int_pointwise_table == tuple(
            _ref_int_pointwise(space, a) for a in masks
        ), label
        assert pointwise.cl_table == tuple(
            _ref_cl_pointwise(space, a) for a in masks
        ), label
        tau = _ref_tau_gamma(space)
        assert pointwise.tau_gamma == lattice.tau_gamma == tau, label
        assert lattice.int_table == tuple(
            _union(o for o in tau if _subset(o, a)) for a in masks
        ), label
        assert lattice.cl_table == tuple(
            _meet((space.full ^ o for o in tau if _subset(a, space.full ^ o)), space.full)
            for a in masks
        ), label


@pytest.mark.parametrize("variant", ["pointwise", "lattice"])
def test_semistar_tables(variant):
    for space in CASES:
        ctx = SemistarContext(space, variant)
        full, masks = ctx.full, range(ctx.full + 1)
        so = ctx.tables.so_family
        sc = tuple(sorted(full ^ s for s in so))
        assert ctx.tables.sc_family == sc
        assert ctx.tables.sint_table == tuple(
            _union(s for s in so if _subset(s, a)) for a in masks
        ), ctx.describe()
        assert ctx.tables.scl_table == tuple(
            _meet((f for f in sc if _subset(a, f)), full) for a in masks
        ), ctx.describe()
        classical = _ref_semi_opens(space.topology)
        tab = space.gamma.table
        assert list(ctx.space.sint_pointwise_table) == [
            sum(1 << x for x in _points(space.universe.size, a)
                if any(u >> x & 1 and _subset(tab[u], a) for u in classical))
            for a in masks
        ], ctx.describe()


def test_lazy_flags_match_eager_classifier():
    for space in CASES:
        expected = _ref_classify(space)
        fresh = GammaSpace(space.topology, space.gamma)
        # read in a different order on a fresh space: no flag leans on
        # another having been read first
        got = {name: getattr(fresh, name) for name in reversed(list(expected))}
        assert got == expected, space.describe()


def test_pointwise_closed_sets_are_the_gamma_closed_family():
    # A holds every point whose open neighborhoods all have images meeting
    # A exactly when X - A is gamma-open, since int_g is deflationary
    assert len(CASES) == 1691
    for space in CASES:
        closed = tuple(
            a for a in range(space.full + 1) if _subset(_ref_cl_pointwise(space, a), a)
        )
        for variant in ("pointwise", "lattice"):
            tables = SemistarContext(space, variant).tables
            assert closed == tables.gamma_closed_family, space.describe()


def test_iterated_pointwise_interior_reaches_the_lattice_interior():
    # README, "Derived facts": int_g is monotone and deflationary, so the
    # iterates from A descend to the largest gamma-open set inside A, the
    # join of the tau_gamma members inside A; `GammaSpace.open_op` reads
    # that fixed point, and the lattice closure is the dual of its table
    for space in CASES:
        interior = space.int_pointwise_table
        tau = _ref_tau_gamma(space)
        for a in range(space.full + 1):
            b = a
            while interior[b] != b:
                b = interior[b]
            assert b == _union(o for o in tau if _subset(o, a)), (space.describe(), a)


@pytest.mark.parametrize("variant", ["pointwise", "lattice"])
def test_context_operator_tables(variant):
    # cl_table and int_table are the variant's gamma-closure and
    # gamma-interior; the boundaries are a set's closure met with its
    # complement's closure
    for space in CASES:
        ctx = SemistarContext(space, variant)
        full, masks = ctx.full, range(ctx.full + 1)
        tau = _ref_tau_gamma(space)
        if variant == "pointwise":
            cl = [_ref_cl_pointwise(space, a) for a in masks]
            inner = [_ref_int_pointwise(space, a) for a in masks]
        else:
            cl = [_meet((full ^ o for o in tau if _subset(a, full ^ o)), full) for a in masks]
            inner = [_union(o for o in tau if _subset(o, a)) for a in masks]
        sc = [full ^ s for s in ctx.tables.so_family]
        scl = [_meet((f for f in sc if _subset(a, f)), full) for a in masks]
        label = ctx.describe()
        assert list(ctx.tables.cl_table) == cl, label
        assert list(ctx.tables.int_table) == inner, label
        bd = [cl[a] & cl[full ^ a] for a in masks]
        assert list(ctx.tables.bd_table) == bd, label
        sbd = [scl[a] & scl[full ^ a] for a in masks]
        assert list(ctx.tables.sbd_table) == sbd, label


@pytest.mark.parametrize("variant", ["pointwise", "lattice"])
def test_semi_open_family_is_union_closed(variant):
    # README, "Derived facts": the semi-open family is the union of the
    # intervals [O, cl(O)] over the gamma-open O, which are closed under
    # unions, and both closures are monotone; so the family is closed under
    # unions, the semi-interior is idempotent, and X is the family's largest
    # member (a family fixes its universe, as the claims' family memo needs)
    for space in CASES:
        ctx = SemistarContext(space, variant)
        so, sint = ctx.tables.so_set, ctx.tables.sint_table
        label = ctx.describe()
        assert ctx.tables.so_family[-1] == ctx.full, label
        assert all((a | b) in so for a in so for b in so), label
        assert all(sint[sint[a]] == sint[a] for a in range(ctx.full + 1)), label


# README, "Derived facts": sint* is a kernel operator and scl* its dual
# closure, so each law below is idempotence or monotonicity and holds with
# its gate dropped (the T3.26 laws under the lattice interior reading)
KERNEL_LAWS = (
    ("P3.17b", "open"),
    ("T3.26.1", "semi-regular"),
    ("P3.28.1", "semi-regular"),
    ("T3.26.2", "semi-regular"),
    ("P3.28.2", "semi-regular"),
)


@pytest.mark.parametrize("variant", ["pointwise", "lattice"])
def test_kernel_laws_hold_without_their_gate(variant):
    contexts = [SemistarContext(space, variant) for space in CASES]
    for cid, gate in KERNEL_LAWS:
        assert get_claim(cid).hypotheses == (gate,)
        opt = EvalOptions(drop=frozenset({gate}))
        for ctx in contexts:
            verdict = evaluate_claim(cid, ctx, opt, label="")
            assert verdict.status == CONFIRMED, (cid, ctx.describe())

"""Starred semi operators on the fixture catalog and random instances."""
import pytest
from hypothesis import given, settings

from topogamma import SemistarContext, semi_closure, semi_open_family
from topogamma.semistar import int_of_cl_closed, sandwich_closed

from conftest import semistar_contexts

EMPTY, A, B, AB, C, AC, BC, X = 0, 1, 2, 3, 4, 5, 6, 7

VARIANTS = ("pointwise", "lattice")


def ctx_of(space, variant="pointwise"):
    return SemistarContext(space, variant)


def semi_regular(ctx, mask):
    """Both semi-open and semi-closed."""
    return mask in ctx.tables.so_set and mask in ctx.tables.sc_set


class TestSoFamily:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_f5(self, f5, variant):
        assert ctx_of(f5, variant).tables.so_family == (EMPTY, A, AB, C, AC, BC, X)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_identity_degenerates_to_classical(self, fid, variant):
        ctx = ctx_of(fid, variant)
        assert ctx.tables.so_family == semi_open_family(fid.topology)

    def test_f1_computed(self, catalog):
        # with the computed gamma-open family (all of tau1) the semi-open
        # family is tau1 as well; the smaller reported family is audited
        # under claim E3.2b
        assert ctx_of(catalog["F1"]).tables.so_family == (EMPTY, A, B, AB, AC, X)

    def test_tau_gamma_members_are_semi_open(self, catalog):
        for space in catalog.values():
            for variant in VARIANTS:
                ctx = ctx_of(space, variant)
                assert set(ctx.tables.tau_gamma) <= ctx.tables.so_set

    def test_sc_family_is_complements(self, f5):
        ctx = ctx_of(f5)
        assert ctx.tables.sc_family == tuple(sorted(X ^ s for s in ctx.tables.so_family))


class TestMembership:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_f3_a_not_semi_open(self, catalog, variant):
        ctx = ctx_of(catalog["F3"], variant)
        assert A not in ctx.tables.so_set

    def test_whole_space_both_ways(self, catalog):
        for space in catalog.values():
            ctx = ctx_of(space)
            assert X in ctx.tables.so_set and X in ctx.tables.sc_set
            assert EMPTY in ctx.tables.so_set and EMPTY in ctx.tables.sc_set

    def test_f5_examples(self, f5):
        ctx = ctx_of(f5)
        assert AB in ctx.tables.so_set
        assert BC in ctx.tables.so_set
        assert B not in ctx.tables.so_set


class TestClosureInterior:
    def test_s_closure_examples(self, f5):
        ctx = ctx_of(f5)
        assert ctx.tables.scl_table[B] == B
        assert ctx.tables.scl_table[X] == X

    def test_s_closure_identity_degeneration(self, fid):
        ctx = ctx_of(fid)
        for mask in range(8):
            assert ctx.tables.scl_table[mask] == semi_closure(fid.topology, mask)

    def test_s_interior_examples(self, f5):
        ctx = ctx_of(f5)
        assert ctx.tables.sint_table[AB] == AB
        assert ctx.tables.sint_table[EMPTY] == EMPTY
        assert ctx.tables.sint_table[B] == EMPTY

    def test_pointwise_interior_examples(self, f5):
        ctx = ctx_of(f5)
        assert ctx.space.sint_pointwise_table[A] == A
        assert ctx.space.sint_pointwise_table[B] == EMPTY

    def test_pointwise_interior_identity(self, fid):
        ctx = ctx_of(fid)
        classical = semi_open_family(fid.topology)
        for mask in range(8):
            expected = 0
            for x in range(3):
                if mask >> x & 1 and any(
                    u >> x & 1 and u & ~mask == 0 for u in classical
                ):
                    expected |= 1 << x
            assert ctx.space.sint_pointwise_table[mask] == expected


class TestBoundaryExterior:
    def test_boundary_of_whole_space(self, catalog):
        for space in catalog.values():
            assert ctx_of(space).tables.sbd_table[X] == EMPTY

    def test_f5_boundary_of_a_is_empty(self, f5):
        # {a} is semi-open and its complement {b,c} is too, so {a} is
        # semi-regular and its semi-boundary vanishes
        ctx = ctx_of(f5)
        assert ctx.tables.scl_table[A] == A
        assert ctx.tables.scl_table[BC] == BC
        assert ctx.tables.sbd_table[A] == EMPTY

    def test_identity_boundary_is_classical(self, fid):
        ctx = ctx_of(fid)
        t = fid.topology
        for mask in range(8):
            classical = semi_closure(t, mask) & semi_closure(t, X ^ mask)
            assert ctx.tables.sbd_table[mask] == classical

    def test_exterior(self, f5):
        # the semi-exterior of A is the semi-interior of X - A
        sint = ctx_of(f5).tables.sint_table
        assert sint[X ^ EMPTY] == X
        assert sint[X ^ AB] == C
        assert sint[X ^ X] == EMPTY


class TestSemiRegular:
    def test_trivial_members(self, catalog):
        for space in catalog.values():
            ctx = ctx_of(space)
            assert semi_regular(ctx, EMPTY)
            assert semi_regular(ctx, X)

    def test_f5_ac_is_not(self, f5):
        # {a,c} is semi-regular only if {b} were semi-open, which it is not
        assert not semi_regular(ctx_of(f5), AC)

    def test_complement_symmetry(self, catalog):
        for space in catalog.values():
            ctx = ctx_of(space)
            for mask in range(8):
                assert semi_regular(ctx, mask) == semi_regular(ctx, X ^ mask)

    def test_family_matches_predicate(self, f5):
        # semi-closed means the complement is semi-open
        ctx = ctx_of(f5)
        fam = tuple(m for m in range(8) if semi_regular(ctx, m))
        assert fam == tuple(m for m in ctx.tables.so_family if X ^ m in ctx.tables.so_set)
        assert fam == (EMPTY, A, AB, C, BC, X)

    def test_boundary_empty_iff_semi_regular(self, catalog):
        for space in catalog.values():
            for variant in VARIANTS:
                ctx = ctx_of(space, variant)
                for mask in range(8):
                    assert (ctx.tables.sbd_table[mask] == EMPTY) == semi_regular(ctx, mask)


class TestPreOpen:
    # A is pre-open when A equals int_g(cl_g(A))
    def test_trivial(self, catalog):
        for space in catalog.values():
            ctx = ctx_of(space)
            assert ctx.tables.int_table[ctx.tables.cl_table[EMPTY]] == EMPTY
            assert ctx.tables.int_table[ctx.tables.cl_table[X]] == X

    def test_identity_a(self, fid):
        # int(cl({a})) = int({a,c}) = {a,c}, so the equality fails
        ctx = ctx_of(fid)
        assert ctx.tables.int_table[ctx.tables.cl_table[A]] != A


class TestClosedChecks:
    def test_identity_c(self, fid):
        ctx = ctx_of(fid)
        assert sandwich_closed(ctx.tables, C) and int_of_cl_closed(ctx.tables, C) and C in ctx.tables.sc_set

    def test_whole_space(self, catalog):
        for space in catalog.values():
            ctx = ctx_of(space)
            assert sandwich_closed(ctx.tables, X) and int_of_cl_closed(ctx.tables, X) and X in ctx.tables.sc_set

    def test_f5_a(self, f5):
        ctx = ctx_of(f5)
        # int_g(cl_g({a})) = int_g({a,b}) = {a} stays inside {a}; and {a}
        # is semi-closed because {b,c} is semi-open
        assert int_of_cl_closed(ctx.tables, A)
        assert A in ctx.tables.sc_set


@given(semistar_contexts(max_n=4))
@settings(max_examples=120, deadline=None)
def test_duality_and_decomposition(ctx):
    full = ctx.full
    scl, sint, sbd = ctx.tables.scl_table, ctx.tables.sint_table, ctx.tables.sbd_table
    for mask in range(full + 1):
        fa = full ^ mask
        assert sint[fa] == full ^ scl[mask]
        assert scl[fa] == full ^ sint[mask]
        assert sint[mask] == full ^ scl[fa]
        assert sbd[mask] == sbd[fa]
        assert sbd[mask] & sint[mask] == 0
        assert scl[mask] == sint[mask] | sbd[mask]
        assert sint[mask] | sint[fa] | sbd[mask] == full
        # membership characterizations
        assert (mask in ctx.tables.so_set) == (mask & sbd[mask] == 0)
        assert (mask in ctx.tables.sc_set) == (sbd[mask] & ~mask == 0)


@given(semistar_contexts(max_n=4))
@settings(max_examples=80, deadline=None)
def test_monotonicity(ctx):
    full = ctx.full
    scl, sint = ctx.tables.scl_table, ctx.tables.sint_table
    for a in range(full + 1):
        for b in range(a, full + 1):
            if a & ~b:
                continue
            assert scl[a] & ~scl[b] == 0
            assert sint[a] & ~sint[b] == 0

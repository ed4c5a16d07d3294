"""Gamma-interior, the two gamma-closures, gamma-open family, boundary: the
pointwise interior on GammaSpace, the rest on a context's InteriorTables."""
import pytest
from hypothesis import given, settings

from topogamma import (
    GammaSpace,
    MaskOutOfRange,
    SemistarContext,
    default_universe,
    enumerate_topologies,
    gamma_builtin,
)

from conftest import gamma_spaces

EMPTY, A, B, AB, C, AC, BC, X = 0, 1, 2, 3, 4, 5, 6, 7


def pointwise(space):
    return SemistarContext(space, "pointwise").tables


def lattice(space):
    return SemistarContext(space, "lattice").tables


class TestIntGamma:
    def test_identity_degenerates_to_interior(self, fid):
        assert fid.int_pointwise_table == fid.topology.interior_table

    def test_f5_example(self, f5):
        assert f5.int_pointwise_table[AB] == A

    def test_empty(self, catalog):
        assert catalog["F1"].int_pointwise_table[EMPTY] == EMPTY

    @pytest.mark.parametrize("mask", [-1, X + 1, 2 * (X + 1)])
    def test_out_of_range(self, f5, mask):
        # the tables index by mask unchecked; masks from outside go
        # through Universe.check
        with pytest.raises(MaskOutOfRange):
            f5.universe.check(mask)


class TestGammaOpenFamily:
    def test_f5_equals_tau3(self, f5):
        assert pointwise(f5).tau_gamma == (EMPTY, A, C, AC, X)

    def test_identity_gives_opens(self, fid):
        assert pointwise(fid).tau_gamma == fid.topology.opens

    def test_f1_computed_family(self, catalog):
        # the full tau1: every open already fixes int_gamma here; the
        # smaller family the audit compares against is claim E3.2a
        assert pointwise(catalog["F1"]).tau_gamma == (EMPTY, A, B, AB, AC, X)

    def test_members_are_fixed_points(self, catalog):
        for space in catalog.values():
            fam = pointwise(space).tau_gamma
            assert EMPTY in fam and X in fam
            assert all(space.int_pointwise_table[m] == m for m in fam)


class TestClosures:
    def test_identity_degenerates_to_closure(self, fid):
        assert pointwise(fid).cl_table == fid.topology.closure_table
        assert lattice(fid).cl_table == fid.topology.closure_table

    def test_f5_pointwise(self, f5):
        assert pointwise(f5).cl_table[A] == AB
        assert pointwise(f5).cl_table[EMPTY] == EMPTY

    def test_f5_lattice(self, f5):
        assert lattice(f5).cl_table[C] == BC

    def test_lattice_examples_identity(self, fid):
        assert lattice(fid).cl_table[A] == AC

    def test_pointwise_inside_lattice(self, catalog):
        for space in catalog.values():
            for mask in range(8):
                assert pointwise(space).cl_table[mask] & ~lattice(space).cl_table[mask] == 0

    def test_int_lattice(self, fid, f5):
        assert lattice(fid).int_table == fid.topology.interior_table
        assert lattice(f5).int_table[AB] == A
        assert lattice(f5).int_table[B] == EMPTY


class TestGammaClosed:
    def test_complement_variant(self, fid, f5):
        assert C in pointwise(fid).gamma_closed_family
        assert BC in pointwise(f5).gamma_closed_family

    def test_pointwise_variant(self, f5):
        # {a} is not gamma-closed: its pointwise closure leaves it
        assert A not in pointwise(f5).gamma_closed_family
        assert pointwise(f5).cl_table[A] & ~A


class TestBoundary:
    # the gamma-boundary is the context's bd_table, under its closure
    def test_identity(self, fid):
        assert SemistarContext(fid).tables.bd_table[A] == C

    def test_f5(self, f5):
        assert SemistarContext(f5).tables.bd_table[A] == B

    def test_whole_space(self, catalog):
        for space in catalog.values():
            assert SemistarContext(space).tables.bd_table[X] == EMPTY

    def test_lattice_variant(self, f5):
        cl = lattice(f5).cl_table
        assert SemistarContext(f5, "lattice").tables.bd_table[A] == cl[A] & cl[BC]


class TestSpaceValidation:
    def test_rejects_short_table(self, fid):
        from topogamma.ops import GammaOperation

        bad = GammaOperation((0, 1), "table")
        with pytest.raises(ValueError):
            GammaSpace(fid.topology, bad)

    def test_checks_the_table(self):
        # an operation built around the constructors: the table sends {a} to {}
        from topogamma import make_topology
        from topogamma.ops import GammaOperation

        topology = make_topology(default_universe(2), [0, A, AB])
        lie = GammaOperation((0, 0, 2, 3), "lie")
        with pytest.raises(ValueError, match="expansive"):
            GammaSpace(topology, lie)


def test_identity_degeneration_all_small_topologies():
    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            space = GammaSpace(t, gamma_builtin("identity", t))
            assert pointwise(space).tau_gamma == t.opens
            assert pointwise(space).cl_table == t.closure_table
            assert space.int_pointwise_table == t.interior_table


def test_tau_gamma_intersection_report():
    # when the operation is monotone and regular, the gamma-open family is
    # expected to be intersection-closed; violations are collected and
    # reported, never assumed impossible
    violations = []
    checked = 0
    for t in enumerate_topologies(3):
        for kind in ("identity", "closure", "interior-closure"):
            space = GammaSpace(t, gamma_builtin(kind, t))
            if not (space.monotone and space.regular):
                continue
            checked += 1
            fam = frozenset(pointwise(space).tau_gamma)
            for x in fam:
                for y in fam:
                    if (x & y) not in fam:
                        violations.append((t.opens, kind, x, y))
    assert checked > 0
    print(f"tau-gamma intersection check: {checked} instances, {len(violations)} violations")
    for v in violations[:5]:
        print("  violation:", v)


@given(gamma_spaces(max_n=4))
@settings(max_examples=100, deadline=None)
def test_gamma_operator_laws(space):
    full = space.full
    fam = frozenset(pointwise(space).tau_gamma)
    for mask in range(full + 1):
        assert space.int_pointwise_table[mask] & ~mask == 0
        assert mask & ~pointwise(space).cl_table[mask] == 0
    assert pointwise(space).cl_table[0] == 0
    # the gamma-open family is always union-closed
    for x in fam:
        for y in fam:
            assert (x | y) in fam

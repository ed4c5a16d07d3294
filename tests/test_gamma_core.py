"""Gamma-interior, the two gamma-closures, gamma-open family, boundary."""
import pytest
from hypothesis import given, settings

from topogamma import (
    GammaSpace,
    MaskOutOfRange,
    bd_gamma,
    cl_gamma,
    cl_gamma_lattice,
    closure,
    default_universe,
    enumerate_topologies,
    gamma_builtin,
    gamma_open_family,
    int_gamma,
    int_gamma_lattice,
    interior,
    is_gamma_closed,
)

from conftest import gamma_spaces

EMPTY, A, B, AB, C, AC, BC, X = 0, 1, 2, 3, 4, 5, 6, 7


class TestIntGamma:
    def test_identity_degenerates_to_interior(self, fid):
        for mask in range(8):
            assert int_gamma(fid, mask) == interior(fid.topology, mask)

    def test_f5_example(self, f5):
        assert int_gamma(f5, AB) == A

    def test_empty(self, catalog):
        assert int_gamma(catalog["F1"], EMPTY) == EMPTY

    def test_out_of_range(self, f5):
        with pytest.raises(MaskOutOfRange):
            int_gamma(f5, 8)


class TestGammaOpenFamily:
    def test_f5_equals_tau3(self, f5):
        assert gamma_open_family(f5) == (EMPTY, A, C, AC, X)

    def test_identity_gives_opens(self, fid):
        assert gamma_open_family(fid) == fid.topology.opens

    def test_f1_computed_family(self, catalog):
        # the full tau1: every open already fixes int_gamma here; the
        # smaller family the audit compares against is claim E3.2a
        assert gamma_open_family(catalog["F1"]) == (EMPTY, A, B, AB, AC, X)

    def test_members_are_fixed_points(self, catalog):
        for space in catalog.values():
            fam = gamma_open_family(space)
            assert EMPTY in fam and X in fam
            assert all(int_gamma(space, m) == m for m in fam)


class TestClosures:
    def test_identity_degenerates_to_closure(self, fid):
        for mask in range(8):
            assert cl_gamma(fid, mask) == closure(fid.topology, mask)
            assert cl_gamma_lattice(fid, mask) == closure(fid.topology, mask)

    def test_f5_pointwise(self, f5):
        assert cl_gamma(f5, A) == AB
        assert cl_gamma(f5, EMPTY) == EMPTY

    def test_f5_lattice(self, f5):
        assert cl_gamma_lattice(f5, C) == BC

    def test_lattice_examples_identity(self, fid):
        assert cl_gamma_lattice(fid, A) == AC

    def test_pointwise_inside_lattice(self, catalog):
        for space in catalog.values():
            for mask in range(8):
                assert cl_gamma(space, mask) & ~cl_gamma_lattice(space, mask) == 0

    def test_int_lattice(self, fid, f5):
        for mask in range(8):
            assert int_gamma_lattice(fid, mask) == interior(fid.topology, mask)
        assert int_gamma_lattice(f5, AB) == A
        assert int_gamma_lattice(f5, B) == EMPTY


class TestGammaClosed:
    def test_complement_variant(self, fid, f5):
        assert is_gamma_closed(fid, C, "complement")
        assert is_gamma_closed(f5, BC, "complement")

    def test_pointwise_variant(self, f5):
        assert not is_gamma_closed(f5, A, "pointwise")

    def test_unknown_variant(self, f5):
        with pytest.raises(ValueError):
            is_gamma_closed(f5, A, "both")


class TestBoundary:
    def test_identity(self, fid):
        assert bd_gamma(fid, A) == C

    def test_f5(self, f5):
        assert bd_gamma(f5, A) == B

    def test_whole_space(self, catalog):
        for space in catalog.values():
            assert bd_gamma(space, X) == EMPTY

    def test_lattice_variant(self, f5):
        assert bd_gamma(f5, A, "lattice") == cl_gamma_lattice(f5, A) & cl_gamma_lattice(f5, BC)


class TestSpaceValidation:
    def test_rejects_short_table(self, fid):
        from topogamma.ops import Expansivity, GammaOperation

        bad = GammaOperation((0, 1), "table", Expansivity(True, True, True))
        with pytest.raises(ValueError):
            GammaSpace(fid.topology, bad)

    def test_checks_the_table_not_its_flag(self):
        # the flag claims expansive on opens, but the table sends {a} to {}
        from topogamma import make_topology
        from topogamma.ops import Expansivity, GammaOperation

        topology = make_topology(default_universe(2), [0, A, AB])
        lie = GammaOperation((0, 0, 2, 3), "lie", Expansivity(True, True, True))
        with pytest.raises(ValueError, match="expansive"):
            GammaSpace(topology, lie)


def test_identity_degeneration_all_small_topologies():
    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            space = GammaSpace(t, gamma_builtin("identity", t))
            assert gamma_open_family(space) == t.opens
            for mask in range(t.full + 1):
                assert cl_gamma(space, mask) == closure(t, mask)
                assert int_gamma(space, mask) == interior(t, mask)


def test_tau_gamma_intersection_report():
    # when the operation is monotone and regular, the gamma-open family is
    # expected to be intersection-closed; violations are collected and
    # reported, never assumed impossible
    violations = []
    checked = 0
    for t in enumerate_topologies(3):
        for kind in ("identity", "closure", "interior-closure"):
            space = GammaSpace(t, gamma_builtin(kind, t))
            cls = space.classification
            if not (cls.monotone and cls.regular):
                continue
            checked += 1
            fam = set(gamma_open_family(space))
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
    fam = set(gamma_open_family(space))
    for mask in range(full + 1):
        assert int_gamma(space, mask) & ~mask == 0
        assert mask & ~cl_gamma(space, mask) == 0
    assert cl_gamma(space, 0) == 0
    # the gamma-open family is always union-closed
    for x in fam:
        for y in fam:
            assert (x | y) in fam

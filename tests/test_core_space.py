"""Topology validation, classical operators, enumeration."""
import pytest
from hypothesis import given, settings

from topogamma import (
    MaskOutOfRange,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    Universe,
    UniverseTooLarge,
    brute_force_topologies,
    enumerate_topologies,
    make_topology,
    semi_closure,
    semi_open_family,
)
from topogamma.fixtures import U3, tau1, tau2, tau3

from conftest import topologies

# masks on {a,b,c}: bits a=1, b=2, c=4
EMPTY, A, B, AB, C, AC, BC, X = 0, 1, 2, 3, 4, 5, 6, 7


def oracle_closure(topology, mask):
    # independent route: meet over all closed supersets
    out = topology.full
    for o in topology.opens:
        closed = topology.full ^ o
        if mask & ~closed == 0:
            out &= closed
    return out


class TestMakeTopology:
    def test_accepts_tau1(self):
        assert tau1().opens == (EMPTY, A, B, AB, AC, X)

    def test_accepts_indiscrete(self):
        t = make_topology(U3, [EMPTY, X])
        assert t.opens == (EMPTY, X)

    def test_rejects_union_gap(self):
        with pytest.raises(NotClosedUnderUnion) as err:
            make_topology(U3, [EMPTY, A, B, X])
        assert err.value.witness == (A, B)

    def test_rejects_intersection_gap(self):
        # {a,b} and {a,c} present without {a}
        with pytest.raises(NotClosedUnderIntersection) as err:
            make_topology(U3, [EMPTY, AB, AC, X])
        assert err.value.witness == (AB, AC)

    def test_rejects_missing_full(self):
        with pytest.raises(MissingEmptyOrFull):
            make_topology(U3, [EMPTY, A])

    def test_rejects_oversized_mask(self):
        with pytest.raises(MaskOutOfRange):
            make_topology(U3, [EMPTY, 8, X])

    def test_canonicalizes_duplicates(self):
        t = make_topology(U3, [X, EMPTY, A, A, EMPTY])
        assert t.opens == (EMPTY, A, X)


class TestUniverse:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Universe(("a", "a"))

    def test_rejects_too_many_points(self):
        with pytest.raises(UniverseTooLarge):
            Universe(tuple("abcdefghi"))

    def test_format_round_trip(self):
        assert U3.format_set(AC) == "{a,c}"
        assert U3.mask_of(["a", "c"]) == AC
        assert U3.names_of(EMPTY) == ()


class TestClassicalOperators:
    def test_closure_examples(self):
        assert tau1().closure_table[A] == AC
        assert tau1().closure_table[EMPTY] == EMPTY
        assert tau2().closure_table[A] == X

    def test_interior_examples(self):
        assert tau3().interior_table[AB] == A
        assert tau1().interior_table[X] == X
        assert tau1().interior_table[C] == EMPTY

    def test_boundary_examples(self):
        # the boundary of A is cl(A) meeting cl(X - A)
        cl = tau1().closure_table
        assert cl[A] & cl[X ^ A] == C
        assert cl[EMPTY] & cl[X] == EMPTY

    def test_closure_matches_oracle_everywhere(self):
        for t in (tau1(), tau2(), tau3()):
            for mask in range(8):
                assert t.closure_table[mask] == oracle_closure(t, mask)

    @pytest.mark.parametrize("mask", [-1, X + 1, 2 * (X + 1), 0.5, "3", None, True])
    def test_mask_out_of_range(self, mask):
        # the tables index by mask unchecked; masks from outside go
        # through Universe.check, which takes only a value of type int
        with pytest.raises(MaskOutOfRange, match="does not fit a 3-point universe"):
            U3.check(mask)


class TestSemiOpen:
    def test_tau2_family(self):
        assert semi_open_family(tau2()) == (EMPTY, A, AB, AC, X)

    def test_tau1_family(self):
        assert semi_open_family(tau1()) == (EMPTY, A, B, AB, AC, X)

    def test_indiscrete_family(self):
        t = make_topology(U3, [EMPTY, X])
        assert semi_open_family(t) == (EMPTY, X)

    def test_definition_matches_family(self):
        # A is semi-open when A is inside the closure of its interior
        t = tau3()
        fam = set(semi_open_family(t))
        cl, int_ = t.closure_table, t.interior_table
        for mask in range(8):
            assert (mask & ~cl[int_[mask]] == 0) == (mask in fam)

    def test_opens_are_semi_open(self):
        for t in (tau1(), tau2(), tau3()):
            fam = set(semi_open_family(t))
            assert set(t.opens) <= fam

    def test_semi_closure_examples(self):
        assert semi_closure(tau1(), C) == C
        assert semi_closure(tau1(), X) == X
        # {a,c} is semi-open in tau2, so {b} is already semi-closed
        assert semi_closure(tau2(), B) == B

    def test_semi_closure_fixed_points_are_semi_closed(self):
        for t in (tau1(), tau2(), tau3()):
            semi_closed = {t.full ^ s for s in semi_open_family(t)}
            for mask in range(8):
                assert (semi_closure(t, mask) == mask) == (mask in semi_closed)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 29)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_topologies(n)) == count

    def test_matches_brute_force_filter(self):
        for n in (1, 2, 3):
            enumerated = tuple(t.opens for t in enumerate_topologies(n))
            assert enumerated == brute_force_topologies(n)

    def test_emitted_families_validate(self):
        for t in enumerate_topologies(3):
            make_topology(t.universe, t.opens)

    def test_deterministic_order(self):
        first = [t.opens for t in enumerate_topologies(3)]
        second = [t.opens for t in enumerate_topologies(3)]
        assert first == second
        assert first == sorted(first)

    def test_five_point_count(self):
        # the family filter oracle covers n <= 4; this pins the cap case
        assert sum(1 for _ in enumerate_topologies(5)) == 6942

    def test_rejects_out_of_range(self):
        with pytest.raises(UniverseTooLarge):
            list(enumerate_topologies(0))
        with pytest.raises(UniverseTooLarge):
            list(enumerate_topologies(6))
        with pytest.raises(UniverseTooLarge):
            brute_force_topologies(5)


@given(topologies(max_n=4))
@settings(max_examples=120, deadline=None)
def test_operator_laws(t):
    full = t.full
    interior, closure = t.interior_table, t.closure_table
    for mask in range(full + 1):
        i, c = interior[mask], closure[mask]
        assert i & ~mask == 0
        assert mask & ~c == 0
        assert interior[i] == i
        assert closure[c] == c
        assert closure[full ^ mask] == full ^ interior[mask]
    fam = set(semi_open_family(t))
    for mask in range(full + 1):
        # complements of semi-open sets are exactly the semi-closure fixed points
        assert (semi_closure(t, mask) == mask) == ((full ^ mask) in fam)


@given(topologies(max_n=3))
@settings(max_examples=60, deadline=None)
def test_monotone_operators(t):
    interior, closure = t.interior_table, t.closure_table
    for a in range(t.full + 1):
        for b in range(a, t.full + 1):
            if a & ~b:
                continue
            assert interior[a] & ~interior[b] == 0
            assert closure[a] & ~closure[b] == 0
            assert semi_closure(t, a) & ~semi_closure(t, b) == 0

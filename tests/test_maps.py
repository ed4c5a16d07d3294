"""Point maps, image/preimage laws, continuity and openness predicates."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topogamma import (
    MapInstance,
    PointMap,
    SemistarContext,
    is_gamma_semi_continuous,
    is_gamma_semi_open_map,
)
from topogamma.fixtures import U3

EMPTY, A, B, AB, C, AC, BC, X = 0, 1, 2, 3, 4, 5, 6, 7

IDENTITY = PointMap(U3, U3, (0, 1, 2))
CONSTANT_A = PointMap(U3, U3, (0, 0, 0))
COLLAPSE = PointMap(U3, U3, (1, 1, 2))  # a->b, b->b, c->c
SWAP_AC = PointMap(U3, U3, (2, 1, 0))


class TestPointMap:
    def test_bijective_flag(self):
        assert IDENTITY.bijective
        assert SWAP_AC.bijective
        assert not CONSTANT_A.bijective

    def test_from_labels(self):
        pm = PointMap.from_labels(U3, U3, {"a": "b", "b": "b", "c": "c"})
        assert pm.assignment == (1, 1, 2)
        assert pm.as_labels() == {"a": "b", "b": "b", "c": "c"}

    def test_from_labels_missing_point(self):
        with pytest.raises(ValueError):
            PointMap.from_labels(U3, U3, {"a": "b"})

    def test_from_labels_unknown_point(self):
        with pytest.raises(ValueError):
            PointMap.from_labels(U3, U3, {"a": "b", "b": "b", "c": "c", "d": "a"})

    def test_from_labels_unknown_target_point(self):
        with pytest.raises(ValueError, match=r"unknown target points \['z'\]"):
            PointMap.from_labels(U3, U3, {"a": "a", "b": "z", "c": "c"})

    def test_rejects_partial_assignment(self):
        with pytest.raises(ValueError):
            PointMap(U3, U3, (0, 1))

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            PointMap(U3, U3, (0, 1, 3))


class TestImagePreimage:
    def test_identity(self):
        assert IDENTITY.image_table[AB] == AB
        assert IDENTITY.preimage_table[AB] == AB

    def test_constant(self):
        assert CONSTANT_A.image_table[X] == A
        assert CONSTANT_A.preimage_table[A] == X
        assert CONSTANT_A.preimage_table[BC] == EMPTY

    def test_collapse_preimage(self):
        assert COLLAPSE.preimage_table[B] == AB

    @given(
        st.integers(min_value=0, max_value=7),
        st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
    )
    @settings(max_examples=120, deadline=None)
    def test_galois_laws(self, mask, assignment):
        pm = PointMap(U3, U3, assignment)
        assert mask & ~pm.preimage_table[pm.image_table[mask]] == 0
        assert pm.image_table[pm.preimage_table[mask]] & ~mask == 0


def _self_instance(space, point_map, variant="pointwise"):
    ctx = SemistarContext(space, variant)
    return MapInstance(ctx, ctx, point_map)


class TestContinuity:
    def test_identity_is_continuous(self, catalog):
        for space in catalog.values():
            for variant in ("pointwise", "lattice"):
                check = is_gamma_semi_continuous(_self_instance(space, IDENTITY, variant))
                assert check.ok

    def test_constant_is_continuous(self, catalog):
        for space in catalog.values():
            for target in range(3):
                pm = PointMap(U3, U3, (target,) * 3)
                assert is_gamma_semi_continuous(_self_instance(space, pm)).ok

    def test_swap_on_identity_space(self, fid):
        inst = _self_instance(fid, SWAP_AC)
        check = is_gamma_semi_continuous(inst)
        # the preimage of {a} is {c}, which is not semi-open in tau1
        assert not check.ok
        assert check.witness == A
        assert SWAP_AC.preimage_table[A] == C

    def test_witness_reproduces(self, f5):
        inst = _self_instance(f5, PointMap(U3, U3, (1, 1, 1)))
        check = is_gamma_semi_continuous(inst)
        if not check.ok:
            assert inst.map.preimage_table[check.witness] not in inst.domain_ctx.tables.so_set


class TestOpenness:
    def test_identity_is_open(self, catalog):
        for space in catalog.values():
            assert is_gamma_semi_open_map(_self_instance(space, IDENTITY)).ok

    def test_constant_matches_singleton_membership(self, catalog):
        for space in catalog.values():
            ctx = SemistarContext(space)
            for target in range(3):
                pm = PointMap(U3, U3, (target,) * 3)
                check = is_gamma_semi_open_map(MapInstance(ctx, ctx, pm))
                expected = all(
                    (1 << target if u else 0) in ctx.tables.so_set
                    for u in ctx.tables.tau_gamma
                )
                assert check.ok == expected

    def test_failure_carries_witness(self, catalog):
        f3 = catalog["F3"]
        ctx = SemistarContext(f3)
        pm = PointMap(U3, U3, (0, 0, 2))  # a,b -> a; c -> c
        check = is_gamma_semi_open_map(MapInstance(ctx, ctx, pm))
        if not check.ok:
            assert pm.image_table[check.witness] not in ctx.tables.so_set


class TestDegeneration:
    @given(st.tuples(*[st.integers(min_value=0, max_value=2)] * 3))
    @settings(max_examples=60, deadline=None)
    def test_identity_operation_gives_classical_semi_continuity(self, assignment):
        from topogamma import fixture_catalog, semi_open_family

        fid = fixture_catalog()["Fid"]
        inst = _self_instance(fid, PointMap(U3, U3, assignment))
        classical = set(semi_open_family(fid.topology))
        expected = all(
            inst.map.preimage_table[b] in classical for b in fid.topology.opens
        )
        assert is_gamma_semi_continuous(inst).ok == expected


class TestMapInstance:
    def test_universe_mismatch(self, fid):
        from topogamma import Universe, make_topology, gamma_builtin, GammaSpace

        u2 = Universe(("p", "q"))
        t2 = make_topology(u2, [0, 3])
        other = GammaSpace(t2, gamma_builtin("identity", t2))
        with pytest.raises(ValueError, match="target universe"):
            MapInstance(
                SemistarContext(fid), SemistarContext(other), IDENTITY
            )
        with pytest.raises(ValueError, match="source universe"):
            MapInstance(
                SemistarContext(other), SemistarContext(fid), IDENTITY
            )

    def test_equal_universes_need_not_be_the_same_object(self, fid):
        from topogamma import Universe

        copy = Universe(tuple(U3.labels))
        assert copy == U3 and copy is not U3
        pm = PointMap(copy, copy, (1, 1, 2))
        ctx = SemistarContext(fid)
        assert MapInstance(ctx, ctx, pm).map is pm

    def test_describe_mentions_assignment(self, fid):
        inst = _self_instance(fid, COLLAPSE)
        assert "a->b" in inst.describe()


class TestSweptPointMaps:
    """A universe pair's swept point maps are built once per process and
    shared by the audit, the map search and `evaluate_claim((X, Y))`."""

    # the 27 of 4**4 assignments drawn with MAP_SEED, as sweeps record them
    SAMPLED_4 = (
        (2, 2, 0, 0), (0, 2, 1, 0), (3, 0, 2, 0), (3, 1, 3, 0), (2, 0, 0, 1),
        (0, 2, 0, 1), (1, 3, 0, 1), (3, 2, 1, 1), (3, 1, 2, 1), (3, 2, 2, 1),
        (2, 2, 3, 1), (0, 3, 3, 1), (1, 0, 0, 2), (2, 0, 0, 2), (1, 1, 1, 2),
        (2, 3, 1, 2), (1, 0, 0, 3), (2, 0, 0, 3), (1, 1, 0, 3), (0, 2, 0, 3),
        (0, 1, 1, 3), (3, 0, 2, 3), (0, 1, 2, 3), (0, 2, 2, 3), (2, 2, 2, 3),
        (3, 2, 2, 3), (3, 1, 3, 3),
    )

    def test_equal_universes_share_one_tuple(self):
        from topogamma import Universe
        from topogamma.claims import _point_maps

        first = _point_maps(Universe(("a", "b", "c")), Universe(("a", "b", "c")))
        again = _point_maps(Universe(("a", "b", "c")), Universe(("a", "b", "c")))
        assert again is first
        # every map, point a's image varying fastest
        assert [pm.assignment for pm in first] == [
            (i, j, k) for k in range(3) for j in range(3) for i in range(3)
        ]

    def test_audit_builds_each_map_once(self, monkeypatch):
        from topogamma.claims import _point_maps, audit_paper, get_claim

        _point_maps.cache_clear()
        built = []
        init = PointMap.__init__

        def counted(pm, source, target, assignment):
            built.append(assignment)
            init(pm, source, target, assignment)

        monkeypatch.setattr(PointMap, "__init__", counted)
        report = audit_paper()
        rechecked = sum(
            1 for e in report.entries
            if e["status"] == "REFUTED" and get_claim(e["claim"]).kind == "map"
        )
        # every fixture shares the universe (a, b, c): 27 swept maps, plus
        # the map each refuted map witness is re-read from
        assert rechecked == 18
        assert len(built) == 27 + rechecked

    def test_sampled_sweep_keeps_its_assignments(self):
        from topogamma import GammaSpace, default_universe, gamma_builtin, make_topology
        from topogamma.claims import _point_maps, evaluate_claim

        u4 = default_universe(4)
        discrete = make_topology(u4, range(16))
        ctx = SemistarContext(GammaSpace(discrete, gamma_builtin("identity", discrete)))
        assert tuple(pm.assignment for pm in _point_maps(u4, u4)) == self.SAMPLED_4
        verdict = evaluate_claim("T4.5", (ctx, ctx))
        assert verdict.variant["maps"].startswith("sampled(27 of 256, seed=0)")

"""Operation construction, classification, and enumeration."""
import pytest

from topogamma import (
    MaskOutOfRange,
    NotExpansiveOnOpens,
    classify_operation,
    enumerate_operations,
    enumerate_topologies,
    gamma_builtin,
    gamma_from_table,
    make_topology,
    semi_open_family,
)
from topogamma.fixtures import U3, tau1, tau2, tau3

EMPTY, A, B, AB, C, AC, BC, X = 0, 1, 2, 3, 4, 5, 6, 7


class TestBuiltins:
    def test_identity_expansive_everywhere(self):
        g = gamma_builtin("identity", tau1())
        assert g.table == tuple(range(8))

    def test_closure_on_tau2(self):
        g = gamma_builtin("closure", tau2())
        assert g.table[A] == X
        assert g.table == tau2().closure_table

    def test_interior_closure_on_tau3(self):
        g = gamma_builtin("interior-closure", tau3())
        # every open set fits in its image, but {a,b} shrinks to {a}
        assert all(v & ~g.table[v] == 0 for v in tau3().opens)
        assert g.table[AB] == A
        interior, closure = tau3().interior_table, tau3().closure_table
        assert g.table == tuple(interior[closure[m]] for m in range(8))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gamma_builtin("reflection", tau1())


class TestFromTable:
    def test_f1_rule(self, catalog):
        closure = tau1().closure_table
        entries = {
            m: (closure[m] if m & B else m) for m in range(8)
        }
        g = gamma_from_table(tau1(), entries)
        assert g.table == catalog["F1"].gamma.table
        assert g.origin == "table"

    def test_rejects_shrinking_an_open(self):
        with pytest.raises(NotExpansiveOnOpens) as err:
            gamma_from_table(tau1(), {X: A})
        assert err.value.witness == X

    def test_rejects_oversized_entry(self):
        with pytest.raises(MaskOutOfRange):
            gamma_from_table(tau1(), {A: 9})

    def test_identity_fill(self):
        g = gamma_from_table(tau1(), {AB: X})
        assert g.table[AB] == X
        assert g.table[BC] == BC

    def test_closure_fill(self):
        g = gamma_from_table(tau1(), {}, fill="closure")
        assert g.table == gamma_builtin("closure", tau1()).table

    def test_unknown_fill(self):
        with pytest.raises(ValueError):
            gamma_from_table(tau1(), {}, fill="常")


class TestClassification:
    def test_identity_on_tau1(self):
        cls = classify_operation(tau1(), gamma_builtin("identity", tau1()))
        assert cls.regular and cls.open_op and cls.monotone
        assert cls.semi_regular_cap and cls.semi_regular_cup and cls.semi_open_op

    def test_interior_closure_on_tau3(self, f5):
        cls = classify_operation(tau3(), f5.gamma)
        # witness for the cap failure: x=b with {a,b} and {b,c}
        assert not cls.semi_regular_cap
        assert cls.semi_regular_cup
        assert not cls.semi_open_op
        assert cls.regular and cls.open_op and cls.monotone

    def test_closure_on_tau2(self, catalog):
        cls = classify_operation(tau2(), catalog["F4"].gamma)
        assert cls.semi_open_op
        # every nonempty semi-open image is the whole space, so both
        # semi-regular variants hold
        assert cls.semi_regular_cap and cls.semi_regular_cup

    def test_f3_flags(self, catalog):
        cls = classify_operation(tau1(), catalog["F3"].gamma)
        assert not cls.regular
        assert not cls.monotone
        assert not cls.semi_regular_cap
        assert cls.open_op and cls.semi_regular_cup and cls.semi_open_op

    def test_identity_flags_on_every_small_topology(self):
        # The cap variant of semi-regularity genuinely fails for the
        # identity on some topologies (the semi-open sets need not be
        # closed under intersection); every other flag must hold.
        cap_failures = []
        for t in enumerate_topologies(3):
            cls = classify_operation(t, gamma_builtin("identity", t))
            assert cls.regular and cls.open_op and cls.monotone
            assert cls.semi_regular_cup and cls.semi_open_op
            if not cls.semi_regular_cap:
                cap_failures.append(t.opens)
        assert (0, 1, 4, 5, 7) in cap_failures  # tau3 is one such witness

    def test_cap_equals_regular_when_semi_open_is_open(self):
        for t in enumerate_topologies(3):
            if set(semi_open_family(t)) != set(t.opens):
                continue
            for kind in ("identity", "closure", "interior-closure"):
                cls = classify_operation(t, gamma_builtin(kind, t))
                assert cls.regular == cls.semi_regular_cap


class TestEnumeration:
    def test_indiscrete_count(self):
        t = make_topology(U3, [EMPTY, X])
        ops = list(enumerate_operations(t))
        assert len(ops) == 3 + 8  # builtins plus one choice per superset of {}
        assert [g.origin for g in ops[:3]] == ["identity", "closure", "interior-closure"]

    def test_budget_cutoff(self):
        ops = list(enumerate_operations(tau1(), budget=3))
        assert len(ops) == 3

    def test_zero_budget(self):
        assert list(enumerate_operations(tau1(), budget=0)) == []

    def test_all_emitted_are_expansive_on_opens(self):
        t = tau2()
        for g in enumerate_operations(t, budget=40):
            assert all(v & ~g.table[v] == 0 for v in t.opens)

    def test_semi_open_domain_keys(self):
        t = tau2()
        ops = list(enumerate_operations(t, domain="semi-opens", budget=10))
        # tables now also pin the non-open semi-open sets
        semi_only = AC
        explicit = ops[3]
        assert explicit.table[semi_only] in (AC, X)

    def test_deterministic(self):
        first = [g.table for g in enumerate_operations(tau1(), budget=20)]
        second = [g.table for g in enumerate_operations(tau1(), budget=20)]
        assert first == second

    def test_unknown_domain(self):
        with pytest.raises(ValueError):
            list(enumerate_operations(tau1(), domain="closed"))

    def test_stream_builds_what_the_checked_constructors_build(self, monkeypatch):
        # the stream's operations are valid by construction, so it checks
        # none of them (GammaSpace checks each table it is given); they equal
        # the operations the checked constructors build from the same choices
        from topogamma import Universe, ops

        def unchecked(*args):
            raise AssertionError("the stream checked an operation")

        t = tau2()
        for domain in ("opens", "semi-opens"):
            with monkeypatch.context() as patch:
                patch.setattr(Universe, "check", unchecked)
                patch.setattr(ops, "_finish", unchecked)
                streamed = list(enumerate_operations(t, domain))
            keys = t.opens if domain == "opens" else t.semi_opens
            assert streamed[:3] == [gamma_builtin(kind, t) for kind in ops.BUILTIN_KINDS]
            assert streamed[3:] == [
                gamma_from_table(t, {k: g.table[k] for k in keys}) for g in streamed[3:]
            ]
            assert len(set(streamed)) == len(streamed)

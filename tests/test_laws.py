"""Registry content, claim evaluation, counterexample search, audit."""
import pytest

from topogamma import (
    SemistarContext,
    ShapeMismatch,
    UnknownClaim,
    audit_paper,
    enumerate_operations,
    enumerate_topologies,
    evaluate_claim,
    get_claim,
    list_claims,
    reevaluate_witness,
    search_counterexample,
)
from topogamma.claims import CONFIRMED, REFUTED, VACUOUS, EvalOptions, SearchConfig
from topogamma.maps import MapInstance, PointMap
from topogamma.fixtures import U3

EMPTY, A, B, AB, C, AC, BC, X = 0, 1, 2, 3, 4, 5, 6, 7

DROP_SR = EvalOptions(drop=frozenset({"semi-regular"}))


class TestRegistry:
    def test_size(self):
        assert len(list_claims()) >= 30

    def test_ids_unique(self):
        ids = [c.id for c in list_claims()]
        assert len(ids) == len(set(ids))

    def test_every_entry_documented(self):
        for claim in list_claims():
            assert claim.statement
            assert claim.kind in ("space", "map")

    def test_t324_lookup(self):
        claim = get_claim("T3.24")
        assert claim.hypotheses == ("semi-regular",)

    def test_t413_needs_bijection(self):
        assert get_claim("T4.13").hypotheses == ("bijective",)

    def test_unknown_claim(self):
        with pytest.raises(UnknownClaim):
            get_claim("T9.99")

    def test_example_claims_carry_fixture(self):
        for claim in list_claims():
            if claim.id.startswith("E"):
                assert claim.fixture in ("F1", "F2", "F3", "F4", "F5")


class TestEvaluate:
    def test_duality_confirmed_on_identity(self, fid):
        for variant in ("pointwise", "lattice"):
            v = evaluate_claim("T3.14", fid, EvalOptions(closure_variant=variant))
            assert v.status == CONFIRMED

    def test_t324_dropped_on_f5(self, f5):
        v = evaluate_claim("T3.24", f5, DROP_SR)
        assert v.status == REFUTED
        assert v.witness["slots"] == {"A": "{a,b}", "B": "{b,c}"}
        assert reevaluate_witness("T3.24", f5, v.witness, DROP_SR)

    def test_t324_vacuous_under_cap(self, f5):
        v = evaluate_claim("T3.24", f5)
        assert v.status == VACUOUS
        assert v.variant["unmet"] == "semi-regular"

    def test_t324_refuted_under_cup(self, f5):
        v = evaluate_claim("T3.24", f5, EvalOptions(semi_regular_variant="cup"))
        assert v.status == REFUTED

    def test_e325_partials(self, f5):
        assert evaluate_claim("E3.25b", f5).status == CONFIRMED
        assert evaluate_claim("E3.25c", f5).status == CONFIRMED
        cup = EvalOptions(semi_regular_variant="cup")
        assert evaluate_claim("E3.25c", f5, cup).status == REFUTED

    def test_e32_tension(self, catalog):
        v = evaluate_claim("E3.2a", catalog["F1"])
        assert v.status == REFUTED
        assert v.witness["detail"]["reported"] == [[], ["a"], ["a", "c"], ["a", "b", "c"]]
        assert evaluate_claim("E3.2c", catalog["F1"]).status == CONFIRMED
        assert evaluate_claim("E3.2d", catalog["F1"]).status == CONFIRMED

    def test_e34_all_confirmed(self, catalog):
        for cid in ("E3.4a", "E3.4b", "E3.4c"):
            assert evaluate_claim(cid, catalog["F3"]).status == CONFIRMED

    def test_e323_semi_regularity_refuted(self, catalog):
        for sr in ("cap", "cup"):
            v = evaluate_claim("E3.23b", catalog["F4"], EvalOptions(semi_regular_variant=sr))
            assert v.status == REFUTED
        assert evaluate_claim("E3.23a", catalog["F4"]).status == CONFIRMED
        assert evaluate_claim("E3.23c", catalog["F4"]).status == CONFIRMED

    def test_vacuous_only_on_unmet_hypothesis(self, catalog):
        f3 = catalog["F3"]  # not regular
        v = evaluate_claim("T3.13", f3)
        assert v.status == VACUOUS and v.variant["unmet"] == "regular"
        dropped = evaluate_claim("T3.13", f3, EvalOptions(drop=frozenset({"regular"})))
        assert dropped.status in (CONFIRMED, REFUTED)

    def test_t313_refuted_on_f5_despite_regularity(self, f5):
        # the operation is regular yet additivity of the semi-closure fails
        v = evaluate_claim("T3.13", f5)
        assert v.status == REFUTED
        assert v.witness["slots"] == {"A": "{a}", "B": "{c}"}

    def test_shape_mismatch(self, fid):
        with pytest.raises(ShapeMismatch):
            evaluate_claim("T4.2", fid)
        with pytest.raises(ShapeMismatch):
            evaluate_claim("T3.14", (fid, fid))

    def test_fixture_claim_refuses_other_space(self, catalog, f5):
        # E3.2a compares F1's reported family; on F5 it must not refute
        with pytest.raises(ShapeMismatch, match="F1"):
            evaluate_claim("E3.2a", f5)
        with pytest.raises(ShapeMismatch):
            reevaluate_witness("E3.2a", f5, {"binding": []})
        assert evaluate_claim("E3.2a", catalog["F1"]).status == REFUTED

    def test_accepts_context_instance(self, f5):
        ctx = SemistarContext(f5, "lattice")
        v = evaluate_claim("T3.14", ctx)
        assert v.status == CONFIRMED
        assert v.variant["closure"] == "lattice"

    def test_require_override(self, f5):
        # force the triple-boundary claim to run under the open hypothesis
        v = evaluate_claim("T3.20", f5, EvalOptions(require=("open",)))
        assert v.variant["hypotheses"] == "open"

    def test_list_and_set_overrides(self, f5):
        # options key a cache, so mutable overrides are frozen on the way in
        opt = EvalOptions(require=["open", "regular"], drop={"regular"})
        assert opt.require == ("open", "regular") and opt.drop == frozenset({"regular"})
        assert evaluate_claim("T3.20", f5, opt).variant["hypotheses"] == "open"

    def test_interior_reading_recorded(self, f5):
        v = evaluate_claim("T3.26.1", f5, EvalOptions(interior_reading="pointwise",
                                                      drop=frozenset({"semi-regular"})))
        assert v.variant["interior"] == "pointwise"


class TestMapClaims:
    def test_t42_identity_instance(self, fid):
        ctx = SemistarContext(fid)
        inst = MapInstance(ctx, ctx, PointMap(U3, U3, (0, 1, 2)))
        assert evaluate_claim("T4.2", inst).status == CONFIRMED

    def test_t42_pair_sweep(self, fid):
        v = evaluate_claim("T4.2", (fid, fid))
        assert v.status == CONFIRMED
        assert v.variant["maps"].startswith("exhaustive(27)")

    def test_t46_refuted_with_reproducible_witness(self, fid):
        v = evaluate_claim("T4.6", (fid, fid))
        assert v.status == REFUTED
        assert v.witness["assign"] == {"a": "b", "b": "a", "c": "c"}
        assert reevaluate_witness("T4.6", (fid, fid), v.witness)

    def test_t49_statement_vs_proof_form(self, fid):
        statement = evaluate_claim("T4.9", (fid, fid))
        proof_form = evaluate_claim("T4.9p", (fid, fid))
        assert statement.status == REFUTED
        assert proof_form.status == CONFIRMED

    def test_t413_vacuous_without_bijection(self, fid):
        ctx = SemistarContext(fid)
        inst = MapInstance(ctx, ctx, PointMap(U3, U3, (0, 0, 0)))
        assert evaluate_claim("T4.13", inst).status == VACUOUS

    def test_map_sampling_is_deterministic(self, fid):
        opt = EvalOptions(map_cap=5, map_seed=11)
        first = evaluate_claim("T4.5", (fid, fid), opt)
        second = evaluate_claim("T4.5", (fid, fid), opt)
        assert first.to_dict() == second.to_dict()
        assert "sampled(5 of 27" in first.variant["maps"]


class TestSearch:
    def test_t324_necessity(self):
        config = SearchConfig(max_n=3, drop=frozenset({"semi-regular"}))
        outcome = search_counterexample("T3.24", config)
        assert outcome.status == REFUTED
        assert outcome.witness is not None
        assert reevaluate_witness(
            "T3.24", outcome.witness_instance, outcome.witness.witness,
            config.options(),
        )

    def test_enforced_rerun_accounting(self):
        config = SearchConfig(max_n=2, op_budget=8, stop_at_first=False)
        outcome = search_counterexample("T3.24", config)
        assert outcome.status in (REFUTED, "EXHAUSTED")
        assert outcome.evaluated <= outcome.visited
        if outcome.refutations:
            assert outcome.witness.variant["semi_regular"] == "cap"

    def test_visited_matches_generator_accounting(self):
        config = SearchConfig(max_n=2, op_budget=5, stop_at_first=False)
        outcome = search_counterexample("T3.14", config)
        expected = 0
        for n in (1, 2):
            for topology in enumerate_topologies(n):
                expected += sum(1 for _ in enumerate_operations(topology, "opens", 5))
        assert outcome.visited == expected
        assert outcome.status == "EXHAUSTED"
        assert outcome.refutations == 0

    def test_duality_exhausts_with_budget_of_builtins(self):
        config = SearchConfig(max_n=3, op_budget=3, stop_at_first=False)
        outcome = search_counterexample("T3.14", config)
        assert outcome.status == "EXHAUSTED"
        assert outcome.refutations == 0

    def test_unknown_claim(self):
        with pytest.raises(UnknownClaim):
            search_counterexample("nope", SearchConfig(max_n=1))

    def test_deterministic(self):
        config = SearchConfig(max_n=3, drop=frozenset({"semi-regular"}))
        first = search_counterexample("T3.24", config)
        second = search_counterexample("T3.24", config)
        assert first.to_dict() == second.to_dict()


@pytest.fixture(scope="module")
def report():
    return audit_paper()


class TestAudit:
    def test_deterministic(self, report):
        assert report.to_json() == audit_paper().to_json()

    def test_tension_points_present(self, report):
        needed = {"E3.2a", "E3.3a", "E3.23b"}
        seen = {e["claim"] for e in report.entries if e["claim"] in needed}
        assert seen == needed
        errata_ids = {e["claim"] for e in report.errata}
        assert needed <= errata_ids

    def test_every_refuted_witness_reproduces(self, report):
        refuted = [e for e in report.entries if e["status"] == REFUTED]
        assert refuted
        assert all(e["witness"]["reproduced"] for e in refuted)

    def test_vacuous_rows_record_unmet(self, report):
        for e in report.entries:
            if e["status"] == VACUOUS:
                assert "unmet" in e["variant"]

    def test_structural_sweeps_clean(self, report):
        assert report.sweeps
        for row in report.sweeps:
            assert row["refuted"] == 0

    def test_errata_are_refuted_example_entries(self, report):
        for e in report.errata:
            assert e["claim"].startswith("E")
            assert e["status"] == REFUTED

    def test_text_rendering(self, report):
        text = report.to_text()
        assert "errata" in text
        assert "E3.2a" in text

    def test_both_closure_variants_present(self, report):
        variants = {e["variant"]["closure"] for e in report.entries}
        assert variants == {"pointwise", "lattice"}

    def test_t320_runs_three_modes(self, report):
        modes = {
            e["variant"]["hypotheses"]
            for e in report.entries
            if e["claim"] == "T3.20"
        }
        assert modes == {"regular", "open", "regular+open"}

"""The acceptance gate: eight criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import random

from topogamma import (
    GammaSpace,
    SemistarContext,
    audit_paper,
    brute_force_topologies,
    default_universe,
    enumerate_topologies,
    evaluate_claim,
    gamma_builtin,
    gamma_from_table,
    get_claim,
    list_claims,
    make_topology,
    reevaluate_witness,
    search_counterexample,
    semi_open_family,
)
from topogamma.claims import CONFIRMED, REFUTED, VACUOUS, EvalOptions, SearchConfig
from topogamma.core import supersets
from topogamma.errors import ShapeMismatch
from topogamma.fixtures import U3, fixture_catalog, tau1, tau2, tau3
from topogamma.maps import MapInstance, PointMap

EMPTY, A, B, AB, C, AC, BC, X = 0, 1, 2, 3, 4, 5, 6, 7

VARIANTS = ("pointwise", "lattice")
BUILTINS = ("identity", "closure", "interior-closure")

DUALITY_CLAIMS = (
    "T3.14", "T3.16",
    "T3.18.1", "T3.18.2", "T3.18.3", "T3.18.6", "T3.18.7",
    "T3.19.1", "T3.19.2",
    "P3.17a",
)


def _report(number: int, name: str, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_fixture_reproduction():
    def body():
        catalog = fixture_catalog()
        # F4: the classical semi-open family, exact match
        assert semi_open_family(catalog["F4"].topology) == (EMPTY, A, AB, AC, X)
        # F3: {a} is classically semi-open yet not starred semi-open
        assert A in semi_open_family(catalog["F3"].topology)
        for variant in VARIANTS:
            assert A not in SemistarContext(catalog["F3"], variant).tables.so_set
        # F5: {a,b} and {b,c} are starred semi-open, {b} is not
        for variant in VARIANTS:
            ctx = SemistarContext(catalog["F5"], variant)
            fam = ctx.tables.so_set
            assert AB in fam and BC in fam and B not in fam

    _report(1, "fixture reproduction", body)


def test_criterion_2_necessity_search():
    def body():
        dropped = SearchConfig(max_n=3, options=EvalOptions(drop={"semi-regular"}))
        outcome = search_counterexample("T3.24", dropped)
        assert outcome.status == REFUTED
        assert outcome.witness is not None
        assert reevaluate_witness(
            "T3.24", outcome.witness_instance, outcome.witness.witness,
            dropped.options,
        )
        # enforcing the intersection form of semi-regularity over the same
        # stream: either no refutation survives, or each one carries its
        # variant record
        enforced = SearchConfig(max_n=3, stop_at_first=False)
        rerun = search_counterexample("T3.24", enforced)
        if rerun.refutations:
            assert rerun.witness.variant["semi_regular"] == "cap"
            print(f"  note: {rerun.refutations} refutations under the cap "
                  f"hypothesis, each logged with its variant record")
        else:
            assert rerun.status == "EXHAUSTED"

    _report(2, "necessity search", body)


def test_criterion_3_duality_suite():
    def body():
        claims = [(cid, get_claim(cid)) for cid in DUALITY_CLAIMS]
        checked = 0
        for n in (1, 2, 3, 4):
            for topology in enumerate_topologies(n):
                for kind in BUILTINS:
                    space = GammaSpace(topology, gamma_builtin(kind, topology))
                    for variant in VARIANTS:
                        ctx = SemistarContext(space, variant)
                        for cid, claim in claims:
                            verdict = evaluate_claim(claim, ctx)
                            assert verdict.status == CONFIRMED, (
                                f"{cid} failed on n={n} opens={topology.opens} "
                                f"op={kind} closure={variant}: {verdict.witness}"
                            )
                            checked += 1
        assert checked == 389 * 3 * 2 * len(DUALITY_CLAIMS)

    _report(3, "duality suite", body)


def test_criterion_4_identity_degeneration():
    def body():
        for n in (1, 2, 3, 4):
            for topology in enumerate_topologies(n):
                space = GammaSpace(topology, gamma_builtin("identity", topology))
                tables = SemistarContext(space, "pointwise").tables
                assert tables.tau_gamma == topology.opens
                assert tables.cl_table == topology.closure_table
                classical = semi_open_family(topology)
                for variant in VARIANTS:
                    assert SemistarContext(space, variant).tables.so_family == classical

    _report(4, "identity degeneration", body)


def test_criterion_5_enumeration_counts():
    def body():
        expected = {1: 1, 2: 4, 3: 29, 4: 355}
        for n, count in expected.items():
            universe = default_universe(n)
            enumerated = [t.opens for t in enumerate_topologies(n)]
            assert len(enumerated) == count
            assert tuple(enumerated) == brute_force_topologies(n)
            for opens in enumerated:
                make_topology(universe, opens)

    _report(5, "enumeration counts", body)


def test_criterion_6_audit_integrity():
    def body():
        report = audit_paper()
        assert report.to_json() == audit_paper().to_json()
        refuted = [e for e in report.entries if e["status"] == REFUTED]
        assert refuted and all(e["witness"]["reproduced"] for e in refuted)
        # the known tension points must receive explicit verdicts
        adjudicated = {
            e["claim"]: e["status"]
            for e in report.entries
            if e["claim"] in ("E3.2a", "E3.3a", "E3.23b")
        }
        assert set(adjudicated) == {"E3.2a", "E3.3a", "E3.23b"}
        assert all(v in (CONFIRMED, REFUTED) for v in adjudicated.values())
        closures = {e["variant"]["closure"] for e in report.entries}
        assert closures == {"pointwise", "lattice"}
        sr = {
            e["variant"]["semi_regular"]
            for e in report.entries
            if e["claim"] == "T3.24"
        }
        assert sr == {"cap", "cup"}

    _report(6, "audit integrity", body)


def test_criterion_7_map_suite():
    def body():
        spaces = []
        for topology in (tau1(), tau2(), tau3()):
            for kind in BUILTINS:
                spaces.append(GammaSpace(topology, gamma_builtin(kind, topology)))
        t42 = get_claim("T4.2")
        agreed = 0
        for variant in VARIANTS:
            contexts = [SemistarContext(s, variant) for s in spaces]
            for ctx_x in contexts:
                if not ctx_x.space.regular:
                    continue
                for ctx_y in contexts:
                    for idx in range(27):
                        assignment = (idx % 3, idx // 3 % 3, idx // 9 % 3)
                        inst = MapInstance(ctx_x, ctx_y, PointMap(U3, U3, assignment))
                        verdict = evaluate_claim(t42, inst)
                        assert verdict.status == CONFIRMED, verdict.to_dict()
                        agreed += 1
        assert agreed == 2 * 9 * 9 * 27
        for cid in ("L4.4", "P4.11", "L4.12"):
            for variant in VARIANTS:
                for space in spaces:
                    verdict = evaluate_claim(cid, SemistarContext(space, variant))
                    assert verdict.status == CONFIRMED, (cid, verdict.to_dict())

    _report(7, "map suite", body)


def test_criterion_8_witness_soundness():
    def body():
        rng = random.Random(20260811)
        pool = [t for n in (1, 2, 3) for t in enumerate_topologies(n)]
        claims = list_claims()
        statuses = {CONFIRMED: 0, REFUTED: 0, VACUOUS: 0, "refused": 0}
        for _ in range(1000):
            claim = rng.choice(claims)
            topology = rng.choice(pool)
            if rng.random() < 0.5:
                op = gamma_builtin(rng.choice(BUILTINS), topology)
            else:
                entries = {
                    v: rng.choice(tuple(supersets(v, topology.full)))
                    for v in topology.opens
                }
                op = gamma_from_table(topology, entries)
            space = GammaSpace(topology, op)
            # the closure is drawn before the reading, as it always was
            variant = rng.choice(VARIANTS)
            options = EvalOptions(semi_regular_variant=rng.choice(("cap", "cup")))
            if claim.kind == "space":
                instance = SemistarContext(space, variant)
            else:
                cod_topology = rng.choice(pool)
                codomain = GammaSpace(
                    cod_topology, gamma_builtin(rng.choice(BUILTINS), cod_topology)
                )
                size_y = cod_topology.universe.size
                assignment = tuple(
                    rng.randrange(size_y) for _ in range(topology.universe.size)
                )
                instance = MapInstance(
                    SemistarContext(space, variant),
                    SemistarContext(codomain, variant),
                    PointMap(topology.universe, cod_topology.universe, assignment),
                )
            try:
                verdict = evaluate_claim(claim, instance, options)
            except ShapeMismatch:
                # a worked-example claim reads only its own fixture
                assert claim.fixture is not None
                statuses["refused"] += 1
                continue
            statuses[verdict.status] += 1
            if verdict.status == REFUTED:
                assert reevaluate_witness(claim, instance, verdict.witness, options)
            elif verdict.status == CONFIRMED:
                again = evaluate_claim(claim, instance, options)
                assert again.status == CONFIRMED
        assert statuses[REFUTED] > 0 and statuses[CONFIRMED] > 0
        print(f"  note: verdict mix over 1000 draws: {statuses}")

    _report(8, "witness soundness", body)

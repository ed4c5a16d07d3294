"""The map-claim predicates, which index context and point-map tables,
against a copy of the reading path they replaced: environments that read
the context operators and the point-map tables one mask at a time, and the pointwise
continuity test as the loop over points, gamma-open sets and semi-open sets
that the semi-interior identity replaces. Each "iff" claim is compared side
by side: its `holds` and its witness detail both follow from its sides."""
import pytest

from topogamma import evaluate_claim, maps
from topogamma.claims import (
    REFUTED,
    SearchConfig,
    _map_instances,
    get_claim,
    list_claims,
)

# --- the reference reading path ------------------------------------------------


class RefSpaceEnv:
    def __init__(self, ctx):
        self.ctx = ctx
        self.full = ctx.full
        self.universe = ctx.universe

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
    def tau(self):
        return self.ctx.tables.tau_gamma

    def scl(self, a):
        return self.ctx.tables.scl_table[a]

    def sbd(self, a):
        return self.scl(a) & self.scl(self.full ^ a)

    def cl_g(self, a):
        return self.ctx.tables.cl_table[a]

    def int_g(self, a):
        return self.ctx.tables.int_table[a]

    def bd_g(self, a):
        return self.cl_g(a) & self.cl_g(self.full ^ a)


class RefMapEnv:
    def __init__(self, inst):
        self.inst = inst
        self.X = RefSpaceEnv(inst.domain_ctx)
        self.Y = RefSpaceEnv(inst.codomain_ctx)
        self.semi_continuous = all(self.pre(b) in self.X.so_set for b in self.Y.tau)
        self.semi_open_map = all(self.img(u) in self.Y.so_set for u in self.X.tau)

    def img(self, a):
        return self.inst.map.image_table[a]

    def pre(self, b):
        return self.inst.map.preimage_table[b]


def _pointwise_continuity(env):
    pm = env.inst.map
    for x in range(env.X.universe.size):
        fx = pm.assignment[x]
        bit = 1 << x
        for b in env.Y.tau:
            if not b >> fx & 1:
                continue
            if not any(a & bit and env.img(a) & ~b == 0 for a in env.X.so):
                return False
    return True


def _open_map_imageside(env):
    return all(
        env.img(env.X.int_g(e)) & ~env.Y.cl_g(env.Y.int_g(env.img(e))) == 0
        for e in env.X.masks
    )


def _open_map_preimageside(env):
    return all(
        env.X.int_g(env.pre(g)) & ~env.X.cl_g(env.pre(env.Y.int_g(g))) == 0
        for g in env.Y.masks
    )


def _t49_rhs(env):
    return all(
        env.X.scl(env.pre(g)) & ~env.X.cl_g(env.pre(g)) == 0 for g in env.Y.masks
    )


def _t49p_rhs(env):
    return all(
        env.img(env.X.scl(env.pre(g))) & ~env.Y.cl_g(g) == 0 for g in env.Y.masks
    )


def _t413_rhs(env):
    return all(
        env.pre(env.Y.sbd(c)) & ~env.X.bd_g(env.pre(c)) == 0 for c in env.Y.masks
    )


def _continuity(env):
    return env.semi_continuous


def _semi_open_map(env):
    return env.semi_open_map


def _scl_image_side(env):
    return all(
        env.img(env.X.scl(a)) & ~env.Y.cl_g(env.img(a)) == 0 for a in env.X.masks
    )


def _boundary_preimage_side(env):
    return all(
        env.X.sbd(env.pre(b)) & ~env.pre(env.Y.bd_g(b)) == 0 for b in env.Y.masks
    )


# equivalence claim id -> its sides, by name in declaration order; the claim
# holds when every side agrees, and its witness detail is the sides' values
SIDES = {
    "T4.2": {"preimage_side": _continuity, "pointwise_side": _pointwise_continuity},
    "T4.5": {"image_side": _semi_open_map, "interior_closure_side": _open_map_imageside},
    "T4.6": {"image_side": _semi_open_map, "preimage_side": _open_map_preimageside},
    "T4.8": {"continuity": _continuity, "closure_of_image": _scl_image_side,
             "boundary_preimage": _boundary_preimage_side},
    "T4.9": {"continuity": _continuity, "containment_side": _t49_rhs},
    "T4.9p": {"continuity": _continuity, "containment_side": _t49p_rhs},
    "T4.13": {"image_side": _semi_open_map, "boundary_side": _t413_rhs},
    "T4.14": {"image_side": _semi_open_map, "interior_closure_side": _open_map_imageside},
}


def _t47_bindings(env):
    return [(a,) for a in env.X.so]


def _t47_holds(env, b):
    return env.img(b[0]) in env.Y.so_set


def test_reference_covers_every_map_claim():
    assert sorted([*SIDES, "T4.7"]) == sorted(c.id for c in list_claims() if c.kind == "map")


# every map instance of the two streams: all spaces on at most 2 points
# under three operations each, and on at most 3 points under the identity
@pytest.mark.parametrize("closure", ["pointwise", "lattice"])
@pytest.mark.parametrize("max_n, budget, instances", [(2, 3, 693), (3, 1, 24872)])
def test_predicates_match_reference(max_n, budget, instances, closure):
    config = SearchConfig(max_n=max_n, op_budget=budget, closure_variant=closure)
    opt = config.options
    equivalences = [get_claim(cid) for cid in SIDES]
    t47 = get_claim("T4.7")
    outcomes = set()
    visited = 0
    for inst in _map_instances(config):
        visited += 1
        ref = RefMapEnv(inst)
        label = inst.describe
        # each reference side once per instance, shared by the claims naming it
        values = {}
        for claim in equivalences:
            sides = {}
            for name, side in SIDES[claim.id].items():
                if side not in values:
                    values[side] = side(ref)
                sides[name] = values[side]
            assert list(claim.bindings(inst)) == [()], (claim.id, label())
            got = claim.detail(inst, opt, ())
            assert list(got.items()) == list(sides.items()), (claim.id, label())
            holds = claim.holds(inst, opt, ())
            assert holds == (len(set(sides.values())) == 1), (claim.id, label())
            outcomes.add((claim.id, holds))
        expected = _t47_bindings(ref)
        assert list(t47.bindings(inst)) == expected, label()
        for binding in expected:
            assert t47.holds(inst, opt, binding) == _t47_holds(ref, binding), (label(), binding)
    assert visited == instances
    # both outcomes occur, so the comparison is not between two constant
    # answers
    assert {("T4.9", False), ("T4.9", True)} <= outcomes


def test_unlabelled_refutation_carries_only_its_binding():
    config = SearchConfig(max_n=2, op_budget=3)
    opt = config.options
    claim = get_claim("T4.9")
    for inst in _map_instances(config):
        verdict = evaluate_claim(claim, inst, opt, label="")
        if verdict.status == REFUTED:
            break
    assert verdict.witness == {"binding": []}
    labelled = evaluate_claim(claim, inst, opt)
    assert labelled.instance == inst.describe()
    ref = RefMapEnv(inst)
    assert labelled.witness == {
        "binding": [],
        "detail": {name: side(ref) for name, side in SIDES["T4.9"].items()},
    }


def test_each_whole_map_flag_is_decided_at_most_once_per_instance(monkeypatch):
    # the flags are not cached on the instance: an unlabelled evaluation
    # (what a search makes) reads each at most once, through a hypothesis
    # gate or through one equivalence side
    flags = ("is_gamma_semi_continuous", "is_gamma_semi_open_map")
    calls = {}

    def counted(name, check):
        def wrapper(inst):
            calls[name] = calls.get(name, 0) + 1
            return check(inst)
        return wrapper

    for name in flags:
        monkeypatch.setattr(maps, name, counted(name, getattr(maps, name)))
    config = SearchConfig(max_n=2, op_budget=3)
    opt = config.options
    claims = [c for c in list_claims() if c.kind == "map"]
    decided = dict.fromkeys(flags, 0)
    for inst in _map_instances(config):
        for claim in claims:
            calls.clear()
            evaluate_claim(claim, inst, opt, label="")
            assert max(calls.values(), default=0) <= 1, (claim.id, calls)
            for name in calls:
                decided[name] += 1
    # both flags are read, so the bound is not met by never reading them
    assert min(decided.values()) > 0, decided

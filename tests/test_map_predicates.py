"""The map-claim predicates, which index context and point-map tables,
against a copy of the reading path they replaced: environments that call
the context operators and `image`/`preimage` per mask, and the pointwise
continuity test as the loop over points, gamma-open sets and semi-open sets
that the semi-interior identity replaces."""
import pytest

from topogamma import evaluate_claim, image, preimage
from topogamma.claims import (
    REFUTED,
    MapEnv,
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
        return self.ctx.so_family

    @property
    def so_set(self):
        return self.ctx.so_set

    @property
    def tau(self):
        return self.ctx.space.tau_gamma

    def scl(self, a):
        return self.ctx.scl_table[a]

    def sbd(self, a):
        return self.scl(a) & self.scl(self.full ^ a)

    def cl_g(self, a):
        if self.ctx.closure_variant == "pointwise":
            return self.ctx.space.cl_pointwise_table[a]
        return self.ctx.space.cl_lattice_table[a]

    def int_g(self, a):
        if self.ctx.closure_variant == "pointwise":
            return self.ctx.space.int_pointwise_table[a]
        return self.ctx.space.int_lattice_table[a]

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
        return image(self.inst.map, a)

    def pre(self, b):
        return preimage(self.inst.map, b)


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


def _t48_sides(env):
    e2 = all(
        env.img(env.X.scl(a)) & ~env.Y.cl_g(env.img(a)) == 0 for a in env.X.masks
    )
    e3 = all(
        env.X.sbd(env.pre(b)) & ~env.pre(env.Y.bd_g(b)) == 0 for b in env.Y.masks
    )
    return env.semi_continuous, e2, e3


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


def _unit(env):
    return [()]


def _t45_detail(env):
    return {"image_side": env.semi_open_map,
            "interior_closure_side": _open_map_imageside(env)}


# claim id -> (bindings, holds, detail or None); the detail and the
# equivalence claims ignore their empty binding
REFERENCE = {
    "T4.2": (
        _unit,
        lambda env, b: env.semi_continuous == _pointwise_continuity(env),
        lambda env: {"preimage_side": env.semi_continuous,
                     "pointwise_side": _pointwise_continuity(env)},
    ),
    "T4.5": (
        _unit,
        lambda env, b: env.semi_open_map == _open_map_imageside(env),
        _t45_detail,
    ),
    "T4.6": (
        _unit,
        lambda env, b: env.semi_open_map == _open_map_preimageside(env),
        lambda env: {"image_side": env.semi_open_map,
                     "preimage_side": _open_map_preimageside(env)},
    ),
    "T4.7": (
        lambda env: [(a,) for a in env.X.so],
        lambda env, b: env.img(b[0]) in env.Y.so_set,
        None,
    ),
    "T4.8": (
        _unit,
        lambda env, b: len(set(_t48_sides(env))) == 1,
        lambda env: dict(zip(("continuity", "closure_of_image", "boundary_preimage"),
                             _t48_sides(env))),
    ),
    "T4.9": (
        _unit,
        lambda env, b: env.semi_continuous == _t49_rhs(env),
        lambda env: {"continuity": env.semi_continuous, "containment_side": _t49_rhs(env)},
    ),
    "T4.9p": (
        _unit,
        lambda env, b: env.semi_continuous == _t49p_rhs(env),
        lambda env: {"continuity": env.semi_continuous, "containment_side": _t49p_rhs(env)},
    ),
    "T4.13": (
        _unit,
        lambda env, b: env.semi_open_map == _t413_rhs(env),
        lambda env: {"image_side": env.semi_open_map, "boundary_side": _t413_rhs(env)},
    ),
    "T4.14": (
        _unit,
        lambda env, b: env.semi_open_map == _open_map_imageside(env),
        _t45_detail,
    ),
}


def test_reference_covers_every_map_claim():
    assert sorted(REFERENCE) == sorted(c.id for c in list_claims() if c.kind == "map")


# every map instance of the two streams: all spaces on at most 2 points
# under three operations each, and on at most 3 points under the identity
@pytest.mark.parametrize("closure", ["pointwise", "lattice"])
@pytest.mark.parametrize("max_n, budget, instances", [(2, 3, 693), (3, 1, 24872)])
def test_predicates_match_reference(max_n, budget, instances, closure):
    config = SearchConfig(max_n=max_n, op_budget=budget, closure_variant=closure)
    opt = config.options()
    claims = [get_claim(cid) for cid in REFERENCE]
    outcomes = set()
    visited = 0
    for inst in _map_instances(config, opt):
        visited += 1
        env, ref = MapEnv(inst, opt), RefMapEnv(inst)
        for claim in claims:
            bindings, holds, detail = REFERENCE[claim.id]
            expected = list(bindings(ref))
            assert list(claim.bindings(env)) == expected, (claim.id, inst.describe())
            for binding in expected:
                got = claim.holds(env, binding)
                assert got == holds(ref, binding), (claim.id, inst.describe(), binding)
                outcomes.add((claim.id, got))
            if detail is not None:
                assert claim.detail(env, ()) == detail(ref), (claim.id, inst.describe())
    assert visited == instances
    # both outcomes occur, so the comparison is not between two constant
    # answers
    assert {("T4.9", False), ("T4.9", True)} <= outcomes


def test_unlabelled_refutation_carries_only_its_binding():
    config = SearchConfig(max_n=2, op_budget=3)
    opt = config.options()
    claim = get_claim("T4.9")
    for inst in _map_instances(config, opt):
        verdict = evaluate_claim(claim, inst, opt, label="")
        if verdict.status == REFUTED:
            break
    assert verdict.witness == {"binding": []}
    labelled = evaluate_claim(claim, inst, opt)
    assert labelled.instance == inst.describe()
    assert labelled.witness == {
        "binding": [],
        "detail": REFERENCE["T4.9"][2](RefMapEnv(inst)),
    }

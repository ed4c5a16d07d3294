"""The worked-example catalog: six small spaces the audit replays.

All live on the three-point universe {a,b,c}. The piecewise operations are
realized as explicit total tables.
"""
from __future__ import annotations

from functools import lru_cache

from .core import Mask, Topology, Universe, make_topology
from .gamma import GammaSpace
from .ops import GammaOperation, gamma_builtin, gamma_from_table

U3 = Universe(("a", "b", "c"))

FIXTURE_ORDER = ("F1", "F2", "F3", "F4", "F5", "Fid")

FIXTURE_NOTES = {
    "F1": "tau1 with A -> cl(A) when b in A, else A",
    "F2": "tau1 with A -> A when a in A, else cl(A)",
    "F3": "tau1 with A -> A when b in A, else cl(A)",
    "F4": "tau2 with A -> cl(A)",
    "F5": "tau3 with A -> int(cl(A))",
    "Fid": "tau1 with the identity operation",
}


def tau1() -> Topology:
    m = U3.mask_of
    return make_topology(
        U3, [0, m(["a"]), m(["b"]), m(["a", "b"]), m(["a", "c"]), U3.full]
    )


def tau2() -> Topology:
    m = U3.mask_of
    return make_topology(U3, [0, m(["a"]), m(["a", "b"]), U3.full])


def tau3() -> Topology:
    m = U3.mask_of
    return make_topology(U3, [0, m(["a"]), m(["c"]), m(["a", "c"]), U3.full])


def _piecewise(topology: Topology, trigger: Mask, when_hit: str) -> GammaOperation:
    """Total table: sets meeting `trigger` get `when_hit`, the rest the other rule.

    when_hit is "closure" or "identity"; the complement case gets the
    opposite rule.
    """
    closure = topology.closure_table
    entries: dict[Mask, Mask] = {}
    for a in range(topology.full + 1):
        hit = bool(a & trigger)
        use_closure = (when_hit == "closure") == hit
        entries[a] = closure[a] if use_closure else a
    return gamma_from_table(topology, entries, fill="identity")


@lru_cache(maxsize=None)
def _spaces() -> tuple[tuple[str, GammaSpace], ...]:
    t1, t2, t3 = tau1(), tau2(), tau3()
    b = U3.mask_of(["b"])
    a = U3.mask_of(["a"])
    return (
        ("F1", GammaSpace(t1, _piecewise(t1, b, "closure"))),
        ("F2", GammaSpace(t1, _piecewise(t1, a, "identity"))),
        ("F3", GammaSpace(t1, _piecewise(t1, b, "identity"))),
        ("F4", GammaSpace(t2, gamma_builtin("closure", t2))),
        ("F5", GammaSpace(t3, gamma_builtin("interior-closure", t3))),
        ("Fid", GammaSpace(t1, gamma_builtin("identity", t1))),
    )


def fixture_catalog() -> dict[str, GammaSpace]:
    """Name -> space, in the catalog's fixed order: a fresh dict over the
    six spaces, which are built once per process and shared, like their
    cached tables."""
    return dict(_spaces())

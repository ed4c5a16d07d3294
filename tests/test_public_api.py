"""The public names of the `topogamma` namespace, pinned: adding or
removing one is a deliberate API change, made here and recorded in
CHANGES.md.

Operators are tables over the power set, indexed by mask and cached on
`Topology`, `GammaSpace`, `InteriorTables` and `PointMap`; the names
below are the constructors, the engine and a few functions that compute
rather than forward. The test imports nothing from the checkout but the
package, so it also runs against an installed copy.
"""
import types

import topogamma

PUBLIC_API = (
    "AuditReport",
    "Claim",
    "EngineError",
    "EvalOptions",
    "FIXTURE_ORDER",
    "GammaOperation",
    "GammaSpace",
    "InteriorTables",
    "MapInstance",
    "Mask",
    "MaskOutOfRange",
    "MissingEmptyOrFull",
    "NotClosedUnderIntersection",
    "NotClosedUnderUnion",
    "NotExpansiveOnOpens",
    "PointMap",
    "SchemaError",
    "SearchConfig",
    "SearchOutcome",
    "SemistarContext",
    "ShapeMismatch",
    "Topology",
    "Universe",
    "UniverseTooLarge",
    "UnknownClaim",
    "Verdict",
    "audit_paper",
    "brute_force_topologies",
    "canonical_family",
    "classify_operation",
    "default_universe",
    "enumerate_operations",
    "enumerate_topologies",
    "evaluate_claim",
    "fixture_catalog",
    "gamma_builtin",
    "gamma_from_table",
    "get_claim",
    "is_gamma_semi_continuous",
    "is_gamma_semi_open_map",
    "list_claims",
    "make_topology",
    "reevaluate_witness",
    "search_counterexample",
    "semi_closure",
    "semi_open_family",
)

# the functions that only range-checked a mask and read one cached table
# (or returned one cached family), and the call of an operation, which only
# indexed its table; each with the read that replaced it in CHANGES.md
REMOVED = {
    "GammaOperation": ("__call__",),
    "core": ("interior", "closure", "boundary", "is_semi_open"),
    "gamma": ("int_gamma", "gamma_open_family", "cl_gamma", "cl_gamma_lattice",
              "int_gamma_lattice", "is_gamma_closed", "bd_gamma"),
    "semistar": ("ClosedChecks", "so_family", "sc_family", "is_gs_open", "is_gs_closed",
                 "s_closure", "s_interior", "s_interior_pointwise", "s_boundary",
                 "s_exterior", "is_semi_regular_set", "semi_regular_family",
                 "is_pre_open", "gs_closed_characterizations"),
    "maps": ("image", "preimage"),
}

# the tables a space or context no longer holds: each moved to the shared
# InteriorTables of `ctx.tables`, or to the space (CHANGES.md maps each to
# its new read); and the inputs the tables no longer hold, now that they
# are built from the closure variant's interior table alone
MOVED = {
    "InteriorTables": ("topology", "closure_variant", "int_pointwise_table"),
    "GammaSpace": ("tau_gamma", "tau_gamma_set", "gamma_closed_family", "cl_pointwise_table",
                   "cl_lattice_table", "int_lattice_table"),
    "SemistarContext": ("cl_table", "int_table", "bd_table", "so_family", "so_set",
                        "sc_family", "sc_set", "sint_table", "scl_table", "sbd_table",
                        "sint_pointwise_table"),
}


def public_names(namespace) -> list:
    # submodules become package attributes once imported, so they are left out
    return sorted(
        name for name, value in vars(namespace).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_public_names_are_the_documented_list():
    assert public_names(topogamma) == sorted(PUBLIC_API)


def test_removed_forwarders_stay_removed():
    for owner, names in REMOVED.items():
        defined = vars(getattr(topogamma, owner))
        assert [name for name in names if name in defined] == [], owner


def test_moved_tables_stay_moved():
    for cls, names in MOVED.items():
        defined = vars(getattr(topogamma, cls))
        assert [name for name in names if name in defined] == [], cls
    # the tables' inputs were instance attributes, so an instance is read too
    tables = topogamma.SemistarContext(topogamma.fixture_catalog()["F1"], "lattice").tables
    assert [name for name in MOVED["InteriorTables"] if hasattr(tables, name)] == []

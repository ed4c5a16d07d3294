"""Finite-space workbench for expansive subset operations.

Builds small topological spaces as bitmask lattices, derives the operator
algebra an expansive operation induces (gamma-interior and closure, the
starred semi-open machinery, continuity and openness of maps), and replays
an executable claims registry against exhaustively enumerated instances,
with counterexample search and a deterministic audit report.
"""

from .core import (
    Mask,
    Topology,
    Universe,
    boundary,
    brute_force_topologies,
    canonical_family,
    closure,
    default_universe,
    enumerate_topologies,
    interior,
    is_semi_open,
    make_topology,
    semi_closure,
    semi_open_family,
)
from .errors import (
    EngineError,
    MaskOutOfRange,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotExpansiveOnOpens,
    SchemaError,
    ShapeMismatch,
    UniverseTooLarge,
    UnknownClaim,
)
from .gamma import (
    GammaSpace,
    bd_gamma,
    cl_gamma,
    cl_gamma_lattice,
    gamma_open_family,
    int_gamma,
    int_gamma_lattice,
    is_gamma_closed,
)
from .maps import (
    MapInstance,
    PointMap,
    image,
    is_gamma_semi_continuous,
    is_gamma_semi_open_map,
    preimage,
)
from .ops import (
    GammaOperation,
    classify_operation,
    enumerate_operations,
    gamma_builtin,
    gamma_from_table,
)
from .semistar import (
    SemistarContext,
    gs_closed_characterizations,
    is_gs_closed,
    is_gs_open,
    is_pre_open,
    is_semi_regular_set,
    s_boundary,
    s_closure,
    s_exterior,
    s_interior,
    s_interior_pointwise,
    sc_family,
    semi_regular_family,
    so_family,
)
from .registry import Claim, EvalOptions, Verdict, get_claim, list_claims
from .claims import (
    AuditReport,
    SearchConfig,
    SearchOutcome,
    audit_paper,
    evaluate_claim,
    reevaluate_witness,
    search_counterexample,
)
from .fixtures import FIXTURE_ORDER, fixture_catalog

__version__ = "0.1.0"

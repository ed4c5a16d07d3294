"""Finite-space workbench for expansive subset operations.

Builds small topological spaces as bitmask lattices, derives the operator
algebra an expansive operation induces (gamma-interior and closure, the
starred semi-open machinery, continuity and openness of maps), and replays
an executable claims registry against exhaustively enumerated instances,
with counterexample search and a deterministic audit report.

Each operator is a power-set table cached on `Topology`, `GammaSpace` or
`InteriorTables` (a context's `tables`, fixed by its closure's interior
table) and indexed by mask; `Universe.check` validates outside masks.
"""

from .core import (
    Mask,
    Topology,
    Universe,
    brute_force_topologies,
    canonical_family,
    default_universe,
    enumerate_topologies,
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
from .gamma import GammaSpace
from .maps import MapInstance, PointMap, is_gamma_semi_continuous, is_gamma_semi_open_map
from .ops import (
    GammaOperation,
    classify_operation,
    enumerate_operations,
    gamma_builtin,
    gamma_from_table,
)
from .semistar import InteriorTables, SemistarContext
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

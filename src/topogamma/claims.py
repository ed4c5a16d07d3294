"""Claim evaluation: the hypothesis gate, the binding sweep, counterexample
search and the audit.

The engine evaluates the registry's claims (`registry.py`) exhaustively on
finite instances, searches enumerated instance streams for
counterexamples when hypotheses are dropped, and replays the whole
registry against the fixture catalog to produce a deterministic audit
report.
"""
from __future__ import annotations

import json
import random
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

from .core import ENUMERATION_CAP, FrozenValue, enumerate_topologies
from .errors import ShapeMismatch
from .fixtures import FIXTURE_NOTES, FIXTURE_ORDER, fixture_catalog
from .gamma import CLOSURE_VARIANTS, GammaSpace
from .maps import MapInstance, PointMap
from .ops import BUILTIN_KINDS, OPERATION_DOMAINS, enumerate_operations
from .registry import (
    _SET,
    CONFIRMED,
    HYPOTHESES,
    INTERIOR_READINGS,
    KNOWN_HYPOTHESES,  # read from here by the CLI
    REFUTED,
    SEMI_REGULAR_VARIANTS,
    VACUOUS,
    Claim,
    EvalOptions,
    Verdict,
    get_claim,
    list_claims,
)
from .semistar import SemistarContext, shared_contexts

# a (domain, codomain) pair sweeps every point map up to MAP_CAP of them,
# and beyond that a sample of MAP_CAP drawn with seed MAP_SEED
MAP_CAP = 27
MAP_SEED = 0


# --- evaluation ---------------------------------------------------------------

def _as_context(instance) -> SemistarContext:
    if isinstance(instance, SemistarContext):
        return instance
    if isinstance(instance, GammaSpace):
        # a bare space reads under the default, pointwise closure
        return SemistarContext(instance)
    raise ShapeMismatch(
        f"space claim needs a space or context, got {type(instance).__name__}"
    )


def _subject(claim: Claim, instance):
    """What `claim` reads of `instance`: a space claim's context (a
    worked-example claim reads only its own fixture's topology and operation
    table), a map claim's MapInstance, or the two contexts of a (domain,
    codomain) pair whose point maps the claim sweeps."""
    if claim.kind == "space":
        ctx = _as_context(instance)
        if claim.fixture is not None:
            space, fixture = ctx.space, fixture_catalog()[claim.fixture]
            if (space.topology, space.gamma.table) != (fixture.topology, fixture.gamma.table):
                raise ShapeMismatch(
                    f"claim {claim.id} checks fixture {claim.fixture}; the instance is another space"
                )
        return ctx
    if isinstance(instance, MapInstance):
        return instance
    if isinstance(instance, tuple) and len(instance) == 2 and all(
        isinstance(side, (GammaSpace, SemistarContext)) for side in instance
    ):
        return _as_context(instance[0]), _as_context(instance[1])
    raise ShapeMismatch(
        f"map claim needs a map instance or a (domain, codomain) pair, "
        f"got {type(instance).__name__}"
    )


def _options(options) -> EvalOptions:
    if options is None:
        return EvalOptions()
    if not isinstance(options, EvalOptions):
        raise ValueError(f"options must be an EvalOptions, got {type(options).__name__}")
    return options


@lru_cache(maxsize=None)
def _gate(hypotheses: tuple, kind: str, uses_interior: bool, opt: EvalOptions,
          closure: str) -> tuple:
    """The (name, reader) pairs of the hypotheses a claim of `kind` enforces
    under `opt`, and its variant record. Callers copy the record before
    adding to it."""
    base = hypotheses if opt.require is None else tuple(opt.require)
    hyps = tuple(h for h in base if h not in opt.drop)
    readers = tuple((h, HYPOTHESES[h][kind == "map"]) for h in hyps)
    for h, reader in readers:
        if reader is None:
            raise ValueError(f"hypothesis {h!r} does not apply to a {kind} claim")
    variant = {
        "closure": closure,
        "semi_regular": opt.semi_regular_variant,
        "interior": opt.interior_reading if uses_interior else "lattice",
        "hypotheses": "+".join(hyps) if hyps else "none",
    }
    return readers, variant


def _render_binding(claim: Claim, subject, opt: EvalOptions, binding: tuple) -> dict:
    universe = subject.universe if claim.kind == "space" else subject.domain_ctx.universe
    slots = {}
    for (name, kind), value in zip(claim.slots, binding):
        slots[name] = universe.format_set(value) if kind == _SET else value
    witness = {"binding": list(binding)}
    if slots:
        witness["slots"] = slots
    if claim.detail is not None:
        witness["detail"] = claim.detail(subject, opt, binding)
    return witness


def _run(claim: Claim, subject, opt: EvalOptions, label: str, closure: str) -> Verdict:
    """Gate, then sweep the bindings for the first one the claim fails on.
    A verdict labelled "" is one the caller will most likely discard, so
    its witness holds the binding only."""
    readers, variant = _gate(claim.hypotheses, claim.kind, claim.uses_interior_reading, opt,
                             closure)
    variant = dict(variant)
    for h, met in readers:
        if not met(subject, opt):
            variant["unmet"] = h
            return Verdict(claim.id, label, VACUOUS, variant, None)
    # the bindings are read off the claim here, so a caller that re-binds
    # `claim.bindings` sees every binding a sweep takes
    bindings = claim.bindings(subject)
    if claim.term is not None:
        binding = claim.term.first_failure(subject, opt, bindings)
    else:
        for binding in bindings:
            if not claim.holds(subject, opt, binding):
                break
        else:
            binding = None
    if binding is None:
        return Verdict(claim.id, label, CONFIRMED, variant, None)
    if label:
        witness = _render_binding(claim, subject, opt, binding)
    else:
        witness = {"binding": list(binding)}
    return Verdict(claim.id, label, REFUTED, variant, witness)


def _assignment_indices(total: int) -> list:
    if total <= MAP_CAP:
        return list(range(total))
    rng = random.Random(MAP_SEED)
    return sorted(rng.sample(range(total), MAP_CAP))


def _assignment_of(index: int, size_x: int, size_y: int) -> tuple:
    return tuple((index // size_y**i) % size_y for i in range(size_x))


@lru_cache(maxsize=None)
def _point_maps(source, target) -> tuple:
    """The maps a sweep visits from `source` to `target`, in sweep order: one
    tuple per universe pair, shared by every sweep, so each map is built and
    fills its tables once."""
    total = target.size**source.size
    return tuple(
        PointMap(source, target, _assignment_of(idx, source.size, target.size))
        for idx in _assignment_indices(total)
    )


def _evaluate_map_sweep(claim: Claim, ctx_x: SemistarContext, ctx_y: SemistarContext,
                        opt: EvalOptions, label: Optional[str]) -> Verdict:
    point_maps = _point_maps(ctx_x.universe, ctx_y.universe)
    total = ctx_y.universe.size**ctx_x.universe.size
    sweep_note = (
        f"exhaustive({total})" if total <= MAP_CAP
        else f"sampled({len(point_maps)} of {total}, seed={MAP_SEED})"
    )
    closure = _closure_label(ctx_x, ctx_y)
    if label is None:
        label = f"{ctx_x.describe()} -> {ctx_y.describe()}"
    met = 0
    for pm in point_maps:
        verdict = _run(claim, MapInstance(ctx_x, ctx_y, pm), opt, label, closure)
        if verdict.status == VACUOUS:
            continue
        met += 1
        if verdict.status == REFUTED:
            verdict.witness["assign"] = pm.as_labels()
            verdict.variant["maps"] = f"{sweep_note}, met={met}"
            return verdict
    variant = dict(_gate(claim.hypotheses, claim.kind, claim.uses_interior_reading, opt,
                         closure)[1])
    variant["maps"] = f"{sweep_note}, met={met}"
    if met == 0:
        variant["unmet"] = "no map met the hypotheses"
        return Verdict(claim.id, label, VACUOUS, variant, None)
    return Verdict(claim.id, label, CONFIRMED, variant, None)


def _closure_label(ctx_x: SemistarContext, ctx_y: SemistarContext) -> str:
    if ctx_x.closure_variant == ctx_y.closure_variant:
        return ctx_x.closure_variant
    return f"{ctx_x.closure_variant}/{ctx_y.closure_variant}"


def evaluate_claim(claim_or_id, instance, options: Optional[EvalOptions] = None,
                   label: Optional[str] = None) -> Verdict:
    """Evaluate one claim on one instance, sweeping its quantified slots.

    Space claims take a SemistarContext, or a GammaSpace read under the
    pointwise closure. Map claims take a MapInstance, or a (domain,
    codomain) pair of contexts or spaces, in which case the point map
    becomes a swept slot (exhaustive up to MAP_CAP assignments, then a
    sample seeded with MAP_SEED, recorded in the verdict). The closure
    variant is always the contexts' own; `options` carry only the readings
    and the hypothesis overrides.

    `label` names the instance in the verdict; None renders the instance's
    description. A caller that discards most verdicts passes "": a REFUTED
    verdict then carries only its binding, and the caller labels and renders
    only the verdicts it keeps.
    """
    claim = claim_or_id if isinstance(claim_or_id, Claim) else get_claim(claim_or_id)
    opt = _options(options)
    subject = _subject(claim, instance)
    if claim.kind == "space":
        closure = subject.closure_variant
    elif isinstance(subject, MapInstance):
        closure = _closure_label(subject.domain_ctx, subject.codomain_ctx)
    else:
        return _evaluate_map_sweep(claim, *subject, opt, label)
    if label is None:
        label = subject.describe()
    return _run(claim, subject, opt, label, closure)


def reevaluate_witness(claim_or_id, instance, witness: dict,
                       options: Optional[EvalOptions] = None) -> bool:
    """True when the stored witness still falsifies the claim on re-evaluation.

    Raises ShapeMismatch when a map claim given a (domain, codomain) pair
    gets no `assign`, or when the witness's binding does not fill the
    claim's slots; MaskOutOfRange when a set slot holds no subset of the
    universe."""
    claim = claim_or_id if isinstance(claim_or_id, Claim) else get_claim(claim_or_id)
    opt = _options(options)
    subject = _subject(claim, instance)
    if isinstance(subject, tuple):
        if "assign" not in witness:
            raise ShapeMismatch(
                f"claim {claim.id} on a (domain, codomain) pair needs the witness's "
                f"'assign' key, the point map"
            )
        ctx_x, ctx_y = subject
        pm = PointMap.from_labels(ctx_x.universe, ctx_y.universe, witness["assign"])
        subject = MapInstance(ctx_x, ctx_y, pm)
    binding = tuple(witness.get("binding", ()))
    if len(binding) != len(claim.slots):
        names = ", ".join(name for name, _ in claim.slots)
        raise ShapeMismatch(
            f"claim {claim.id} needs a witness binding for the slots ({names}), "
            f"got {len(binding)} value(s)"
        )
    universe = subject.universe if claim.kind == "space" else subject.domain_ctx.universe
    for (_, kind), value in zip(claim.slots, binding):
        if kind == _SET:
            universe.check(value)
    return not claim.holds(subject, opt, binding)


# --- counterexample search ------------------------------------------------------

class SearchConfig(FrozenValue):
    """Bounds for a counterexample search and the `options` it evaluates
    under. The closure variant is that of the contexts the stream builds."""

    _fields = ("max_n", "op_budget", "domain", "stop_at_first", "closure_variant", "options")

    def __init__(self, max_n: int = 4, op_budget: int = 64, domain: str = "opens",
                 stop_at_first: bool = True, closure_variant: str = "pointwise",
                 options: EvalOptions = EvalOptions()):
        # as in `Universe.check`, a bool or a float is refused, not coerced
        if type(max_n) is not int or not 1 <= max_n <= ENUMERATION_CAP:
            raise ValueError(f"max_n must be an int between 1 and {ENUMERATION_CAP}")
        if type(op_budget) is not int or op_budget < 1:
            raise ValueError("op_budget must be a positive int")
        if type(stop_at_first) is not bool:
            raise ValueError("stop_at_first must be a bool")
        # checked here, as the stream would meet a bad value only once it runs
        if domain not in OPERATION_DOMAINS:
            raise ValueError(f"unknown domain {domain!r}, expected one of {OPERATION_DOMAINS}")
        if closure_variant not in CLOSURE_VARIANTS:
            raise ValueError(
                f"unknown closure variant {closure_variant!r}, expected one of {CLOSURE_VARIANTS}"
            )
        self._set(max_n, op_budget, domain, stop_at_first, closure_variant, _options(options))


class SearchOutcome:
    """A sweep's result: its first refutation, rendered and labelled, and
    the refuting SemistarContext (space claim) or MapInstance (map claim),
    on which `evaluate_claim` or `reevaluate_witness` reproduces it."""

    __slots__ = ("claim_id", "status", "witness", "visited", "evaluated", "refutations",
                 "witness_instance")

    def __init__(self, claim_id: str, status: str, witness: Optional[Verdict], visited: int,
                 evaluated: int, refutations: int, witness_instance: object = None):
        self.claim_id = claim_id
        self.status = status                    # REFUTED | EXHAUSTED
        self.witness = witness
        self.visited = visited
        self.evaluated = evaluated
        self.refutations = refutations
        self.witness_instance = witness_instance

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "status": self.status,
            "witness": self.witness.to_dict() if self.witness else None,
            "visited": self.visited,
            "evaluated": self.evaluated,
            "refutations": self.refutations,
        }


def _context_stream(config: SearchConfig,
                    closure_variants: Optional[tuple[str, ...]] = None) -> Iterator[SemistarContext]:
    """The search's contexts under `config.closure_variant`, or under each
    of `closure_variants` in turn, one space per operation."""
    variants = closure_variants or (config.closure_variant,)
    for n in range(1, config.max_n + 1):
        for topology in enumerate_topologies(n):
            ops = enumerate_operations(topology, config.domain, config.op_budget)
            yield from shared_contexts(topology, ops, variants)


def _replayable(stream: Iterator) -> Callable[[], Iterator]:
    """Replays of one stream: each replay yields the same items in order,
    and the stream is advanced only when a replay first needs an item."""
    items: list = []

    def replay() -> Iterator:
        i = 0
        while True:
            if i == len(items):
                try:
                    items.append(next(stream))
                except StopIteration:
                    return
            yield items[i]
            i += 1

    return replay


def _map_instances(config: SearchConfig) -> Iterator[MapInstance]:
    """Every enumerated space paired with every one, each pair under each
    swept point map. Contexts are built once per search and point maps once
    per process, and both are shared, so their cached tables fill once."""
    contexts = _replayable(_context_stream(config))
    for ctx_x in contexts():
        for ctx_y in contexts():
            for pm in _point_maps(ctx_x.universe, ctx_y.universe):
                yield MapInstance(ctx_x, ctx_y, pm)


def _sweep_instances(claim: Claim, instances: Iterable, opt: EvalOptions,
                     stop_at_first: bool) -> SearchOutcome:
    """Evaluate `claim` on each instance in order, counting the instances
    visited, evaluated (hypotheses met) and refuted. Verdicts are made
    unlabelled; only the first refutation is kept, so only it is labelled
    and has its witness rendered."""
    visited = evaluated = refutations = 0
    first: Optional[Verdict] = None
    first_instance = None
    for instance in instances:
        visited += 1
        verdict = evaluate_claim(claim, instance, opt, label="")
        if verdict.status == VACUOUS:
            continue
        evaluated += 1
        if verdict.status == REFUTED:
            refutations += 1
            if first is None:
                verdict.instance = instance.describe()
                binding = tuple(verdict.witness["binding"])
                verdict.witness = _render_binding(claim, instance, opt, binding)
                if claim.kind == "map":
                    verdict.witness["assign"] = instance.map.as_labels()
                first, first_instance = verdict, instance
            if stop_at_first:
                break
    status = REFUTED if first is not None else "EXHAUSTED"
    return SearchOutcome(
        claim.id, status, first, visited, evaluated, refutations, first_instance
    )


def search_counterexample(claim_id: str, config: Optional[SearchConfig] = None) -> SearchOutcome:
    """Stream enumerated instances in canonical order and hunt for a refutation.

    Every instance is evaluated under `config.options`; hypotheses named in
    its `drop` are not enforced, which turns necessity examples into
    reproducible searches. Returns the first refuted verdict, or an
    exhausted outcome with full accounting.
    Worked-example claims are bound to their fixture and cannot be searched.
    """
    claim = get_claim(claim_id)
    if claim.fixture is not None:
        raise ShapeMismatch(
            f"claim {claim.id} checks fixture {claim.fixture} and cannot be searched"
        )
    config = config or SearchConfig()
    if claim.kind == "space":
        instances = _context_stream(config)
    else:
        instances = _map_instances(config)
    return _sweep_instances(claim, instances, config.options, config.stop_at_first)


# --- the audit -------------------------------------------------------------------

STRUCTURAL_IDS = (
    "T3.14", "T3.16", "P3.17a",
    "T3.18.1", "T3.18.2", "T3.18.3", "T3.18.6", "T3.18.7",
    "T3.19.1", "T3.19.2",
)

_T320_MODES = (("regular",), ("open",), ("regular", "open"))

# the structural sweeps cover every topology on 1..SWEEP_MAX_N points
SWEEP_MAX_N = 3


class AuditReport:
    __slots__ = ("fixtures", "entries", "sweeps", "errata")

    def __init__(self, fixtures: dict, entries: list, sweeps: list, errata: list):
        self.fixtures = fixtures
        self.entries = entries
        self.sweeps = sweeps
        self.errata = errata

    def to_json(self) -> str:
        payload = {
            "fixtures": self.fixtures,
            "entries": self.entries,
            "sweeps": self.sweeps,
            "errata": self.errata,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = []
        statuses = {}
        for e in self.entries:
            statuses[e["status"]] = statuses.get(e["status"], 0) + 1
        summary = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
        lines.append(
            f"audit: {len(set(e['claim'] for e in self.entries))} claims, "
            f"{len(self.entries)} verdicts ({summary}), {len(self.errata)} errata"
        )
        lines.append("")
        lines.append("errata (reported values the oracle contradicts):")
        if not self.errata:
            lines.append("  none")
        for e in self.errata:
            lines.append(f"  {_entry_line(e)}")
            if e.get("statement"):
                lines.append(f"      claim: {e['statement']}")
            detail = (e.get("witness") or {}).get("detail")
            if detail:
                lines.append(f"      {json.dumps(detail, sort_keys=True)}")
        lines.append("")
        lines.append("structural sweeps over enumerated instances:")
        for s in self.sweeps:
            lines.append(
                f"  {s['claim']} closure={s['closure']} universes={s['universes']}"
                f" instances={s['instances']} refuted={s['refuted']}"
            )
        lines.append("")
        lines.append("verdicts:")
        for e in self.entries:
            lines.append(f"  {_entry_line(e)}")
        return "\n".join(lines) + "\n"


def _entry_line(entry: dict) -> str:
    v = entry["variant"]
    bits = [f"closure={v['closure']}"]
    if v.get("semi_regular"):
        bits.append(f"sr={v['semi_regular']}")
    if v.get("interior") and v["interior"] != "lattice":
        bits.append(f"interior={v['interior']}")
    bits.append(f"hyp={v['hypotheses']}")
    if v.get("unmet"):
        bits.append(f"unmet={v['unmet']}")
    line = f"{entry['claim']} [{entry['instance']} {' '.join(bits)}]: {entry['status']}"
    witness = entry.get("witness")
    if witness and witness.get("slots"):
        parts = ",".join(f"{k}={w}" for k, w in witness["slots"].items())
        line += f" witness {parts}"
    return line


def _fixture_meta(catalog: dict) -> dict:
    meta = {}
    for name in FIXTURE_ORDER:
        space = catalog[name]
        meta[name] = {
            "points": list(space.universe.labels),
            "opens": [list(space.universe.names_of(o)) for o in space.topology.opens],
            "operation": FIXTURE_NOTES[name],
        }
    return meta


def _structural_sweeps(max_n: int) -> list:
    # the stream yields the builtins first, so its first len(BUILTIN_KINDS)
    # operations per topology are exactly the builtins; each space is built
    # once and read under both closures, one context per (space, closure)
    # shared by every structural claim
    contexts: dict = {closure_variant: [] for closure_variant in CLOSURE_VARIANTS}
    for ctx in _context_stream(SearchConfig(max_n, len(BUILTIN_KINDS)), CLOSURE_VARIANTS):
        contexts[ctx.closure_variant].append(ctx)
    rows = []
    for cid in STRUCTURAL_IDS:
        claim = get_claim(cid)
        for closure_variant in CLOSURE_VARIANTS:
            outcome = _sweep_instances(claim, contexts[closure_variant], EvalOptions(),
                                       stop_at_first=False)
            rows.append({
                "claim": cid,
                "closure": closure_variant,
                "universes": f"1..{max_n}",
                "operations": "builtins",
                "instances": outcome.visited,
                "refuted": outcome.refutations,
                "first_witness": outcome.witness and outcome.witness.to_dict(),
            })
    return rows


def audit_paper() -> AuditReport:
    """Replay the whole registry against the fixture catalog.

    Every claim runs under both closure variants, on one context per
    (fixture, closure) shared by every claim; a map claim sweeps the point
    maps from that context to itself. Claims sensitive to the semi-regular
    reading or the interior reading additionally run under both of those;
    the triple-boundary claim runs under three hypothesis modes. Every
    refuted witness is re-evaluated on the instance that produced it before
    it is reported. The report is fully deterministic.
    """
    catalog = fixture_catalog()
    contexts = {
        (fname, closure_variant): SemistarContext(catalog[fname], closure_variant)
        for fname in FIXTURE_ORDER
        for closure_variant in CLOSURE_VARIANTS
    }
    entries = []
    for claim in list_claims():
        fixture_names = (claim.fixture,) if claim.fixture else FIXTURE_ORDER
        sr_variants = SEMI_REGULAR_VARIANTS if claim.uses_sr_variant else ("cap",)
        readings = INTERIOR_READINGS if claim.uses_interior_reading else ("lattice",)
        modes = _T320_MODES if claim.id == "T3.20" else (None,)
        for fname in fixture_names:
            for closure_variant in CLOSURE_VARIANTS:
                ctx = contexts[fname, closure_variant]
                if claim.kind == "space":
                    instance, label = ctx, fname
                else:
                    instance, label = (ctx, ctx), f"{fname}->{fname}"
                for sr in sr_variants:
                    for reading in readings:
                        for mode in modes:
                            opt = EvalOptions(
                                semi_regular_variant=sr,
                                interior_reading=reading,
                                require=mode,
                            )
                            verdict = evaluate_claim(claim, instance, opt, label=label)
                            if verdict.status == REFUTED:
                                reproduced = reevaluate_witness(
                                    claim, instance, verdict.witness, opt
                                )
                                verdict.witness["reproduced"] = reproduced
                            entries.append(verdict.to_dict())
    errata = [
        dict(e, statement=get_claim(e["claim"]).statement)
        for e in entries
        if e["claim"].startswith("E") and e["status"] == REFUTED
    ]
    return AuditReport(
        fixtures=_fixture_meta(catalog),
        entries=entries,
        sweeps=_structural_sweeps(SWEEP_MAX_N),
        errata=errata,
    )

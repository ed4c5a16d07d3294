"""Command-line surface: show derived families and operators, check claims,
search for counterexamples, run the audit, enumerate topologies.

Exit codes: 0 on success (including CONFIRMED and EXHAUSTED), 1 when a
refutation or witness was found, 2 on usage or input errors. Output is
byte-identical for identical invocations.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .claims import (
    KNOWN_HYPOTHESES,
    REFUTED,
    EvalOptions,
    SearchConfig,
    audit_paper,
    evaluate_claim,
    get_claim,
    list_claims,
    search_counterexample,
)
from .core import enumerate_topologies
from .errors import EngineError
from .gamma import CLOSURE_VARIANTS, GammaSpace
from .jsonio import (
    family_to_labels,
    load_bundle,
    parse_set,
    set_to_labels,
    topologies_to_json,
)
from .maps import MapInstance
from .ops import OPERATION_DOMAINS
from .semistar import (
    SemistarContext,
    s_boundary,
    s_closure,
    s_exterior,
    s_interior,
)

SHOW_WHAT = ("tau-gamma", "so", "sc", "scl", "sint", "sbd", "sext", "classify")
_POINTWISE_WHAT = {"scl": s_closure, "sint": s_interior, "sbd": s_boundary, "sext": s_exterior}
_SR_HELP = ("reading of the semi-regular hypothesis: cap (intersection form) or "
            "cup (union form). cup holds for every operation (take w = u), so "
            "under cup the hypothesis gates nothing")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topogamma",
        description="Finite-space workbench for expansive-operation topology: "
        "derived families, claim checks, counterexample search, audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="print a derived family or operator value")
    show.add_argument("--space", required=True, help="space JSON file")
    show.add_argument("--op", help="operation JSON file (default: embedded or identity)")
    show.add_argument("--what", required=True, choices=SHOW_WHAT)
    show.add_argument("--set", dest="set_literal", help="subset literal like {a,b}")
    show.add_argument("--closure", choices=CLOSURE_VARIANTS, default="pointwise")
    show.add_argument("--json", action="store_true", help="emit the JSON form")

    check = sub.add_parser("check", help="evaluate one claim on one instance")
    check.add_argument("--claim", required=True)
    check.add_argument("--space", required=True)
    check.add_argument("--op")
    check.add_argument("--map", dest="map_path")
    check.add_argument("--codomain")
    check.add_argument("--codomain-op")
    check.add_argument("--closure", choices=CLOSURE_VARIANTS, default="pointwise")
    check.add_argument("--sr", choices=("cap", "cup"), default="cap", help=_SR_HELP)
    check.add_argument("--interior", choices=("lattice", "pointwise"), default="lattice")
    check.add_argument("--drop", action="append", default=[], choices=KNOWN_HYPOTHESES,
                       help="evaluate with this hypothesis unenforced (repeatable)")
    check.add_argument("--json", action="store_true")

    search = sub.add_parser("search", help="hunt enumerated instances for a counterexample")
    search.add_argument("--claim", required=True)
    search.add_argument("--drop", action="append", default=[], choices=KNOWN_HYPOTHESES)
    search.add_argument("--max-n", type=int, default=4)
    search.add_argument("--budget", type=int, default=64,
                        help="operations per topology")
    search.add_argument("--domain", choices=OPERATION_DOMAINS, default="opens")
    search.add_argument("--closure", choices=CLOSURE_VARIANTS, default="pointwise")
    search.add_argument("--sr", choices=("cap", "cup"), default="cap", help=_SR_HELP)
    search.add_argument("--interior", choices=("lattice", "pointwise"), default="lattice")
    search.add_argument("--no-stop", action="store_true",
                        help="keep sweeping after the first refutation")
    search.add_argument("--json", action="store_true")

    audit = sub.add_parser("audit", help="replay every registry claim on the fixture catalog")
    audit.add_argument("--out", help="write the JSON report here")
    audit.add_argument("--json", action="store_true", help="print JSON instead of text")

    enum = sub.add_parser("enumerate", help="list or count all topologies on n points")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--count-only", action="store_true")
    enum.add_argument("--json", action="store_true")

    claims = sub.add_parser("claims", help="list the claim registry")
    claims.add_argument("--json", action="store_true")

    return parser


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _fmt_family(universe, family) -> str:
    # families come from validated tables, so their masks index directly
    return " ".join(map(universe.format_table.__getitem__, family))


def _cmd_show(args) -> int:
    bundle = load_bundle(args.space, args.op, closure_variant=args.closure)
    if isinstance(bundle, MapInstance):
        raise EngineError("show works on a single space")
    ctx = SemistarContext(bundle, args.closure)
    universe = ctx.universe
    what = args.what
    if what in _POINTWISE_WHAT:
        if args.set_literal is None:
            print(f"--what {what} needs --set", file=sys.stderr)
            return 2
        mask = parse_set(args.set_literal, universe)
        value = _POINTWISE_WHAT[what](ctx, mask)
        payload = {
            "what": what,
            "set": set_to_labels(universe, mask),
            "value": set_to_labels(universe, value),
            "closure": args.closure,
        }
        _emit(payload, args.json, universe.format_set(value))
        return 0
    if what == "tau-gamma":
        family = bundle.tau_gamma
    elif what == "so":
        family = ctx.so_family
    elif what == "sc":
        family = ctx.sc_family
    else:  # classify
        cls = bundle.classification
        payload = {
            "what": "classify",
            "regular": cls.regular,
            "open": cls.open_op,
            "monotone": cls.monotone,
            "semi_regular_cap": cls.semi_regular_cap,
            "semi_regular_cup": cls.semi_regular_cup,
            "semi_open_op": cls.semi_open_op,
        }
        text = "\n".join(
            f"{key}: {value}" for key, value in payload.items() if key != "what"
        )
        _emit(payload, args.json, text)
        return 0
    payload = {
        "what": what,
        "family": family_to_labels(universe, family),
        "closure": args.closure,
    }
    _emit(payload, args.json, _fmt_family(universe, family))
    return 0


def _cmd_check(args) -> int:
    claim = get_claim(args.claim)
    options = EvalOptions(
        closure_variant=args.closure,
        semi_regular_variant=args.sr,
        interior_reading=args.interior,
        drop=frozenset(args.drop),
    )
    bundle = load_bundle(
        args.space,
        args.op,
        map_path=args.map_path,
        codomain_path=args.codomain,
        codomain_operation_path=args.codomain_op,
        closure_variant=args.closure,
    )
    if claim.kind == "map" and isinstance(bundle, GammaSpace):
        if args.codomain is None:
            print(f"claim {claim.id} needs --codomain (and usually --map)", file=sys.stderr)
            return 2
    verdict = evaluate_claim(claim, bundle, options)
    payload = verdict.to_dict()
    text = f"{verdict.claim_id}: {verdict.status}"
    if verdict.witness and verdict.witness.get("slots"):
        parts = ",".join(f"{k}={v}" for k, v in verdict.witness["slots"].items())
        text += f" witness {parts}"
    if verdict.witness and verdict.witness.get("detail"):
        text += f" detail {json.dumps(verdict.witness['detail'], sort_keys=True)}"
    _emit(payload, args.json, text)
    return 1 if verdict.status == REFUTED else 0


def _cmd_search(args) -> int:
    config = SearchConfig(
        max_n=args.max_n,
        op_budget=args.budget,
        domain=args.domain,
        drop=frozenset(args.drop),
        stop_at_first=not args.no_stop,
        closure_variant=args.closure,
        semi_regular_variant=args.sr,
        interior_reading=args.interior,
    )
    outcome = search_counterexample(args.claim, config)
    payload = outcome.to_dict()
    if outcome.status == REFUTED:
        witness = outcome.witness
        text = (
            f"{outcome.claim_id}: REFUTED after {outcome.visited} instances\n"
            f"  instance: {witness.instance}\n"
            f"  witness: {json.dumps(witness.witness.get('slots', witness.witness), sort_keys=True)}\n"
            f"  variant: {json.dumps(witness.variant, sort_keys=True)}\n"
            f"  refutations seen: {outcome.refutations}"
        )
    else:
        text = (
            f"{outcome.claim_id}: EXHAUSTED({outcome.visited}) "
            f"evaluated={outcome.evaluated} refutations={outcome.refutations}"
        )
    _emit(payload, args.json, text)
    return 1 if outcome.status == REFUTED else 0


def _cmd_audit(args) -> int:
    report = audit_paper()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.to_text(), end="")
    return 0


def _cmd_enumerate(args) -> int:
    topologies = list(enumerate_topologies(args.n))
    if args.count_only:
        _emit({"n": args.n, "count": len(topologies)}, args.json, str(len(topologies)))
        return 0
    if args.json:
        sys.stdout.write(topologies_to_json(args.n, topologies) + "\n")
    else:
        sys.stdout.write("".join(
            _fmt_family(t.universe, t.opens) + "\n" for t in topologies
        ))
    return 0


def _cmd_claims(args) -> int:
    rows = [
        {
            "id": c.id,
            "kind": c.kind,
            "statement": c.statement,
            "hypotheses": list(c.hypotheses),
            "fixture": c.fixture,
        }
        for c in list_claims()
    ]
    if args.json:
        print(json.dumps({"claims": rows}, indent=2, sort_keys=True))
    else:
        for row in rows:
            hyps = ",".join(row["hypotheses"]) or "-"
            print(f"{row['id']:10s} [{row['kind']:5s}] ({hyps}) {row['statement']}")
    return 0


_COMMANDS = {
    "show": _cmd_show,
    "check": _cmd_check,
    "search": _cmd_search,
    "audit": _cmd_audit,
    "enumerate": _cmd_enumerate,
    "claims": _cmd_claims,
}


def run(argv: Optional[list] = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (EngineError, ValueError, OSError) as exc:
        # invalid input (bad bounds, unknown points, unreadable files) is a
        # usage error, never the "refutation found" code
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

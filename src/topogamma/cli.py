"""Command-line surface: show derived families and operators, check claims,
search for counterexamples, run the audit, enumerate topologies.

Exit codes: 0 on success (including CONFIRMED and EXHAUSTED), 1 when a
refutation or witness was found, 2 on usage or input errors. Output is
byte-identical for identical invocations.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .claims import (
    INTERIOR_READINGS,
    KNOWN_HYPOTHESES,
    REFUTED,
    SEMI_REGULAR_VARIANTS,
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
from .gamma import CLOSURE_VARIANTS
from .jsonio import (
    family_to_labels,
    load_bundle,
    parse_set,
    set_to_labels,
    topologies_json_chunks,
)
from .ops import OPERATION_DOMAINS
from .semistar import SemistarContext

SHOW_WHAT = ("tau-gamma", "so", "sc", "scl", "sint", "sbd", "sext", "classify")
# the operators that take --set, then the families, each by the table of
# `ctx.tables` it reads; the semi-exterior of A is the semi-interior of X - A
_SET_TABLES = {"scl": "scl_table", "sint": "sint_table", "sbd": "sbd_table",
               "sext": "sint_table"}
_FAMILIES = {"tau-gamma": "tau_gamma", "so": "so_family", "sc": "sc_family"}
# enumerate writes its listing in batches of this many characters
_BATCH_CHARS = 1 << 16
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

    # the flags `check` and `search` share: the closure variant of the
    # contexts, and the readings and drops `_options` turns into EvalOptions
    evaluation = argparse.ArgumentParser(add_help=False)
    evaluation.add_argument("--closure", choices=CLOSURE_VARIANTS, default="pointwise")
    evaluation.add_argument("--sr", choices=SEMI_REGULAR_VARIANTS, default="cap",
                            help=_SR_HELP)
    evaluation.add_argument("--interior", choices=INTERIOR_READINGS, default="lattice")
    evaluation.add_argument("--drop", action="append", default=[], choices=KNOWN_HYPOTHESES,
                            help="evaluate with this hypothesis unenforced (repeatable)")

    check = sub.add_parser("check", parents=[evaluation],
                           help="evaluate one claim on one instance")
    check.add_argument("--claim", required=True)
    check.add_argument("--space", required=True)
    check.add_argument("--op")
    check.add_argument("--map", dest="map_path")
    check.add_argument("--codomain")
    check.add_argument("--codomain-op")
    check.add_argument("--json", action="store_true")

    search = sub.add_parser("search", parents=[evaluation],
                            help="hunt enumerated instances for a counterexample")
    search.add_argument("--claim", required=True)
    search.add_argument("--max-n", type=int, default=4)
    search.add_argument("--budget", type=int, default=64,
                        help="operations per topology")
    search.add_argument("--domain", choices=OPERATION_DOMAINS, default="opens")
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
    what = args.what
    takes_set = what in _SET_TABLES
    if takes_set != (args.set_literal is not None):
        print(f"--what {what} {'needs' if takes_set else 'takes no'} --set", file=sys.stderr)
        return 2
    ctx = load_bundle(args.space, args.op, closure_variant=args.closure)
    universe = ctx.universe
    if takes_set:
        mask = parse_set(args.set_literal, universe)
        table = getattr(ctx.tables, _SET_TABLES[what])
        value = table[ctx.full ^ mask if what == "sext" else mask]
        payload = {
            "what": what,
            "set": set_to_labels(universe, mask),
            "value": set_to_labels(universe, value),
            "closure": args.closure,
        }
        _emit(payload, args.json, universe.format_set(value))
        return 0
    if what == "classify":
        space = ctx.space
        payload = {
            "what": "classify",
            "regular": space.regular,
            "open": space.open_op,
            "monotone": space.monotone,
            "semi_regular_cap": space.semi_regular_cap,
            "semi_regular_cup": space.semi_regular_cup,
            "semi_open_op": space.semi_open_op,
        }
        text = "\n".join(
            f"{key}: {value}" for key, value in payload.items() if key != "what"
        )
        _emit(payload, args.json, text)
        return 0
    family = getattr(ctx.tables, _FAMILIES[what])
    payload = {
        "what": what,
        "family": family_to_labels(universe, family),
        "closure": args.closure,
    }
    _emit(payload, args.json, _fmt_family(universe, family))
    return 0


def _options(args) -> EvalOptions:
    return EvalOptions(
        semi_regular_variant=args.sr,
        interior_reading=args.interior,
        drop=args.drop,
    )


def _cmd_check(args) -> int:
    claim = get_claim(args.claim)
    bundle = load_bundle(
        args.space,
        args.op,
        map_path=args.map_path,
        codomain_path=args.codomain,
        codomain_operation_path=args.codomain_op,
        closure_variant=args.closure,
    )
    # without a map and a codomain the bundle is the domain's context alone
    if claim.kind == "map" and isinstance(bundle, SemistarContext):
        print(f"claim {claim.id} needs --codomain (and usually --map)", file=sys.stderr)
        return 2
    verdict = evaluate_claim(claim, bundle, _options(args))
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
        stop_at_first=not args.no_stop,
        closure_variant=args.closure,
        options=_options(args),
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
    # encoded once: --out and --json write the same text
    encoded = report.to_json() if args.out or args.json else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(encoded)
    print(encoded if args.json else report.to_text(), end="")
    return 0


def _write_batched(chunks) -> None:
    """Write the chunks to stdout joined in batches of about _BATCH_CHARS
    characters, so a long listing is never held whole."""
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= _BATCH_CHARS:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
    sys.stdout.write("".join(batch))


def _cmd_enumerate(args) -> int:
    # a list of Topology objects, not of text: --json writes the count first
    topologies = list(enumerate_topologies(args.n))
    if args.count_only:
        _emit({"n": args.n, "count": len(topologies)}, args.json, str(len(topologies)))
        return 0
    if args.json:
        _write_batched(topologies_json_chunks(args.n, topologies))
        sys.stdout.write("\n")
    else:
        _write_batched(_fmt_family(t.universe, t.opens) + "\n" for t in topologies)
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
    code = 0
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): it has what it wanted.
        # The command keeps its exit code if it had finished, else 0
        _drop_stdout()
    except (EngineError, ValueError, OSError) as exc:
        # invalid input (bad bounds, unknown points, unreadable files) is a
        # usage error, never the "refutation found" code
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the output
    still buffered is dropped and the flush at exit cannot fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return   # an in-process sink with no descriptor
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Outside-in tracing of one topogamma CLI job, installed from the benchmark.

Nothing under src/ knows about this module. After `import topogamma`, the
tracer replaces each traced function at every place it is looked up: module
globals that hold it by value (``from .core import enumerate_topologies``),
the package namespace, class attributes, and the CLI's command table.
Lazy imports inside functions read the module attribute at call time, so
they see the replacement too.

Every traced call records one span (layer, start, end, parent) in flat
arrays kept in memory. At the end of the job the spans are written out and
reduced: a layer's self time is its spans' durations minus the time their
child spans cover, and the job time no top-level span covers is reported
as uncovered. Self times plus uncovered add up to the traced wall time.

Counters that need no timing (objects built, bindings swept, verdicts by
status) are counted without spans, so they add little overhead.
"""
from __future__ import annotations

import itertools
import json
import operator
import sys
import time
from array import array
from collections import Counter
from functools import cached_property, wraps

LAYERS = (
    "core.enumerate",
    "core.semi_open_family",
    "ops.build",
    "ops.classify",
    "gamma.tables",
    "semistar.tables",
    "maps.continuity",
    "claims.eval",
    "claims.label",
    "claims.search",
    "claims.audit",
    "claims.recheck",
    "cli.render",
    "jsonio.encode",
)


class _TimedIterator:
    """Iterator over a generator whose every next() is one span."""

    __slots__ = ("_it", "_step", "_counts", "_key")

    def __init__(self, it, step, counts, key):
        self._it, self._step, self._counts, self._key = it, step, counts, key

    def __iter__(self):
        return self

    def __next__(self):
        item = self._step(self._it)
        if self._key:
            self._counts[self._key] += 1
        return item


class Tracer:
    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.layers = array("b")
        self.stack = [-1]
        self.counts = Counter()
        self.labels: dict[str, int] = {}
        self.label_depth = 0
        self.classified: set = set()
        self.binding_counters: list = []
        self.originals: list = []

    # --- span recording -------------------------------------------------------

    def span(self, layer: str, fn):
        """Wrap `fn` so each call records one span of `layer`."""
        lid = LAYERS.index(layer)
        starts, ends, parents, layers, stack = (
            self.starts, self.ends, self.parents, self.layers, self.stack
        )
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            parents.append(stack[-1])
            layers.append(lid)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def span_each_next(self, layer: str, fn, count_key: str | None = None):
        """Wrap a generator function: creating the generator records
        nothing, each next() on it records one span and counts one item
        under `count_key`."""
        step = self.span(layer, next)
        counts = self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            return _TimedIterator(fn(*args, **kwargs), step, counts, count_key)

        return traced

    # --- patching ---------------------------------------------------------------

    def replace(self, original, replacement) -> None:
        """Rebind `original` to `replacement` wherever a topogamma module or
        the CLI command table holds it."""
        hits = 0
        for name, module in list(sys.modules.items()):
            if name != "topogamma" and not name.startswith("topogamma."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    hits += 1
        commands = sys.modules["topogamma.cli"]._COMMANDS
        for key, value in commands.items():
            if value is original:
                commands[key] = replacement
                hits += 1
        if not hits:
            raise RuntimeError(f"{original!r} is bound nowhere; the tracer is stale")
        self.originals.append(original)

    def replace_method(self, cls, name: str, replacement) -> None:
        self.originals.append(vars(cls)[name])
        setattr(cls, name, replacement)

    def wrap_cached_tables(self, cls, layer: str, skip=()) -> None:
        """Re-wrap each cached_property fill of `cls` as a span. The new
        descriptor gets the same attribute name, so values are still cached
        on the instance and a fill still happens once per instance."""
        for name, attr in list(vars(cls).items()):
            if isinstance(attr, cached_property) and name not in skip:
                table = cached_property(self.span(layer, attr.func))
                table.__set_name__(cls, name)
                self.replace_method(cls, name, table)

    def count_inits(self, cls, key: str) -> None:
        init = cls.__init__
        counts = self.counts

        @wraps(init)
        def counted(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)

        self.replace_method(cls, "__init__", counted)

    def check_complete(self) -> None:
        """Fail when a module or the command table still holds an original."""
        originals = {id(o) for o in self.originals}
        holders = [
            vars(module) for name, module in sys.modules.items()
            if name == "topogamma" or name.startswith("topogamma.")
        ]
        holders.append(sys.modules["topogamma.cli"]._COMMANDS)
        for holder in holders:
            for key, value in holder.items():
                if id(value) in originals:
                    raise RuntimeError(f"untraced reference left at {key!r}")

    def install(self) -> None:
        from topogamma import claims, cli, core, jsonio, maps, ops, semistar
        from topogamma.gamma import GammaSpace

        counts = self.counts

        # core: topology enumeration and the classical semi-open family
        self.replace(core.enumerate_topologies, self.span_each_next(
            "core.enumerate", core.enumerate_topologies, "core.topologies"))
        self.replace(core.semi_open_family,
                     self.span("core.semi_open_family", core.semi_open_family))

        # ops: building operations and classifying them
        self.replace(ops.enumerate_operations,
                     self.span_each_next("ops.build", ops.enumerate_operations))
        for fn in (ops.gamma_builtin, ops.gamma_from_table):
            self.replace(fn, self._counted(self.span("ops.build", fn), "ops.operations"))
        classify = self.span("ops.classify", ops.classify_operation)
        classified = self.classified

        @wraps(ops.classify_operation)
        def classify_operation(topology, op):
            classified.add((topology.universe.size, topology.opens, op.table))
            return classify(topology, op)

        self.replace(ops.classify_operation, classify_operation)

        # gamma and semistar: cached tables (classification is ops.classify)
        self.count_inits(GammaSpace, "gamma.spaces")
        self.wrap_cached_tables(GammaSpace, "gamma.tables", skip=("classification",))
        self.count_inits(semistar.SemistarContext, "semistar.contexts")
        self.wrap_cached_tables(semistar.SemistarContext, "semistar.tables")

        # maps: instances and the two continuity predicates
        self.count_inits(maps.MapInstance, "maps.instances")
        for fn in (maps.is_gamma_semi_continuous, maps.is_gamma_semi_open_map):
            self.replace(fn, self.span("maps.continuity", fn))

        # claims: evaluation, labels, search, audit, re-check
        evaluate = self.span("claims.eval", claims.evaluate_claim)

        @wraps(claims.evaluate_claim)
        def evaluate_claim(*args, **kwargs):
            verdict = evaluate(*args, **kwargs)
            counts["claims.visited"] += 1
            if verdict.status == claims.VACUOUS:
                counts["claims.vacuous"] += 1
            return verdict

        self.replace(claims.evaluate_claim, evaluate_claim)
        for cls in (GammaSpace, semistar.SemistarContext, maps.MapInstance):
            self.replace_method(cls, "describe", self._label(vars(cls)["describe"]))
        for claim in claims.list_claims():
            object.__setattr__(claim, "bindings", self._count_bindings(claim.bindings))
        self.replace(claims.search_counterexample,
                     self.span("claims.search", claims.search_counterexample))
        self.replace(claims.audit_paper, self.span("claims.audit", claims.audit_paper))
        self.replace(claims.reevaluate_witness,
                     self.span("claims.recheck", claims.reevaluate_witness))

        # cli and jsonio: commands, rendering, JSON encoding
        for name in sorted(vars(cli)):
            if name.startswith("_cmd_") or name in ("_emit", "_fmt_family"):
                self.replace(getattr(cli, name), self.span("cli.render", getattr(cli, name)))
        for cls, name in ((claims.AuditReport, "to_json"), (claims.AuditReport, "to_text"),
                          (claims.SearchOutcome, "to_dict")):
            self.replace_method(cls, name, self.span("cli.render", vars(cls)[name]))
        for fn in (jsonio.space_to_json, jsonio.family_to_labels):
            self.replace(fn, self.span("jsonio.encode", fn))

        self.check_complete()

    def _counted(self, fn, key: str):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _label(self, describe):
        """Span each describe(); record the outermost label text so the
        share of labels that reach stdout can be counted."""
        traced = self.span("claims.label", describe)
        labels = self.labels
        tracer = self

        @wraps(describe)
        def label(obj):
            tracer.label_depth += 1
            try:
                text = traced(obj)
            finally:
                tracer.label_depth -= 1
            if tracer.label_depth == 0:
                labels[text] = labels.get(text, 0) + 1
            return text

        return label

    def _count_bindings(self, bindings):
        counters = self.binding_counters
        first = operator.itemgetter(0)

        @wraps(bindings)
        def counted(env):
            # zip stops on the binding stream first, so `seen` advances once
            # per binding actually swept, early exits included
            seen = itertools.count()
            counters.append(seen)
            return map(first, zip(bindings(env), seen))

        return counted

    # --- reduction --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """A JSON header line {"spans": n, "layers": [...]}, then the four
        span arrays in native byte order: start and end (float64 seconds on
        the job's perf_counter clock), parent (int64 index, -1 at top level)
        and layer (int8 index into "layers")."""
        header = {"spans": len(self.starts), "layers": list(LAYERS)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.starts, self.ends, self.parents, self.layers):
                column.tofile(fh)

    def summary(self, wall_start: float, wall_end: float, stdout: str) -> dict:
        if len(self.stack) != 1:
            raise RuntimeError("spans left open at the end of the job")
        n = len(self.starts)
        child_time = [0.0] * n
        self_s = dict.fromkeys(LAYERS, 0.0)
        spans = dict.fromkeys(LAYERS, 0)
        covered = 0.0
        # children are recorded after their parent, so walking backwards sees
        # every child before its parent
        for i in range(n - 1, -1, -1):
            duration = self.ends[i] - self.starts[i]
            layer = LAYERS[self.layers[i]]
            self_s[layer] += duration - child_time[i]
            spans[layer] += 1
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += duration
            else:
                covered += duration
        wall = wall_end - wall_start
        uncovered = wall - covered
        if abs(sum(self_s.values()) + uncovered - wall) > 1e-6:
            raise RuntimeError("layer self times do not add up to the wall time")
        counts = dict(self.counts)
        counts["claims.bindings"] = sum(next(c) for c in self.binding_counters)
        counts["ops.classified_spaces"] = len(self.classified)
        counts["claims.labels"] = sum(self.labels.values())
        # a label text can be built more than once (table operations share
        # one), so a text found in stdout counts once
        counts["claims.labels_used"] = sum(1 for text in self.labels if text in stdout)
        return {
            "wall_s": wall,
            "uncovered_s": uncovered,
            "self_s": self_s,
            "spans": spans,
            "counts": counts,
        }

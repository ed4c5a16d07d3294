#!/usr/bin/env python3
"""The topogamma benchmark: end-to-end and per-layer timings of CLI jobs.

    python3 bench/run.py --workload space-search [--seed 1] [--seconds S] [--trace 0|1]

Each job is `python3 bench/job.py -- <topogamma argv>`: a fresh interpreter
that imports the package and runs `topogamma.cli`, one job at a time, as a
user runs the CLI. A run goes through the workload's whole command set in
passes, each pass in a seeded order; jobs start until the next one would
end past --seconds, and the first pass always completes. Every job's output
is checked against a known answer in expected.json.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
each job untraced and then traced (tracing.py), requires equal stdout, exit
code and counters, and reports the per-layer metrics. The last stdout line
is the result object; the line before it is a report with the claims run,
sample counts, the latency tail, failures and the environment. The exit
code is 0 when every check passed, 1 on a wrong answer and 2 when the
program or the benchmark's own files are missing. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "topogamma"
SPANS_DIR = HERE / "out"
RECORD_PREFIX = "BENCHJOB "

DEFAULT_SEED = 1
HELD_OUT_SEED = 2     # not used while a change is written; a claimed gain must hold on it
SETUP_SAMPLES = 5
JOB_TIMEOUT_S = 150
A000798 = (1, 4, 29, 355, 6942)   # topologies on n labelled points, n = 1..5

# Claims whose hypotheses send every instance through classification
# (gated) and claims with no hypothesis (ungated). E-claims are fixture
# checks, not search targets, and T4.14 shares T4.5's predicate.
SPACE_GATED = (
    "T3.13", "T3.20", "P3.17b", "T3.18.5", "T3.24", "T3.26.1", "T3.26.2",
    "T3.26.3", "T3.27.1", "T3.27.2", "T3.27.3", "P3.28.1", "P3.28.2",
)
SPACE_UNGATED = (
    "T3.14", "T3.16", "P3.17a", "T3.18.1", "T3.18.2", "T3.18.3", "T3.18.4",
    "T3.18.6", "T3.18.7", "T3.19.1", "T3.19.2", "P3.29", "T3.30", "L4.4",
    "L4.10", "P4.11", "L4.12",
)
MAP_GATED = ("T4.2", "T4.7", "T4.13")
MAP_UNGATED = ("T4.5", "T4.6", "T4.8", "T4.9", "T4.9p")

SEARCH_BOUNDS = {"space-search": (4, 4), "map-search": (3, 1)}   # --max-n, --budget
POOLS = {
    "space-search": (SPACE_GATED, SPACE_UNGATED),
    "map-search": (MAP_GATED, MAP_UNGATED),
}
FIXED_JOBS = {
    "audit": (("audit", "--json"), ("audit",)),
    "enumerate": (("enumerate", "--n", "5"), ("enumerate", "--n", "5", "--json")),
}
WORKLOADS = tuple(POOLS) + tuple(FIXED_JOBS)


class BenchError(Exception):
    """The benchmark cannot run here (program or benchmark files missing)."""


# --- inputs -------------------------------------------------------------------

def search_argv(workload: str, claim: str) -> tuple:
    max_n, budget = SEARCH_BOUNDS[workload]
    return ("search", "--claim", claim, "--max-n", str(max_n),
            "--budget", str(budget), "--no-stop", "--json")


def commands(workload: str) -> tuple:
    """Every command a run of the workload measures: each claim of both
    pools for the searches, the JSON and text forms for audit and
    enumerate."""
    if workload in FIXED_JOBS:
        return FIXED_JOBS[workload]
    return tuple(search_argv(workload, claim) for pool in POOLS[workload] for claim in pool)


def job_sequence(workload: str, seed: int):
    """Endless argv tuples: passes over the whole command set, each in a
    fresh seeded order. Every run measures the same commands, so the mix
    of slow and fast claims cannot move the metrics from seed to seed."""
    rng = random.Random(seed)
    cmds = commands(workload)
    while True:
        yield from rng.sample(cmds, len(cmds))


# --- known answers --------------------------------------------------------------

def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def search_answer(stdout: str) -> dict:
    out = json.loads(stdout)
    witness = out["witness"] or {}
    return {
        "status": out["status"],
        "visited": out["visited"],
        "evaluated": out["evaluated"],
        "refutations": out["refutations"],
        "witness_instance": witness.get("instance"),
        "witness_slots": (witness.get("witness") or {}).get("slots"),
    }


_VERDICT_LINE = re.compile(r"^  (\S+) \[(\S+) (.*)\]: ([A-Z]+)(?: witness (.*))?$")


def audit_answer(stdout: str, as_json: bool) -> dict:
    """Verdict content: claim, instance, status, variant and witness slots
    of every entry, plus the errata claim ids."""
    if as_json:
        out = json.loads(stdout)
        verdicts = [
            [e["claim"], e["instance"], e["status"], e["variant"],
             (e["witness"] or {}).get("slots")]
            for e in out["entries"]
        ]
        errata = [e["claim"] for e in out["errata"]]
    else:
        lines = stdout.splitlines()
        errata_start = lines.index("errata (reported values the oracle contradicts):") + 1
        sweeps_start = lines.index("structural sweeps over enumerated instances:")
        verdicts_start = lines.index("verdicts:") + 1
        errata = [
            _VERDICT_LINE.match(line).group(1)
            for line in lines[errata_start:sweeps_start]
            if _VERDICT_LINE.match(line)
        ]
        verdicts = [list(_VERDICT_LINE.match(line).groups()) for line in lines[verdicts_start:]]
    return {"verdicts": len(verdicts), "errata": errata, "digest": _digest(verdicts)}


def enumerate_answer(stdout: str, as_json: bool) -> dict:
    if as_json:
        out = json.loads(stdout)
        families = [[",".join(s) for s in t["opens"]] for t in out["topologies"]]
        if out["count"] != len(families):
            raise ValueError(f"count {out['count']} but {len(families)} topologies listed")
    else:
        families = [re.findall(r"\{([^}]*)\}", line) for line in stdout.splitlines()]
    return {"count": len(families), "digest": _digest(families)}


def answer_key(argv: tuple) -> str:
    if argv[0] == "search":
        return argv[2]
    return " ".join(argv)


def check_job(argv: tuple, code: int, stdout: str, expected: dict) -> tuple:
    """(work units, problems) for one job; an empty list means correct."""
    want = expected[answer_key(argv)]
    as_json = "--json" in argv
    try:
        if argv[0] == "search":
            got = search_answer(stdout)
            units = got["visited"]
            want_code = 1 if want["status"] == "REFUTED" else 0
        elif argv[0] == "audit":
            got = audit_answer(stdout, as_json)
            units = got["verdicts"]
            want_code = 0
        else:
            got = enumerate_answer(stdout, as_json)
            units = got["count"]
            want_code = 0
            n = int(argv[argv.index("--n") + 1])
            if got["count"] != A000798[n - 1]:
                return units, [f"{answer_key(argv)}: count {got['count']} is not A000798({n})"]
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return 0, [f"{answer_key(argv)}: unreadable output ({type(exc).__name__}: {exc})"]
    problems = [
        f"{answer_key(argv)}: {key} is {got.get(key)!r}, expected {value!r}"
        for key, value in want.items() if got.get(key) != value
    ]
    if code != want_code:
        problems.append(f"{answer_key(argv)}: exit code {code}, expected {want_code}")
    return units, problems


# --- jobs -------------------------------------------------------------------------

def run_job(argv: tuple, spans_path: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "job.py")]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    cmd += ["--", *argv]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"argv": argv, "code": None, "stdout": "", "record": None,
                "error": f"timed out after {JOB_TIMEOUT_S} s"}
    ended = time.perf_counter()
    err_lines = proc.stderr.splitlines()
    record = None
    if err_lines and err_lines[-1].startswith(RECORD_PREFIX):
        record = json.loads(err_lines[-1][len(RECORD_PREFIX):])
    job = {"argv": argv, "code": proc.returncode, "stdout": proc.stdout, "record": record,
           "error": None if record else f"no job record; stderr: {proc.stderr[-500:]!r}"}
    if record:
        job.update(
            wall_s=ended - spawned,
            setup_s=record["imported"] - spawned,
            import_s=record["imported"] - record["began"],
            cli_s=record["cli_s"],
            rss_mb=record["peak_rss_kb"] / 1024,
        )
    return job


def setup_jobs() -> list:
    """Jobs of the cheapest CLI command, timed for set-up only, after one
    unmeasured run that fills the bytecode cache."""
    jobs = []
    for i in range(SETUP_SAMPLES + 1):
        job = run_job(("claims",))
        if job["error"] or job["code"] != 0:
            raise BenchError(f"set-up job failed: {job['error'] or job['code']}")
        if i:
            jobs.append(job)
    return jobs


# --- statistics -------------------------------------------------------------------

def command_medians(jobs: list, key: str) -> list:
    """Each distinct command's median of `key`. A run's last pass is
    partial, so a statistic over all jobs would weigh its commands more."""
    groups = defaultdict(list)
    for job in jobs:
        groups[job["argv"]].append(job[key])
    return [statistics.median(v) for v in groups.values()]


def per_command(jobs: list, key: str) -> float:
    """Mean over distinct commands of each command's median."""
    return statistics.fmean(command_medians(jobs, key))


def tail(values: list) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 10
    return {"percentile": round(100 * k / len(ordered), 2), "value": ordered[k - 1],
            "samples": len(ordered)}


def ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


# --- environment ------------------------------------------------------------------

def environment() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cpu_pinning": "none; pinning and frequency control are not available",
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))


# --- the run ------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    setups = setup_jobs()
    jobs, traced, problems, drawn = [], [], [], []
    attempted = failed = 0
    pass_len = len(commands(workload))
    step_times = {}
    started = time.perf_counter()
    for k, argv in enumerate(job_sequence(workload, seed)):
        now = time.perf_counter()
        if k >= pass_len and now + step_times[argv] > started + seconds:
            break
        drawn.append(answer_key(argv))
        runs = [run_job(argv)]
        if trace:
            SPANS_DIR.mkdir(exist_ok=True)
            runs.append(run_job(argv, SPANS_DIR / f"spans-{workload}-{k % 2}.bin"))
        for job in runs:
            attempted += 1
            if job["error"]:
                wrong = [f"{answer_key(argv)}: {job['error']}"]
            else:
                job["units"], wrong = check_job(argv, job["code"], job["stdout"], expected)
                jobs.append(job)
            if trace and job is runs[-1] and not any(j["error"] for j in runs):
                wrong += trace_problems(argv, *runs)
                traced.append(runs)
            failed += bool(wrong)
            problems += wrong
        for job in runs:
            # the output is checked; keep only its size
            job["stdout_bytes"] = len(job.pop("stdout").encode())
        step_times[argv] = time.perf_counter() - now
    if not jobs:
        raise BenchError("no job produced a record")

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "claims": drawn if workload in POOLS else None,
        "jobs": len(jobs),
        "setup_samples": len(setups) + len(jobs),
        "fail_ratio": ratio(failed, attempted),
        "failures": problems[:20],
        "environment": environment(),
    }
    if trace:
        metrics = layer_metrics(traced, jobs)
    else:
        metrics = {
            "throughput": ratio(sum(command_medians(jobs, "units")),
                                sum(command_medians(jobs, "cli_s"))),
            "job_p50_s": per_command(jobs, "cli_s"),
            "run_s": per_command(jobs, "wall_s"),
            "setup_s": statistics.median(j["setup_s"] for j in setups + jobs),
            "peak_rss_mb": per_command(jobs, "rss_mb"),
        }
        report["job_tail_s"] = tail([j["cli_s"] for j in jobs])
    return {"report": report, "metrics": metrics, "attempted": attempted, "failed": failed}


def trace_problems(argv: tuple, plain: dict, traced: dict) -> list:
    """Tracing must not change what the job prints, its exit code, or the
    search counters."""
    key = answer_key(argv)
    problems = []
    if traced["stdout"] != plain["stdout"] or traced["code"] != plain["code"]:
        problems.append(f"{key}: traced output or exit code differs from untraced")
    if argv[0] == "search" and not problems:
        counts = traced["record"]["trace"]["counts"]
        try:
            out = json.loads(plain["stdout"])
            out["visited"], out["evaluated"]
        except (ValueError, KeyError, TypeError):
            return problems   # check_job already reports unreadable output
        seen = (counts.get("claims.visited", 0),
                counts.get("claims.visited", 0) - counts.get("claims.vacuous", 0))
        if seen != (out["visited"], out["evaluated"]):
            problems.append(f"{key}: traced counters {seen} differ from the search's "
                            f"{(out['visited'], out['evaluated'])}")
    return problems


def layer_metrics(traced: list, jobs: list) -> dict:
    self_s, spans, counts = defaultdict(float), defaultdict(int), defaultdict(int)
    wall = uncovered = plain_wall = stdout_bytes = 0.0
    for plain, job in traced:
        t = job["record"]["trace"]
        for layer, value in t["self_s"].items():
            self_s[layer] += value
        for layer, value in t["spans"].items():
            spans[layer] += value
        for name, value in t["counts"].items():
            counts[name] += value
        wall += t["wall_s"]
        uncovered += t["uncovered_s"]
        plain_wall += plain["cli_s"]
        stdout_bytes += job["stdout_bytes"]
    visited = counts["claims.visited"]
    return {
        "core.enumerate_s": self_s["core.enumerate"],
        "core.topologies": counts["core.topologies"],
        "core.semi_open_family_calls": spans["core.semi_open_family"],
        "core.semi_open_family_s": self_s["core.semi_open_family"],
        "core.semi_open_per_topology": ratio(spans["core.semi_open_family"],
                                             counts["core.topologies"]),
        "ops.build_s": self_s["ops.build"],
        "ops.operations": counts["ops.operations"],
        "ops.classify_s": self_s["ops.classify"],
        "ops.classify_calls": spans["ops.classify"],
        "ops.classify_per_space": ratio(spans["ops.classify"], counts["ops.classified_spaces"]),
        "gamma.spaces": counts["gamma.spaces"],
        "gamma.tables_s": self_s["gamma.tables"],
        "gamma.table_fills": spans["gamma.tables"],
        "semistar.contexts": counts["semistar.contexts"],
        "semistar.tables_s": self_s["semistar.tables"],
        "semistar.table_fills": spans["semistar.tables"],
        "maps.instances": counts["maps.instances"],
        "maps.continuity_s": self_s["maps.continuity"],
        "claims.visited": visited,
        "claims.evaluated": visited - counts["claims.vacuous"],
        "claims.evaluated_ratio": ratio(visited - counts["claims.vacuous"], visited),
        "claims.vacuous": counts["claims.vacuous"],
        "claims.bindings": counts["claims.bindings"],
        "claims.eval_s": self_s["claims.eval"],
        "claims.label_s": self_s["claims.label"],
        "claims.labels": counts["claims.labels"],
        "claims.labels_used_ratio": ratio(counts["claims.labels_used"], counts["claims.labels"]),
        "claims.search_s": self_s["claims.search"],
        "claims.audit_s": self_s["claims.audit"],
        "claims.recheck_s": self_s["claims.recheck"],
        "cli.render_s": self_s["cli.render"],
        "cli.stdout_bytes": stdout_bytes,
        "jsonio.encode_s": self_s["jsonio.encode"],
        "src.lines": src_lines(),
        "setup.interpreter_s": statistics.median(j["setup_s"] - j["import_s"] for j in jobs),
        "setup.import_s": statistics.median(j["import_s"] for j in jobs),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": wall - plain_wall,
        "trace.overhead_ratio": ratio(wall - plain_wall, plain_wall),
        "trace.uncovered_s": uncovered,
        "trace.spans": sum(spans.values()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if not (SRC / "cli.py").is_file():
            raise BenchError(f"the program is missing: no {SRC / 'cli.py'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = json.loads((HERE / "expected.json").read_text())[args.workload]
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        result = measure(args.workload, args.seed, seconds, bool(args.trace), expected)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared
    }
    print(json.dumps({"report": result["report"]}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

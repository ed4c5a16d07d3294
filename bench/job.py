"""One benchmark job: a fresh interpreter that runs the topogamma CLI once.

    python3 bench/job.py [--trace SPANS_PATH] -- <topogamma argv...>

stdout and the exit code are the CLI's own. The job appends one line to
stderr for the driver, starting with RECORD_PREFIX: the perf_counter
readings just before and just after `import topogamma.cli` (the driver
subtracts its own reading at spawn to get set-up time), the time `cli.run` took, the
peak resident set size, and with --trace the reduced trace. perf_counter
is the system-wide monotonic clock on Linux, so the two processes' readings
compare.

With --trace the tracer from tracing.py is installed after the import, so
set-up is not traced, and the spans are written to SPANS_PATH at the end.
"""
import io
import json
import os
import resource
import sys
import time

RECORD_PREFIX = "BENCHJOB "
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def peak_rss_kb() -> int:
    """Peak resident set size of this process image. ru_maxrss survives
    execve on Linux, so it can report the spawning driver's size; VmHWM
    belongs to the address space exec created."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    argv = sys.argv[1:]
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: job.py [--trace SPANS_PATH] -- <topogamma argv...>", file=sys.stderr)
        return 2
    argv = argv[1:]

    began = time.perf_counter()
    sys.path.insert(0, SRC)
    import topogamma.cli as cli

    imported = time.perf_counter()
    tracer = None
    out = sys.stdout
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        # stdout is buffered while traced so the share of labels that reach
        # it can be counted; it is written out unchanged afterwards
        sys.stdout = io.StringIO()
    start = time.perf_counter()
    code = cli.run(argv)
    sys.stdout.flush()
    end = time.perf_counter()
    record = {
        "began": began,
        "imported": imported,
        "cli_s": end - start,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        text = sys.stdout.getvalue()
        sys.stdout = out
        out.write(text)
        out.flush()
        record["trace"] = tracer.summary(start, end, text)
        tracer.write_spans(spans_path)
    sys.stderr.write(RECORD_PREFIX + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Every module of the package stays small enough to compile cheaply, and
importing the CLI pulls in no heavy standard-library module.

Where no bytecode cache is written (PYTHONDONTWRITEBYTECODE, a read-only
install), every CLI job compiles each module it imports, and the compile
of the largest module sets a floor under each job's peak resident set
size. While `claims.py` held the whole registry (8 033 tokens), compiling
it raised VmHWM by about 3 MB, against 0.9 MB or less for any other
module, and set the peak of every job. The declarations therefore live
in `registry.py` and the evaluation engine in `claims.py`, and no module
may reach MODULE_TOKEN_LIMIT tokens.

CPython 3.11's parser also holds a module's tokens in an array that grows
in steps of 8192 tokens; past a step it preallocates 8192 more, and every
job's peak rose by about 0.45 MB more. Counts are taken the way both steps
were measured: every token except COMMENT, NL and ENCODING.
"""
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
MODULES = sorted((SRC / "topogamma").glob("*.py"))
MODULE_TOKEN_LIMIT = 5000
PARSER_TOKEN_STEP = 8192


def parser_tokens(path: Path) -> int:
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in skipped)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_stays_below_the_token_limit(path):
    count = parser_tokens(path)
    assert count < MODULE_TOKEN_LIMIT, (
        f"{path.name} has {count} parser tokens; compiling the largest module sets "
        "every job's peak RSS when no bytecode cache is written, so split the module"
    )


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the 8192-token step is CPython 3.11's parser",
)
@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_stays_below_the_parser_token_step(path):
    count = parser_tokens(path)
    assert count < PARSER_TOKEN_STEP, (
        f"{path.name} has {count} parser tokens; at {PARSER_TOKEN_STEP} every job's "
        "peak RSS rises by about 0.45 MB, so shrink or split the module"
    )


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # a fresh interpreter without `site`, so that only the package's own
    # imports are seen; `dataclasses` alone brings in inspect, ast, dis and
    # tokenize, about 1 MB and 12 ms per job
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import topogamma.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == []

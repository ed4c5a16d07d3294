"""The claims module stays below CPython 3.11's parser-token cliff.

The 3.11 parser holds a module's tokens in an array that grows in steps of
8192 tokens. Once `claims.py` reaches 8192 tokens the parser preallocates
8192 more while importing it, and the peak resident set size of every job
that imports the engine (each search, the audit, `claims`) rises by about
0.45 MB. The count below is taken the way the cliff was measured: every
token except COMMENT, NL and ENCODING.
"""
import sys
import tokenize
from pathlib import Path

import pytest

CLAIMS = Path(__file__).parent.parent / "src" / "topogamma" / "claims.py"
PARSER_TOKEN_STEP = 8192


def parser_tokens(path: Path) -> int:
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in skipped)


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the 8192-token step is CPython 3.11's parser",
)
def test_claims_module_stays_below_the_parser_token_step():
    count = parser_tokens(CLAIMS)
    assert count < PARSER_TOKEN_STEP, (
        f"claims.py has {count} parser tokens; at {PARSER_TOKEN_STEP} every job's "
        "peak RSS rises by about 0.45 MB, so shrink or split the module"
    )
